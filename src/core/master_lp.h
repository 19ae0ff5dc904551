#ifndef AUDIT_GAME_CORE_MASTER_LP_H_
#define AUDIT_GAME_CORE_MASTER_LP_H_

#include <vector>

#include "core/detection.h"
#include "core/game.h"
#include "core/game_lp.h"
#include "lp/revised_simplex.h"
#include "lp/simplex.h"
#include "util/status.h"
#include "util/statusor.h"

namespace auditgame::core {

/// The restricted master LP of the CGGS column-generation loop (Eq. 5 over
/// a growing candidate set Q), kept *alive across pricing iterations*:
///
///   min  sum_g w_g u_g
///   s.t. u_g - sum_{o in Q} p_o Ua(o, b, <g,v>) >= 0   per victim row
///        sum_o p_o = 1,  p_o >= 0
///
/// Each pricing round appends the newly priced ordering as one column
/// (AddOrdering) and re-solves from the previous optimal basis (Solve).
/// Appending a column cannot break primal feasibility of the old basis —
/// the new variable enters nonbasic at zero — so the warm re-solve skips
/// phase 1 entirely and typically needs a handful of pivots, where the
/// pre-incremental path paid a full cold two-phase solve per round.
///
/// A column's coefficients are computed against the thresholds installed
/// in `detection` at AddOrdering time. When the thresholds change, Reset()
/// rewinds the master to its u_g columns and forgets the basis; the caller
/// then installs the new thresholds and re-adds its columns. The model's
/// rows keep their capacity and the solve buffers are kept, so one master
/// serves a whole ISHM solve (one CGGS run per threshold vector) without
/// rebuilding, and every run after a Reset adds the same columns in the
/// same order and cold-solves from the slack basis exactly like a freshly
/// built master: the results are bit-identical.
class RestrictedMasterLp {
 public:
  struct Options {
    /// LP backend for the master solves. The revised simplex supports
    /// basis warm starts; the dense tableau is the cold reference path.
    lp::SimplexBackend backend = lp::SimplexBackend::kRevised;
    /// Re-solve from the previous basis (kRevised only). With false, every
    /// Solve() is a cold start even on the revised backend.
    bool incremental = true;
    /// Tolerances and iteration caps for the underlying solver; the
    /// `backend` field above wins over lp.backend.
    lp::SimplexSolver::Options lp;
    /// Expected number of AddOrdering calls over the master's lifetime —
    /// an allocation hint only (CGGS passes its column cap): the model's
    /// row storage is reserved once in the constructor so appending
    /// columns never regrows it. Appending beyond the hint stays correct.
    int expected_orderings = 0;
  };

  struct Stats {
    int solves = 0;
    /// Solves that resumed from an accepted previous basis.
    int warm_solves = 0;
    /// Simplex iterations summed over all solves (both phases).
    long iterations = 0;
  };

  /// `game` and `detection` must outlive the master.
  RestrictedMasterLp(const CompiledGame& game, const DetectionModel& detection,
                     Options options);
  RestrictedMasterLp(const CompiledGame& game, const DetectionModel& detection)
      : RestrictedMasterLp(game, detection, Options()) {}

  /// Appends `ordering` as a new master column. The caller is responsible
  /// for deduplication (a duplicate column is harmless but wasteful).
  util::Status AddOrdering(const std::vector<int>& ordering);

  int num_orderings() const { return static_cast<int>(po_vars_.size()); }

  /// Drops every ordering column, the saved basis and the stats, returning
  /// the master to its just-constructed state while keeping all storage.
  void Reset();

  /// Solves the current restricted master; requires at least one ordering.
  /// Incremental mode re-solves from the previous optimal basis when one
  /// is available.
  util::StatusOr<RestrictedLpSolution> Solve();

  /// Allocation-reusing form for the pricing loop: `out`'s vectors are
  /// resized in place, so a caller that keeps one RestrictedLpSolution
  /// across rounds (CGGS) re-solves without touching the heap once the
  /// buffers reach steady-state size.
  util::Status SolveInto(RestrictedLpSolution& out);

  const Stats& stats() const { return stats_; }

 private:
  const CompiledGame& game_;
  const DetectionModel& detection_;
  Options options_;

  lp::LpModel model_;
  std::vector<int> po_vars_;
  std::vector<int> u_vars_;
  std::vector<std::vector<int>> victim_rows_;
  int convexity_row_ = -1;

  lp::Basis basis_;
  bool has_basis_ = false;
  Stats stats_;

  // Reused across solves/additions so the steady-state pricing loop is
  // allocation-free: the revised backend refills `revised_` in place (its
  // basis buffers swap with `basis_` each accepted solve), and AddOrdering
  // evaluates Pal into `pal_prefix_`/`pal_scratch_`.
  lp::RevisedSolution revised_;
  DetectionModel::Prefix pal_prefix_;
  std::vector<double> pal_scratch_;
};

}  // namespace auditgame::core

#endif  // AUDIT_GAME_CORE_MASTER_LP_H_
