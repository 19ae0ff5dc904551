#ifndef AUDIT_GAME_SERVICE_POLICY_CACHE_H_
#define AUDIT_GAME_SERVICE_POLICY_CACHE_H_

#include <cstdint>
#include <cstddef>
#include <mutex>
#include <optional>

#include "solver/engine.h"
#include "util/hash.h"
#include "util/lru_cache.h"

namespace auditgame::util {
class Serializer;
}  // namespace auditgame::util

namespace auditgame::service {

/// Content fingerprint of the full configured request: the game instance
/// (by content, via core::FingerprintGame), the budget, the
/// detection-model options, the solver name, the fixed thresholds, and
/// every solver option — including search seeds and caps
/// (IshmOptions::initial_thresholds / max_subset_size,
/// CggsOptions::initial_orderings, EngineRequest::warm_start), since a
/// differently configured search can reach different heuristic optima.
/// Two services sharing one cache with different standing configurations
/// therefore never collide.
///
/// AuditService deliberately fingerprints the *base* (cold) request before
/// applying its per-cycle warm-start overrides, so a warm re-solve is
/// cached under the configuration's key; see AuditService for why that is
/// sound. It calls this once per instance change, not once per cycle, and
/// reuses the keys until the next one. Keys are persisted in snapshots
/// (PolicyCache::StreamState), so the bytes hashed here are a stable
/// format: changing them turns every restored cache into misses.
util::Fingerprint FingerprintRequest(const solver::EngineRequest& request);

/// Thread-safe LRU cache of solved policies, keyed by request fingerprint.
/// Shared by every worker of an AuditService (and safe to share across
/// several services serving the same corpus): each distinct configuration
/// is solved once and then served from memory until evicted.
class PolicyCache {
 public:
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t insertions = 0;
    int64_t evictions = 0;
  };

  explicit PolicyCache(size_t capacity = 256) : cache_(capacity) {}

  PolicyCache(const PolicyCache&) = delete;
  PolicyCache& operator=(const PolicyCache&) = delete;

  /// Returns a copy of the cached result (copies are cheap next to a solve
  /// and let the caller use it without holding the lock), refreshing the
  /// entry's recency. std::nullopt on miss.
  std::optional<solver::SolveResult> Lookup(const util::Fingerprint& key);

  /// Inserts or overwrites the entry for `key`.
  void Insert(const util::Fingerprint& key, solver::SolveResult result);

  Stats stats() const;
  size_t size() const;
  size_t capacity() const;

  /// Streams every entry (oldest-first, so restore reproduces the LRU
  /// order), the hit/miss/insertion/eviction counters, and the capacity as
  /// a guard (a snapshot taken under one capacity must not be restored
  /// into a differently sized cache — recency-dependent eviction would
  /// diverge from the original process). Takes the cache lock.
  void StreamState(util::Serializer& s);

 private:
  mutable std::mutex mutex_;
  util::LruCache<util::Fingerprint, solver::SolveResult> cache_;
  Stats stats_;
};

}  // namespace auditgame::service

#endif  // AUDIT_GAME_SERVICE_POLICY_CACHE_H_
