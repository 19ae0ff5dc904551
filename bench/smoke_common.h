#ifndef AUDIT_GAME_BENCH_SMOKE_COMMON_H_
#define AUDIT_GAME_BENCH_SMOKE_COMMON_H_

// Shared scaffolding for the Google-Benchmark micro benches that also
// expose a --smoke_json=PATH mode: a quick self-contained comparison run
// that writes a BENCH_*.json report (the form CI runs and archives per
// PR). Keeping the dispatch and the report writer here means the smoke
// contract evolves in one place.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>

#include "bench/exit_codes.h"
#include "util/json.h"

namespace auditgame::bench {

// The CMake build type the bench was compiled with (bench/CMakeLists.txt).
#ifndef AUDIT_BUILD_TYPE
#define AUDIT_BUILD_TYPE "unknown"
#endif

/// The machine a report was measured on: CPU model, hardware threads and
/// build type. Timing fields are only comparable between equal blocks.
inline util::JsonValue::Object HostBlock() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        cpu = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  util::JsonValue::Object host;
  host["cpu"] = cpu;
  host["hardware_threads"] =
      static_cast<int>(std::thread::hardware_concurrency());
  host["build_type"] = std::string(AUDIT_BUILD_TYPE);
  return host;
}

/// Writes `report` (pretty-printed, with a "host" block) to `path`.
/// Returns kSmokeExitOk on success, kSmokeExitIoError on an unwritable
/// path.
inline int WriteSmokeReport(const std::string& path,
                            util::JsonValue::Object report) {
  report["host"] = HostBlock();
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return kSmokeExitIoError;
  }
  out << util::JsonValue(std::move(report)).Dump(2) << "\n";
  std::printf("wrote %s\n", path.c_str());
  return kSmokeExitOk;
}

/// main() body for a smoke-capable bench: dispatches --smoke_json=PATH to
/// `run_smoke(PATH)` and everything else to Google Benchmark.
template <typename RunSmoke>
int SmokeOrBenchmarkMain(int argc, char** argv, RunSmoke run_smoke) {
  const std::string smoke_prefix = "--smoke_json=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(smoke_prefix, 0) == 0) {
      return run_smoke(arg.substr(smoke_prefix.size()));
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace auditgame::bench

#endif  // AUDIT_GAME_BENCH_SMOKE_COMMON_H_
