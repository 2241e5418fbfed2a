// Shared helpers for the paper-reproduction bench harness.
//
// Every bench prints a human-readable table to stdout plus machine-readable
// CSV rows prefixed with "# CSV," so results survive interleaving. The
// google-benchmark binaries share one main body, RunBenchmarks().

#ifndef FATS_BENCH_BENCH_UTIL_H_
#define FATS_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "core/fats_config.h"
#include "core/fats_trainer.h"
#include "data/paper_configs.h"
#include "fl/fedavg.h"
#include "util/csv_writer.h"
#include "util/string_util.h"

namespace fats {
namespace bench {

/// Scales a profile down by `shrink` (>=1) so sweeps finish on one core:
/// fewer clients and rounds, same ratios where feasible.
inline DatasetProfile ShrinkProfile(DatasetProfile profile, int64_t shrink) {
  if (shrink <= 1) return profile;
  profile.clients_m = std::max<int64_t>(profile.clients_per_round_k * 2,
                                        profile.clients_m / shrink);
  profile.rounds_r = std::max<int64_t>(3, profile.rounds_r / shrink);
  profile.test_size = std::max<int64_t>(100, profile.test_size / shrink);
  return profile;
}

/// FedAvg options matching a profile (used for the FRS / FR² baselines).
inline FedAvgOptions FedAvgOptionsFromProfile(const DatasetProfile& profile,
                                              uint64_t seed) {
  FedAvgOptions options;
  options.clients_per_round_k = profile.clients_per_round_k;
  options.local_iters_e = profile.local_iters_e;
  options.batch_b = profile.batch_b;
  options.learning_rate = profile.learning_rate;
  options.seed = seed;
  return options;
}

/// FatsConfig from a profile with explicit (K, b) overrides — used by the
/// K/b sweeps of Figures 2-4. The stability targets are back-derived so the
/// trainer runs with exactly these integers.
inline FatsConfig FatsConfigWithKB(const DatasetProfile& profile, int64_t k,
                                   int64_t b, uint64_t seed) {
  FatsConfig config = FatsConfig::FromProfile(profile);
  const double t = static_cast<double>(config.total_iters_t());
  config.rho_c = static_cast<double>(k) * t /
                 (static_cast<double>(config.local_iters_e) *
                  config.clients_m);
  config.rho_s = static_cast<double>(b) * k * t /
                 (static_cast<double>(config.clients_m) *
                  config.samples_per_client_n);
  config.seed = seed;
  return config;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Prints the full-scale Table 2 for reference.
inline void PrintPaperTable2() {
  PrintHeader("Paper Table 2 (full-scale reference; benches run the scaled "
              "profiles below)");
  for (const DatasetProfile& p : PaperTable2Profiles()) {
    std::printf("  %s\n", p.ToString().c_str());
  }
  PrintHeader("Scaled profiles used by this harness");
  for (const std::string& name : ScaledProfileNames()) {
    std::printf("  %s\n", ScaledProfile(name).value().ToString().c_str());
  }
}

/// The main body of a google-benchmark binary, used instead of
/// BENCHMARK_MAIN() so the run context records this binary's own build type
/// as "fats_build_type": bench_check refuses baselines from debug builds,
/// and the library_build_type fallback reports the benchmark *library's*
/// build, not ours.
inline int RunBenchmarks(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("fats_build_type", "release");
#else
  benchmark::AddCustomContext("fats_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace bench
}  // namespace fats

#endif  // FATS_BENCH_BENCH_UTIL_H_
