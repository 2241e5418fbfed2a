// Ablation (§5.3): time and space overheads of the unlearning machinery.
//
//   * Space: the StateStore (O(T·b + R·d) per device — it recomputes local
//     models instead of storing them — and O(R·max{K,d}) at the server)
//     versus the compact participation index (O(N+d) / O(M+d) bits+words)
//     across the scaled profiles.
//   * Time: the O(1) verification lookups (earliest-use dictionaries),
//     measured over millions of queries.
//   * Communication: bytes per training round and per re-computed round.

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "core/fats_trainer.h"
#include "util/flags.h"
#include "util/stopwatch.h"

namespace fats {
namespace {

int64_t CompactBytes(const FederatedDataset& data, int64_t model_params) {
  std::vector<int64_t> samples_per_client;
  for (int64_t k = 0; k < data.num_clients(); ++k) {
    samples_per_client.push_back(data.samples_of(k));
  }
  CompactParticipationIndex index(data.num_clients(), samples_per_client);
  // Plus one model copy per device and at the server (the §5.3.2 scheme).
  return index.ApproxBytes() + (data.num_clients() + 1) * model_params * 4;
}

}  // namespace
}  // namespace fats

int main(int argc, char** argv) {
  using namespace fats;  // NOLINT
  FlagParser flags;
  int64_t* lookups = flags.AddInt("lookups", 2000000,
                                  "verification lookups to time");
  Status status = flags.Parse(argc, argv);
  if (status.code() == StatusCode::kNotFound) return 0;
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  CsvWriter csv(&std::cout, "# CSV,");
  csv.WriteHeader({"profile", "model_params", "full_store_bytes",
                   "compact_bytes", "verify_ns_per_lookup",
                   "bytes_per_round"});

  bench::PrintHeader("Ablation: state-store space & verification time");
  std::printf("%-12s %10s %16s %14s %12s %14s\n", "profile", "params",
              "full store B", "compact B", "verify ns", "bytes/round");

  for (const std::string& name : ScaledProfileNames()) {
    DatasetProfile profile = ScaledProfile(name).value();
    profile = bench::ShrinkProfile(profile, 2);
    FederatedDataset data = BuildFederatedData(profile, 1);
    FatsConfig config = FatsConfig::FromProfile(profile);
    config.seed = 5;
    FatsTrainer trainer(profile.model, config, &data);
    trainer.Train();

    const int64_t model_params = trainer.model()->NumParameters();
    const int64_t full_bytes = trainer.store().ApproxBytes();
    const int64_t compact_bytes = CompactBytes(data, model_params);
    const int64_t bytes_per_round =
        trainer.comm_stats().total_bytes() / trainer.comm_stats().rounds();

    // Time the O(1) verification lookup.
    Stopwatch timer;
    int64_t hits = 0;
    for (int64_t i = 0; i < *lookups; ++i) {
      SampleRef ref{i % profile.clients_m,
                    i % profile.samples_per_client_n};
      hits += trainer.store().EarliestSampleUse(ref) >= 0 ? 1 : 0;
    }
    const double ns_per_lookup =
        timer.ElapsedSeconds() * 1e9 / static_cast<double>(*lookups);

    std::printf("%-12s %10lld %16lld %14lld %12.1f %14lld\n", name.c_str(),
                static_cast<long long>(model_params),
                static_cast<long long>(full_bytes),
                static_cast<long long>(compact_bytes), ns_per_lookup,
                static_cast<long long>(bytes_per_round));
    csv.WriteRow({name, std::to_string(model_params),
                  std::to_string(full_bytes), std::to_string(compact_bytes),
                  FormatDouble(ns_per_lookup, 1),
                  std::to_string(bytes_per_round)});
    if (hits < 0) std::printf("unreachable\n");  // keep `hits` live
  }

  std::printf(
      "\nThe store buys mid-stream re-computation (restart at t_S); the"
      "\ncompact index pays a full retrain on a hit and keeps participation "
      "bits plus\na model copy per device (same asymptotic unlearning time, "
      "Theorem 3).\n");
  return 0;
}
