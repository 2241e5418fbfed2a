// Million-client FATS: train on M = 1,000,000 clients with bounded memory.
//
// The flat in-memory layout would need the whole federation resident —
// every client's shard up front and every history record in std::maps.
// This example runs the same Algorithm 1 schedule through the state layer
// instead (DESIGN.md §7.8):
//
//   * the dataset is lazy: a client's shard is generated (deterministically,
//     bitwise-equal to the eager build) the first time the sampler touches
//     it, and only a small LRU of shards stays resident — memory follows
//     K·R clients touched, not M;
//   * the state store tiers history into compressed blocks and spills cold
//     ones to CRC-framed segment files under --spill-dir;
//   * aggregation is the sharded deterministic tree, so the run is
//     bit-identical at any --threads.
//
// The peak RSS (VmHWM) is checked against --rss-cap-mb, making this binary
// the acceptance gate for the bounded-memory claim: a ctest invocation
// (memory_smoke_million_client) runs it under a hard ulimit as well.
//
// Build & run:
//   cmake --preset release && cmake --build --preset release
//   ./build-release/examples/million_client_fats
//
// A full million-client run finishes in a few minutes; pass
// --clients=100000 for a quick look.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "core/fats_trainer.h"
#include "core/unlearning_service.h"
#include "data/paper_configs.h"
#include "util/flags.h"

using namespace fats;  // NOLINT: example brevity

namespace {

// Peak resident set size in MiB from /proc/self/status (Linux).
double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return -1.0;
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(status);
  return kb < 0 ? -1.0 : static_cast<double>(kb) / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  int64_t* clients = flags.AddInt("clients", 1000000, "federation size M");
  int64_t* rounds = flags.AddInt("rounds", 3, "training rounds R");
  int64_t* threads = flags.AddInt("threads", 1, "worker threads");
  int64_t* rss_cap_mb = flags.AddInt(
      "rss-cap-mb", 512,
      "fail (exit 1) if peak RSS exceeds this many MiB; 0 disables");
  std::string* spill_dir = flags.AddString(
      "spill-dir", "", "segment spill directory (default: under /tmp)");
  Status parsed = flags.Parse(argc, argv);
  if (parsed.code() == StatusCode::kNotFound) return 0;  // --help
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }

  // The workload: an MNIST-like profile stretched to M clients of N=8
  // samples, K=32 per round, E=2 local iterations, batch b=4. The
  // stability targets are back-derived so DeriveK()/DeriveB() reproduce
  // exactly these integers (ρ_C = K·T/(E·M), ρ_S = b·K·T/(M·N)).
  DatasetProfile profile = ScaledProfile("mnist").value();
  profile.clients_m = *clients;
  profile.samples_per_client_n = 8;
  profile.clients_per_round_k = 32;
  profile.rounds_r = *rounds;
  profile.local_iters_e = 2;
  profile.batch_b = 4;
  profile.test_size = 64;

  std::printf("workload: M=%lld clients, K=%lld per round, R=%lld rounds "
              "(rho_c=%.2e, rho_s=%.2e)\n",
              static_cast<long long>(profile.clients_m),
              static_cast<long long>(profile.clients_per_round_k),
              static_cast<long long>(profile.rounds_r), profile.rho_c(),
              profile.rho_s());

  // Lazy dataset: nothing is generated yet; shards materialize as sampled.
  LazyDatasetOptions lazy_options;
  lazy_options.shard_cache_capacity = 64;
  FederatedDataset data = BuildLazyFederatedData(profile, /*seed=*/1,
                                                 lazy_options);

  const std::string segs =
      spill_dir->empty()
          ? (std::filesystem::temp_directory_path() / "fats_million_segs")
                .string()
          : *spill_dir;
  std::filesystem::remove_all(segs);

  FatsConfig config = FatsConfig::FromProfile(profile);
  config.seed = 42;
  config.num_threads = *threads;
  config.state_spill_dir = segs;
  config.state_block_iters = 1;
  config.state_resident_sealed_blocks = 1;
  config.state_decoded_cache_blocks = 4;

  FatsTrainer trainer(profile.model, config, &data);
  trainer.Train();

  std::printf("\ntrained %lld rounds: test accuracy %.3f\n",
              static_cast<long long>(profile.rounds_r),
              trainer.EvaluateTestAccuracy());
  std::printf("shards materialized: %lld resident (of %lld clients, %lld "
              "generations)\n",
              static_cast<long long>(data.materialized_shards()),
              static_cast<long long>(data.num_clients()),
              static_cast<long long>(data.shard_generations()));
  std::printf("state store: %.2f MiB resident, %.2f KiB spilled to %s\n",
              static_cast<double>(trainer.store().ApproxBytes()) /
                  (1024.0 * 1024.0),
              static_cast<double>(trainer.store().SpilledBytes()) / 1024.0,
              segs.c_str());

  // Exact unlearning still works at this scale: pick a sample a recorded
  // mini-batch actually used, delete it, replay.
  SampleRef target{-1, -1};
  for (const auto& [iter, client] : trainer.store().MinibatchKeys()) {
    const std::vector<int64_t>* batch = trainer.store().GetMinibatch(iter,
                                                                     client);
    if (batch != nullptr && !batch->empty()) {
      target = {client, batch->front()};
      break;
    }
  }
  if (target.client >= 0) {
    UnlearningService service(&trainer);
    Result<ServiceFlushStats> stats =
        service.ExecuteStream({{.kind = UnlearningRequest::Kind::kSample,
                                .sample = target,
                                .request_iter = config.total_iters_t()}});
    if (!stats.ok()) {
      std::fprintf(stderr, "unlearning failed: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    std::printf("\nFATS-SU on (client %lld, sample %lld): recomputed=%s, "
                "%lld of %lld iterations replayed\n",
                static_cast<long long>(target.client),
                static_cast<long long>(target.index),
                stats->triggered_requests > 0 ? "yes" : "no",
                static_cast<long long>(stats->recomputed_iterations),
                static_cast<long long>(config.total_iters_t()));
  }

  std::filesystem::remove_all(segs);

  const double peak_mb = PeakRssMb();
  std::printf("\npeak RSS: %.1f MiB (cap: %lld MiB)\n", peak_mb,
              static_cast<long long>(*rss_cap_mb));
  if (*rss_cap_mb > 0 && peak_mb > static_cast<double>(*rss_cap_mb)) {
    std::fprintf(stderr,
                 "FAIL: peak RSS %.1f MiB exceeds the %lld MiB cap — the "
                 "bounded-memory contract of the state layer is broken\n",
                 peak_mb, static_cast<long long>(*rss_cap_mb));
    return 1;
  }
  std::printf("OK: memory stayed bounded; the federation never lived in "
              "RAM at once.\n");
  return 0;
}
