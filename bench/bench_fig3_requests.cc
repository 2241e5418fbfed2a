// Figure 3: impact of the number of unlearning requests on unlearning
// efficiency (client-level), FEMNIST-like and Shakespeare-like profiles.
//
// For K in {2,...,10} (each K implies a different ρ_C) and request counts
// w = 1..10, issue w sequential client deletions and measure the total
// unlearning time in time steps. FRS pays w full retrains.
//
// Expected shape: time grows with w at fixed ρ_C, grows with ρ_C at fixed
// w, and stays below FRS for suitable K — matching Theorem 3's
// O(max{min(ρ_C,1)·w·T, w}).

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "core/tv_stability.h"
#include "core/unlearning_service.h"
#include "util/flags.h"

namespace fats {
namespace {

DatasetProfile SweepProfile(const std::string& name) {
  DatasetProfile profile = ScaledProfile(name).value();
  if (name == "femnist") {
    profile.clients_m = 100;
    profile.samples_per_client_n = 20;
    profile.rounds_r = 8;
    profile.local_iters_e = 2;
    profile.test_size = 160;
  } else {
    profile.clients_m = 60;
    profile.samples_per_client_n = 24;
    profile.rounds_r = 5;
    profile.local_iters_e = 3;
    profile.test_size = 120;
  }
  return profile;
}

}  // namespace
}  // namespace fats

int main(int argc, char** argv) {
  using namespace fats;  // NOLINT
  FlagParser flags;
  int64_t* trials = flags.AddInt("trials", 3, "trials per (K, w) point");
  int64_t* max_requests = flags.AddInt("max_requests", 10,
                                       "largest request count w");
  Status status = flags.Parse(argc, argv);
  if (status.code() == StatusCode::kNotFound) return 0;
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  CsvWriter csv(&std::cout, "# CSV,");
  csv.WriteHeader({"dataset", "k", "rho_c", "requests_w", "method",
                   "mean_total_unlearning_steps", "mean_replayed_steps",
                   "theory_bound_steps"});

  for (const std::string name : {"femnist", "shakespeare"}) {
    DatasetProfile profile = SweepProfile(name);
    const int64_t t_total = profile.total_iters_t();
    bench::PrintHeader("Figure 3 - " + name +
                       " client-level unlearning time vs #requests "
                       "(T = " + std::to_string(t_total) + ")");
    for (int64_t k : {2, 4, 6, 8, 10}) {
      FatsConfig base =
          bench::FatsConfigWithKB(profile, k, profile.batch_b, 1);
      if (base.rho_c > 1.0 || base.rho_s > 1.0 || !base.Validate().ok()) {
        std::printf("  K=%lld infeasible (rho_c=%.2f rho_s=%.2f), skipped\n",
                    static_cast<long long>(k), base.rho_c, base.rho_s);
        continue;
      }
      std::string line = StrFormat("  K=%lld (rho_c=%.2f):",
                                   static_cast<long long>(k), base.rho_c);
      for (int64_t w = 1; w <= *max_requests; ++w) {
        double total_steps = 0.0;
        double replayed_steps = 0.0;
        for (int trial = 0; trial < *trials; ++trial) {
          FederatedDataset data = BuildFederatedData(
              profile, 10 + static_cast<uint64_t>(trial));
          FatsConfig config = base;
          config.seed = 10 + static_cast<uint64_t>(trial);
          FatsTrainer trainer(profile.model, config, &data);
          trainer.Train();
          StreamId id;
          id.purpose = RngPurpose::kGeneric;
          id.iteration = static_cast<uint64_t>(trial * 100 + w);
          RngStream rng(77, id);
          std::vector<int64_t> targets =
              PickRandomActiveClients(data, w, &rng);
          std::vector<UnlearningRequest> stream;
          for (int64_t target : targets) {
            stream.push_back({.kind = UnlearningRequest::Kind::kClient,
                              .client = target,
                              .request_iter = config.total_iters_t()});
          }
          // Window 1: the requests arrive one at a time (Figure 3).
          UnlearningService service(&trainer);
          const ServiceFlushStats stats =
              service.ExecuteStream(stream, /*coalesce_window=*/1).value();
          // Triggered work (Theorem 3's quantity) and replayed work (what the
          // machine actually recomputed, including untriggered rewrites) are
          // tracked separately; reporting only the former under-counted w.
          total_steps += static_cast<double>(stats.recomputed_iterations);
          replayed_steps += static_cast<double>(stats.replayed_iterations);
        }
        const double mean_steps = total_steps / *trials;
        const double mean_replayed = replayed_steps / *trials;
        const double theory =
            ExpectedUnlearningTimeSteps(base.EffectiveRhoC(), w, t_total);
        line += StrFormat(" w=%lld:%.0f", static_cast<long long>(w),
                          mean_steps);
        csv.WriteRow({name, std::to_string(k),
                      FormatDouble(base.EffectiveRhoC(), 3),
                      std::to_string(w), "FATS", FormatDouble(mean_steps, 1),
                      FormatDouble(mean_replayed, 1),
                      FormatDouble(theory, 1)});
        csv.WriteRow({name, std::to_string(k),
                      FormatDouble(base.EffectiveRhoC(), 3),
                      std::to_string(w), "FRS",
                      std::to_string(w * t_total),
                      std::to_string(w * t_total),
                      std::to_string(w * t_total)});
      }
      std::printf("%s  | FRS: w*%lld\n", line.c_str(),
                  static_cast<long long>(t_total));
    }
  }
  return 0;
}
