// Figure 2 (+ Figure 6): unlearning efficiency of FATS versus FRS on the
// FEMNIST-like and Shakespeare-like profiles.
//
// Top row (sample-level): fix T, E, M, N and sweep K for each mini-batch
// size b; ρ_S = b·K·T/(M·N) grows with K, so the average unlearning time
// (time steps re-computed per request) grows towards the FRS anchor.
// Bottom row (client-level): sweep K for each federation size M;
// ρ_C = K·T/(E·M).
//
// Expected shape: every FATS line sits well below the flat FRS line (= T),
// rising with K; larger b / smaller M shift lines up. Each line ends at the
// largest K with ρ <= 1.

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "core/unlearning_service.h"
#include "util/flags.h"

namespace fats {
namespace {

DatasetProfile SweepProfile(const std::string& name) {
  DatasetProfile profile = ScaledProfile(name).value();
  // A flatter shape for the sweep: moderate rounds so each point is cheap.
  if (name == "femnist") {
    profile.clients_m = 60;
    profile.samples_per_client_n = 24;
    profile.rounds_r = 10;
    profile.local_iters_e = 4;
    profile.test_size = 160;
  } else {  // shakespeare
    profile.clients_m = 36;
    profile.samples_per_client_n = 30;
    profile.rounds_r = 6;
    profile.local_iters_e = 4;
    profile.test_size = 120;
  }
  return profile;
}

/// Mean unlearning time (time steps) over `trials` independent single
/// requests, retraining between requests so each one probes a fresh state.
double MeanUnlearningSteps(const DatasetProfile& profile,
                           const FatsConfig& base_config, bool client_level,
                           int trials, int64_t num_threads) {
  double total_steps = 0.0;
  for (int trial = 0; trial < trials; ++trial) {
    FederatedDataset data =
        BuildFederatedData(profile, 100 + static_cast<uint64_t>(trial));
    FatsConfig config = base_config;
    config.seed = 100 + static_cast<uint64_t>(trial);
    config.num_threads = num_threads;
    FatsTrainer trainer(profile.model, config, &data);
    trainer.Train();
    StreamId id;
    id.purpose = RngPurpose::kGeneric;
    id.iteration = static_cast<uint64_t>(trial);
    RngStream rng(55, id);
    const UnlearningRequest request =
        client_level
            ? UnlearningRequest{.kind = UnlearningRequest::Kind::kClient,
                                .client = PickRandomActiveClients(data, 1,
                                                                  &rng)[0],
                                .request_iter = config.total_iters_t()}
            : UnlearningRequest{.kind = UnlearningRequest::Kind::kSample,
                                .sample = PickRandomActiveSamples(data, 1,
                                                                  &rng)[0],
                                .request_iter = config.total_iters_t()};
    UnlearningService service(&trainer);
    total_steps += static_cast<double>(
        service.ExecuteStream({request}).value().recomputed_iterations);
  }
  return total_steps / trials;
}

}  // namespace
}  // namespace fats

int main(int argc, char** argv) {
  using namespace fats;  // NOLINT
  FlagParser flags;
  int64_t* trials = flags.AddInt("trials", 8, "trials per sweep point");
  int64_t* threads = flags.AddInt(
      "threads", 1,
      "worker threads for client updates (results are thread-count-"
      "invariant; only wall-clock changes)");
  Status status = flags.Parse(argc, argv);
  if (status.code() == StatusCode::kNotFound) return 0;
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  CsvWriter csv(&std::cout, "# CSV,");
  csv.WriteHeader({"dataset", "scenario", "sweep_param", "sweep_value", "k",
                   "rho", "method", "mean_unlearning_steps"});

  for (const std::string name : {"femnist", "shakespeare"}) {
    DatasetProfile profile = SweepProfile(name);
    const int64_t t_total = profile.total_iters_t();

    // ---- sample-level: lines per b, x-axis K ----
    bench::PrintHeader("Figure 2 (top) - " + name +
                       " sample-level: unlearning time vs K per b "
                       "(FRS anchor = " + std::to_string(t_total) + " steps)");
    for (int64_t b : {2, 4, 6}) {
      std::string line = StrFormat("  b=%lld:", static_cast<long long>(b));
      for (int64_t k = 1;; ++k) {
        FatsConfig config = bench::FatsConfigWithKB(profile, k, b, 1);
        if (config.rho_s > 1.0 || config.rho_c > 1.0 ||
            !config.Validate().ok()) {
          break;
        }
        const double steps = MeanUnlearningSteps(
            profile, config, /*client_level=*/false,
            static_cast<int>(*trials), *threads);
        line += StrFormat(" K=%lld:%.1f", static_cast<long long>(k), steps);
        csv.WriteRow({name, "sample", "b", std::to_string(b),
                      std::to_string(k), FormatDouble(config.rho_s, 4),
                      "FATS", FormatDouble(steps, 2)});
        csv.WriteRow({name, "sample", "b", std::to_string(b),
                      std::to_string(k), FormatDouble(config.rho_s, 4),
                      "FRS", std::to_string(t_total)});
      }
      std::printf("%s  | FRS: %lld\n", line.c_str(),
                  static_cast<long long>(t_total));
    }

    // ---- client-level: lines per M, x-axis K ----
    bench::PrintHeader("Figure 2 (bottom) - " + name +
                       " client-level: unlearning time vs K per M");
    for (int64_t m_scale : {1, 2, 3}) {
      DatasetProfile sized = profile;
      sized.clients_m = profile.clients_m * m_scale / 2 +
                        profile.clients_m / 2;  // 1x, 1.5x, 2x
      std::string line =
          StrFormat("  M=%lld:", static_cast<long long>(sized.clients_m));
      for (int64_t k = 1;; ++k) {
        FatsConfig config =
            bench::FatsConfigWithKB(sized, k, sized.batch_b, 1);
        if (config.rho_c > 1.0 || config.rho_s > 1.0 ||
            !config.Validate().ok()) {
          break;
        }
        const double steps = MeanUnlearningSteps(
            sized, config, /*client_level=*/true, static_cast<int>(*trials),
            *threads);
        line += StrFormat(" K=%lld:%.1f", static_cast<long long>(k), steps);
        csv.WriteRow({name, "client", "M", std::to_string(sized.clients_m),
                      std::to_string(k), FormatDouble(config.rho_c, 4),
                      "FATS", FormatDouble(steps, 2)});
        csv.WriteRow({name, "client", "M", std::to_string(sized.clients_m),
                      std::to_string(k), FormatDouble(config.rho_c, 4),
                      "FRS", std::to_string(t_total)});
      }
      std::printf("%s  | FRS: %lld\n", line.c_str(),
                  static_cast<long long>(t_total));
    }
  }
  return 0;
}
