// Ablation: empirical verification of Lemma 1 / Theorem 1's quantitative
// content — the Monte-Carlo re-computation frequency of FATS-SU / FATS-CU
// against the TV-stability bounds min{ρ_S,1}·w and min{ρ_C,1}·w.
//
// Expected shape: the observed frequency tracks the analytic participation
// probability and never exceeds the Lemma 1 bound (up to sampling error).

#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "core/tv_stability.h"
#include "core/unlearning_service.h"
#include "util/flags.h"

namespace fats {
namespace {

DatasetProfile SmallProfile() {
  DatasetProfile profile = ScaledProfile("mnist").value();
  profile.clients_m = 24;
  profile.samples_per_client_n = 16;
  profile.rounds_r = 4;
  profile.local_iters_e = 2;
  profile.test_size = 60;
  return profile;
}

}  // namespace
}  // namespace fats

int main(int argc, char** argv) {
  using namespace fats;  // NOLINT
  FlagParser flags;
  int64_t* trials = flags.AddInt("trials", 150, "Monte-Carlo trials");
  Status status = flags.Parse(argc, argv);
  if (status.code() == StatusCode::kNotFound) return 0;
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  DatasetProfile profile = SmallProfile();
  CsvWriter csv(&std::cout, "# CSV,");
  csv.WriteHeader({"level", "rho_target", "rho_effective",
                   "observed_recompute_freq", "lemma1_bound",
                   "theorem3_expected_steps", "observed_mean_steps"});

  bench::PrintHeader("Ablation: re-computation frequency vs Lemma 1 bound "
                     "(sample level)");
  for (double rho_s : {0.125, 0.25, 0.5, 1.0}) {
    int recomputes = 0;
    double steps = 0.0;
    double effective = 0.0;
    for (int64_t trial = 0; trial < *trials; ++trial) {
      FederatedDataset data =
          BuildFederatedData(profile, 60 + static_cast<uint64_t>(trial));
      FatsConfig config = FatsConfig::FromProfile(profile);
      config.rho_s = rho_s;
      config.rho_c = 0.5;
      config.seed = 60 + static_cast<uint64_t>(trial);
      FATS_CHECK_OK(config.Validate());
      effective = SampleLevelStabilityBound(config);
      FatsTrainer trainer(profile.model, config, &data);
      trainer.Train();
      StreamId id;
      id.purpose = RngPurpose::kGeneric;
      id.iteration = static_cast<uint64_t>(trial);
      RngStream rng(14, id);
      UnlearningService service(&trainer);
      const ServiceFlushStats stats =
          service
              .ExecuteStream(
                  {{.kind = UnlearningRequest::Kind::kSample,
                    .sample = PickRandomActiveSamples(data, 1, &rng)[0],
                    .request_iter = config.total_iters_t()}})
              .value();
      recomputes += static_cast<int>(stats.triggered_requests);
      steps += static_cast<double>(stats.recomputed_iterations);
    }
    const double freq = static_cast<double>(recomputes) / *trials;
    const double theory = ExpectedUnlearningTimeSteps(
        effective, 1, profile.total_iters_t());
    std::printf("  rho_s=%.3f (eff %.3f): observed freq %.3f <= bound %.3f"
                " | mean steps %.1f (Thm 3 bound %.1f)\n",
                rho_s, effective, freq, effective, steps / *trials, theory);
    csv.WriteRow({"sample", FormatDouble(rho_s, 3),
                  FormatDouble(effective, 3), FormatDouble(freq, 4),
                  FormatDouble(effective, 4), FormatDouble(theory, 1),
                  FormatDouble(steps / *trials, 1)});
  }

  bench::PrintHeader("Ablation: re-computation frequency vs Lemma 1 bound "
                     "(client level)");
  for (double rho_c : {0.25, 0.5, 0.75, 1.0}) {
    int recomputes = 0;
    double steps = 0.0;
    double effective = 0.0;
    for (int64_t trial = 0; trial < *trials; ++trial) {
      FederatedDataset data =
          BuildFederatedData(profile, 90 + static_cast<uint64_t>(trial));
      FatsConfig config = FatsConfig::FromProfile(profile);
      config.rho_s = 0.25;
      config.rho_c = rho_c;
      config.seed = 90 + static_cast<uint64_t>(trial);
      FATS_CHECK_OK(config.Validate());
      effective = ClientLevelStabilityBound(config);
      FatsTrainer trainer(profile.model, config, &data);
      trainer.Train();
      StreamId id;
      id.purpose = RngPurpose::kGeneric;
      id.iteration = static_cast<uint64_t>(trial);
      RngStream rng(15, id);
      UnlearningService service(&trainer);
      const ServiceFlushStats stats =
          service
              .ExecuteStream(
                  {{.kind = UnlearningRequest::Kind::kClient,
                    .client = PickRandomActiveClients(data, 1, &rng)[0],
                    .request_iter = config.total_iters_t()}})
              .value();
      recomputes += static_cast<int>(stats.triggered_requests);
      steps += static_cast<double>(stats.recomputed_iterations);
    }
    const double freq = static_cast<double>(recomputes) / *trials;
    const double theory = ExpectedUnlearningTimeSteps(
        effective, 1, profile.total_iters_t());
    std::printf("  rho_c=%.3f (eff %.3f): observed freq %.3f <= bound %.3f"
                " | mean steps %.1f (Thm 3 bound %.1f)\n",
                rho_c, effective, freq, effective, steps / *trials, theory);
    csv.WriteRow({"client", FormatDouble(rho_c, 3),
                  FormatDouble(effective, 3), FormatDouble(freq, 4),
                  FormatDouble(effective, 4), FormatDouble(theory, 1),
                  FormatDouble(steps / *trials, 1)});
  }
  return 0;
}
