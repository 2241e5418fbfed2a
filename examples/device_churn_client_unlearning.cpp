// Scenario: a fleet of smartwatches trains a next-character keyboard model
// (the Shakespeare-like text workload). Devices churn: users opt out and
// their entire on-device history must be forgotten from the global model.
//
// This example drives FATS-CU through a sequence of device departures and
// reports, per departure, whether re-computation was needed, how many
// rounds it cost, and the exact communication bill - against the FRS
// worst case of a full retrain per departure.

#include <cstdio>

#include "core/fats_trainer.h"
#include "core/unlearning_service.h"
#include "data/paper_configs.h"

using namespace fats;  // NOLINT: example brevity

int main() {
  DatasetProfile profile = ScaledProfile("shakespeare").value();
  profile.clients_m = 40;
  profile.rounds_r = 8;
  profile.test_size = 200;
  std::printf("Keyboard-model fleet: %s\n\n", profile.ToString().c_str());

  FederatedDataset data = BuildFederatedData(profile, 3);
  FatsConfig config = FatsConfig::FromProfile(profile);
  if (!config.Validate().ok()) {
    // Keep the demo robust if the shrunken shape breaks feasibility.
    config.rho_c = 0.5;
    config.rho_s = 0.25;
  }
  config.seed = 11;
  FatsTrainer trainer(profile.model, config, &data);
  trainer.Train();
  std::printf("initial training: accuracy %.3f after %lld rounds, %s\n\n",
              trainer.EvaluateTestAccuracy(),
              static_cast<long long>(profile.rounds_r),
              trainer.comm_stats().ToString().c_str());

  const int64_t model_bytes = trainer.model()->NumParameters() * 4;
  const int64_t frs_rounds = profile.rounds_r;
  const int64_t frs_bytes_per_departure =
      2 * frs_rounds * trainer.K() * model_bytes;

  UnlearningService service(&trainer);
  int64_t total_fats_rounds = 0;
  std::printf("%8s %12s %10s %10s %14s\n", "device", "participated",
              "recompute", "rounds", "accuracy");
  const std::vector<int64_t> departures = {4, 11, 17, 23, 31};
  for (int64_t device : departures) {
    const int64_t comm_rounds_before = trainer.comm_stats().rounds();
    const bool participated =
        trainer.store().EarliestClientRound(device) >= 1;
    const ServiceFlushStats stats =
        service
            .ExecuteStream({{.kind = UnlearningRequest::Kind::kClient,
                             .client = device,
                             .request_iter = config.total_iters_t()}})
            .value();
    total_fats_rounds += stats.recomputed_rounds;
    std::printf("%8lld %12s %10s %10lld %14.3f\n",
                static_cast<long long>(device),
                participated ? "yes" : "no",
                stats.triggered_requests > 0 ? "yes" : "no",
                static_cast<long long>(stats.recomputed_rounds),
                trainer.EvaluateTestAccuracy());
    (void)comm_rounds_before;
  }

  std::printf("\n%zu departures handled.\n", departures.size());
  std::printf("FATS-CU re-computed %lld rounds total; FRS would have "
              "re-computed %lld.\n",
              static_cast<long long>(total_fats_rounds),
              static_cast<long long>(
                  frs_rounds * static_cast<int64_t>(departures.size())));
  std::printf("FRS communication per departure: %lld bytes; see the "
              "trainer's running total: %s\n",
              static_cast<long long>(frs_bytes_per_departure),
              trainer.comm_stats().ToString().c_str());
  std::printf("\nEach departure is exactly unlearned (Theorem 1): the "
              "global model is\ndistributed as if the device had never "
              "enrolled.\n");
  return 0;
}
