// Scenario: operations. A federated training service checkpoints its
// algorithmic state every few rounds; the process is later restarted (spot
// instance reclaimed, deploy rollout) and must (a) resume training exactly
// where it left off and (b) keep serving *exact* unlearning requests
// against the pre-restart history — both of which need the full state
// store, not just the model weights.

#include <cstdio>

#include "core/unlearning_service.h"
#include "data/paper_configs.h"
#include "io/checkpoint.h"

using namespace fats;  // NOLINT: example brevity

int main() {
  DatasetProfile profile = ScaledProfile("mnist").value();
  profile.rounds_r = 12;
  FatsConfig config = FatsConfig::FromProfile(profile);
  config.seed = 2024;
  const std::string checkpoint_path = "/tmp/fats_demo.ckpt";

  // ---- process 1: train halfway, checkpoint, "crash" ----
  {
    FederatedDataset data = BuildFederatedData(profile, 1);
    FatsTrainer trainer(profile.model, config, &data);
    trainer.TrainUntil(6 * profile.local_iters_e);  // 6 of 12 rounds
    std::printf("process 1: trained %lld/%lld iterations, accuracy %.3f\n",
                static_cast<long long>(trainer.trained_through()),
                static_cast<long long>(config.total_iters_t()),
                trainer.EvaluateTestAccuracy());
    Status saved = SaveTrainerCheckpoint(&trainer, checkpoint_path);
    std::printf("process 1: checkpoint -> %s (%s)\n",
                checkpoint_path.c_str(), saved.ToString().c_str());
    if (!saved.ok()) return 1;
  }  // process dies here

  // ---- process 2: restore, serve a deletion request, finish training ----
  {
    // The clients re-materialize the same federated dataset (same profile,
    // seed, and deletion history); the checkpoint carries everything else.
    FederatedDataset data = BuildFederatedData(profile, 1);
    FatsTrainer trainer(profile.model, config, &data);
    Status loaded = LoadTrainerCheckpoint(checkpoint_path, &trainer);
    std::printf("\nprocess 2: restore (%s), resumed at iteration %lld, "
                "accuracy %.3f\n",
                loaded.ToString().c_str(),
                static_cast<long long>(trainer.trained_through()),
                trainer.EvaluateTestAccuracy());
    if (!loaded.ok()) return 1;

    // A user requests erasure of a record that was used before the restart.
    UnlearningService service(&trainer);
    const ServiceFlushStats stats =
        service
            .ExecuteStream({{.kind = UnlearningRequest::Kind::kSample,
                             .sample = {/*client=*/2, /*index=*/5},
                             .request_iter = trainer.trained_through()}})
            .value();
    std::printf("process 2: unlearn (client 2, sample 5): recomputed=%s "
                "(%lld iterations)\n",
                stats.triggered_requests > 0 ? "yes" : "no",
                static_cast<long long>(stats.recomputed_iterations));

    // Finish the remaining rounds on the reduced data.
    trainer.TrainUntil(config.total_iters_t());
    std::printf("process 2: training complete, final accuracy %.3f, %s\n",
                trainer.EvaluateTestAccuracy(),
                trainer.comm_stats().ToString().c_str());
  }

  std::printf("\nThe restored run is bit-identical to an uninterrupted one:"
              "\ncheckpoints carry the sampling history, so exactness "
              "survives restarts.\n");
  return 0;
}
