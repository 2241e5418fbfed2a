// Quickstart: train FATS on a small federated workload, delete one sample
// and one client, and watch the exact-unlearning machinery at work.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "core/fats_trainer.h"
#include "core/tv_stability.h"
#include "core/unlearning_service.h"
#include "data/paper_configs.h"

using namespace fats;  // NOLINT: example brevity

int main() {
  // 1. A federated workload: the scaled MNIST-like profile from DESIGN.md
  //    (60 clients x 40 samples, non-IID via a Dirichlet label partition).
  DatasetProfile profile = ScaledProfile("mnist").value();
  profile.rounds_r = 10;  // keep the demo quick
  FederatedDataset data = BuildFederatedData(profile, /*seed=*/1);
  std::printf("workload: %s\n", profile.ToString().c_str());
  std::printf("data:     %s\n", data.ToString().c_str());

  // 2. Configure FATS from TV-stability targets. K (clients per round) and
  //    b (mini-batch size) are derived from (rho_s, rho_c) per Algorithm 1.
  FatsConfig config = FatsConfig::FromProfile(profile);
  config.seed = 42;
  std::printf("config:   %s\n", config.ToString().c_str());
  std::printf("Lemma 1 bounds: sample-TV <= %.3f, client-TV <= %.3f\n",
              SampleLevelStabilityBound(config),
              ClientLevelStabilityBound(config));

  // 3. Train. The trainer records every sampling decision in its state
  //    store - that record is what makes exact unlearning cheap.
  FatsTrainer trainer(profile.model, config, &data);
  trainer.Train();
  std::printf("\ntrained %lld rounds, test accuracy %.3f, comm %s\n",
              static_cast<long long>(config.rounds_r),
              trainer.EvaluateTestAccuracy(),
              trainer.comm_stats().ToString().c_str());

  // 4. Sample-level unlearning (FATS-SU). Verification is an O(1) lookup;
  //    re-computation happens only if the sample ever hit a mini-batch.
  UnlearningService service(&trainer);
  FATS_CHECK_OK(service.Submit({.kind = UnlearningRequest::Kind::kSample,
                                .sample = {/*client=*/3, /*index=*/7},
                                .request_iter = config.total_iters_t()}));
  const ServiceFlushStats su = service.Flush().value();
  std::printf("\nFATS-SU on sample (client 3, index 7): recomputed=%s",
              su.triggered_requests > 0 ? "yes" : "no");
  if (su.triggered_requests > 0) {
    std::printf(" from iteration %lld (%lld of %lld iterations, %lld rounds)",
                static_cast<long long>(su.replay_start_iteration),
                static_cast<long long>(su.recomputed_iterations),
                static_cast<long long>(config.total_iters_t()),
                static_cast<long long>(su.recomputed_rounds));
  }
  std::printf("\n  accuracy after unlearning: %.3f\n",
              trainer.EvaluateTestAccuracy());

  // 5. Client-level unlearning (FATS-CU): a device exercises its right to
  //    be forgotten entirely.
  FATS_CHECK_OK(service.Submit({.kind = UnlearningRequest::Kind::kClient,
                                .client = 5,
                                .request_iter = config.total_iters_t()}));
  const ServiceFlushStats cu = service.Flush().value();
  std::printf("\nFATS-CU on client 5: recomputed=%s, rounds re-run=%lld\n",
              cu.triggered_requests > 0 ? "yes" : "no",
              static_cast<long long>(cu.recomputed_rounds));
  std::printf("  accuracy after unlearning: %.3f\n",
              trainer.EvaluateTestAccuracy());
  std::printf("  active clients: %lld of %lld\n",
              static_cast<long long>(data.num_active_clients()),
              static_cast<long long>(data.num_clients()));

  std::printf("\nBoth deletions are *exact*: the resulting model is "
              "distributed identically\nto one retrained from scratch "
              "without the deleted data (Theorem 1).\n");
  return 0;
}
