// End-to-end integration: the full §6 pipeline (train FATS + baselines,
// issue unlearning requests, compare costs) on a reduced scaled profile.

#include <gtest/gtest.h>

#include "baselines/fr2.h"
#include "baselines/frs.h"
#include "core/unlearning_service.h"
#include "data/paper_configs.h"
#include "metrics/unlearning_metrics.h"

namespace fats {
namespace {

DatasetProfile ReducedProfile() {
  DatasetProfile profile = ScaledProfile("mnist").value();
  // Shrink for test runtime while keeping ρ values: M=20, K=2, R=5, E=5
  // -> ρ_C = 2·25/(5·20) = 0.5 ; b=4, N=40 -> ρ_S = 4·2·25/(20·40) = 0.25.
  profile.clients_m = 20;
  profile.rounds_r = 5;
  profile.test_size = 120;
  return profile;
}

TEST(IntegrationTest, FullFatsPipelineSampleLevel) {
  DatasetProfile profile = ReducedProfile();
  FederatedDataset data = BuildFederatedData(profile, 1);
  FatsConfig config = FatsConfig::FromProfile(profile);
  config.seed = 21;
  FatsTrainer trainer(profile.model, config, &data);
  trainer.Train();
  const double acc = trainer.EvaluateTestAccuracy();
  EXPECT_GT(acc, 0.3) << "model failed to learn the scaled task";

  const size_t pre_request_records = trainer.log().records().size();
  FillRoundAccuracy(&trainer, 0, pre_request_records);
  EXPECT_EQ(trainer.log().LastAccuracy(), acc);
  StreamId id;
  id.purpose = RngPurpose::kGeneric;
  RngStream rng(5, id);
  std::vector<UnlearningRequest> requests;
  for (const SampleRef& target : PickRandomActiveSamples(data, 5, &rng)) {
    requests.push_back({.kind = UnlearningRequest::Kind::kSample,
                        .sample = target,
                        .request_iter = config.total_iters_t()});
  }
  UnlearningService service(&trainer);
  const ServiceFlushStats stats = service.ExecuteStream(requests).value();
  EXPECT_EQ(stats.requests, 5);
  // FATS re-computation, when triggered, is at most a full retrain.
  EXPECT_LE(stats.replayed_rounds, profile.rounds_r);
  FillRoundAccuracy(&trainer, pre_request_records,
                    trainer.log().records().size());
  RecoveryMetrics recovery =
      AnalyzeRecovery(trainer.log(), pre_request_records);
  EXPECT_LT(recovery.accuracy_drop, 0.6);
}

TEST(IntegrationTest, FatsBeatsFrsOnUnlearningCost) {
  DatasetProfile profile = ReducedProfile();
  // --- FATS ---
  FederatedDataset fats_data = BuildFederatedData(profile, 1);
  FatsConfig config = FatsConfig::FromProfile(profile);
  config.seed = 22;
  FatsTrainer fats(profile.model, config, &fats_data);
  fats.Train();
  StreamId id;
  id.purpose = RngPurpose::kGeneric;
  RngStream rng(6, id);
  std::vector<int64_t> targets = PickRandomActiveClients(fats_data, 2, &rng);
  std::vector<UnlearningRequest> requests;
  for (int64_t target : targets) {
    requests.push_back({.kind = UnlearningRequest::Kind::kClient,
                        .client = target,
                        .request_iter = config.total_iters_t()});
  }
  UnlearningService service(&fats);
  const ServiceFlushStats fats_cost = service.ExecuteStream(requests).value();

  // --- FRS on the same workload ---
  FederatedDataset frs_data = BuildFederatedData(profile, 1);
  FedAvgOptions options;
  options.clients_per_round_k = profile.clients_per_round_k;
  options.local_iters_e = profile.local_iters_e;
  options.batch_b = profile.batch_b;
  options.learning_rate = profile.learning_rate;
  options.seed = 22;
  FedAvgTrainer fedavg(profile.model, options, &frs_data);
  fedavg.RunRounds(profile.rounds_r);
  FrsUnlearner frs(&fedavg, &frs_data);
  const ServiceFlushStats frs_cost =
      frs.UnlearnClients(targets, profile.rounds_r).value();

  // FRS always pays the full R rounds; FATS pays at most that and usually
  // less (≤ because the earliest participation may be round 1).
  EXPECT_EQ(frs_cost.replayed_rounds, profile.rounds_r);
  EXPECT_LE(fats_cost.replayed_rounds, frs_cost.replayed_rounds);
}

TEST(IntegrationTest, Fr2PipelineRuns) {
  DatasetProfile profile = ReducedProfile();
  FederatedDataset data = BuildFederatedData(profile, 1);
  FedAvgOptions options;
  options.clients_per_round_k = profile.clients_per_round_k;
  options.local_iters_e = profile.local_iters_e;
  options.batch_b = profile.batch_b;
  options.learning_rate = profile.learning_rate;
  options.seed = 23;
  FedAvgTrainer trainer(profile.model, options, &data);
  trainer.RunRounds(profile.rounds_r);
  Fr2Options fr2_options;
  fr2_options.recovery_rounds = 2;
  Fr2Unlearner fr2(&trainer, &data, fr2_options);
  const ServiceFlushStats stats = fr2.UnlearnSamples({{0, 0}, {1, 1}}).value();
  EXPECT_EQ(stats.recomputed_rounds, 2);
  EXPECT_EQ(stats.replayed_rounds, 2);
  EXPECT_EQ(stats.replay_start_iteration, -1);
  EXPECT_GT(trainer.EvaluateTestAccuracy(), 0.1);
}

TEST(IntegrationTest, WholePipelineIsDeterministic) {
  DatasetProfile profile = ReducedProfile();
  auto run_pipeline = [&profile]() {
    FederatedDataset data = BuildFederatedData(profile, 9);
    FatsConfig config = FatsConfig::FromProfile(profile);
    config.seed = 31;
    FatsTrainer trainer(profile.model, config, &data);
    trainer.Train();
    UnlearningService service(&trainer);
    // Deterministic target.
    EXPECT_TRUE(service
                    .ExecuteStream({{.kind = UnlearningRequest::Kind::kSample,
                                     .sample = {0, 0},
                                     .request_iter = config.total_iters_t()}})
                    .ok());
    return trainer.global_params();
  };
  Tensor a = run_pipeline();
  Tensor b = run_pipeline();
  EXPECT_TRUE(a.BitwiseEquals(b));
}

TEST(IntegrationTest, TextProfileEndToEnd) {
  DatasetProfile profile = ScaledProfile("shakespeare").value();
  profile.clients_m = 12;
  profile.samples_per_client_n = 20;
  profile.rounds_r = 3;
  profile.local_iters_e = 4;
  profile.test_size = 80;
  FederatedDataset data = BuildFederatedData(profile, 2);
  FatsConfig config = FatsConfig::FromProfile(profile);
  if (!config.Validate().ok()) {
    config.rho_c = 0.5;
    config.rho_s = 0.25;
  }
  ASSERT_TRUE(config.Validate().ok());
  FatsTrainer trainer(profile.model, config, &data);
  trainer.Train();
  EXPECT_EQ(trainer.log().records().size(),
            static_cast<size_t>(profile.rounds_r));
  UnlearningService service(&trainer);
  EXPECT_TRUE(service
                  .ExecuteStream({{.kind = UnlearningRequest::Kind::kClient,
                                   .client = 0,
                                   .request_iter = config.total_iters_t()}})
                  .ok());
  EXPECT_FALSE(data.client_active(0));
}

}  // namespace
}  // namespace fats
