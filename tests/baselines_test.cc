#include <gtest/gtest.h>

#include "baselines/fr2.h"
#include "baselines/frs.h"
#include "test_workloads.h"

namespace fats {
namespace {

FedAvgOptions SmallOptions() {
  FedAvgOptions options;
  options.clients_per_round_k = 2;
  options.local_iters_e = 3;
  options.batch_b = 4;
  options.learning_rate = 0.1;
  options.seed = 11;
  return options;
}

TEST(FrsTest, SampleUnlearnRetrainsFromScratch) {
  FederatedDataset data = TinyImageData(6, 12);
  FedAvgTrainer trainer(TinyModelSpec(), SmallOptions(), &data);
  trainer.RunRounds(8);
  const Tensor deployed = trainer.global_params();
  FrsUnlearner unlearner(&trainer, &data);
  Result<ServiceFlushStats> outcome =
      unlearner.UnlearnSamples({{0, 1}, {2, 5}}, /*retrain_rounds=*/8);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(outcome->triggered_requests, 0);
  EXPECT_EQ(outcome->recomputed_rounds, 8);
  EXPECT_FALSE(data.sample_active(0, 1));
  EXPECT_FALSE(data.sample_active(2, 5));
  // Retraining replaces the model (fresh init + fresh randomness).
  EXPECT_FALSE(trainer.global_params().BitwiseEquals(deployed));
  // Cost accounting: the full retrain is logged as re-computation rounds.
  EXPECT_EQ(trainer.log().TrailingRecomputationRounds(), 8);
}

TEST(FrsTest, ClientUnlearnRemovesClient) {
  FederatedDataset data = TinyImageData(6, 12);
  FedAvgTrainer trainer(TinyModelSpec(), SmallOptions(), &data);
  trainer.RunRounds(5);
  FrsUnlearner unlearner(&trainer, &data);
  Result<ServiceFlushStats> outcome =
      unlearner.UnlearnClients({3}, /*retrain_rounds=*/5);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(data.client_active(3));
  EXPECT_EQ(outcome->recomputed_rounds, 5);
}

TEST(FrsTest, RetrainedModelRecoversUtility) {
  FederatedDataset data = TinyImageData(8, 12);
  FedAvgTrainer trainer(TinyModelSpec(), SmallOptions(), &data);
  trainer.RunRounds(12);
  FrsUnlearner unlearner(&trainer, &data);
  ASSERT_TRUE(unlearner.UnlearnSamples({{0, 0}}, 12).ok());
  EXPECT_GT(trainer.EvaluateTestAccuracy(), 0.75);
}

TEST(FrsTest, InvalidTargetPropagatesError) {
  FederatedDataset data = TinyImageData(4, 8);
  FedAvgTrainer trainer(TinyModelSpec(), SmallOptions(), &data);
  trainer.RunRounds(2);
  FrsUnlearner unlearner(&trainer, &data);
  EXPECT_FALSE(unlearner.UnlearnSamples({{0, 99}}, 2).ok());
  EXPECT_FALSE(unlearner.UnlearnClients({99}, 2).ok());
}

TEST(Fr2Test, RecoveryRunsConfiguredRounds) {
  FederatedDataset data = TinyImageData(6, 12);
  FedAvgTrainer trainer(TinyModelSpec(), SmallOptions(), &data);
  trainer.RunRounds(8);
  Fr2Options options;
  options.recovery_rounds = 3;
  Fr2Unlearner unlearner(&trainer, &data, options);
  Result<ServiceFlushStats> outcome = unlearner.UnlearnSamples({{1, 2}});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->recomputed_rounds, 3);
  EXPECT_FALSE(data.sample_active(1, 2));
  EXPECT_EQ(trainer.log().TrailingRecomputationRounds(), 3);
}

TEST(Fr2Test, ContinuesFromDeployedModelNotScratch) {
  FederatedDataset data = TinyImageData(8, 12);
  FedAvgTrainer trainer(TinyModelSpec(), SmallOptions(), &data);
  trainer.RunRounds(12);
  const double acc_deployed = trainer.EvaluateTestAccuracy();
  Fr2Options options;
  options.recovery_rounds = 2;
  Fr2Unlearner unlearner(&trainer, &data, options);
  ASSERT_TRUE(unlearner.UnlearnSamples({{0, 0}}).ok());
  // Rapid retraining keeps most of the deployed utility (that is its selling
  // point versus FRS).
  EXPECT_GT(trainer.EvaluateTestAccuracy(), acc_deployed - 0.3);
}

TEST(Fr2Test, ClientUnlearnRemovesClient) {
  FederatedDataset data = TinyImageData(6, 12);
  FedAvgTrainer trainer(TinyModelSpec(), SmallOptions(), &data);
  trainer.RunRounds(4);
  Fr2Options options;
  options.recovery_rounds = 2;
  Fr2Unlearner unlearner(&trainer, &data, options);
  ASSERT_TRUE(unlearner.UnlearnClients({1}).ok());
  EXPECT_FALSE(data.client_active(1));
}

TEST(Fr2Test, IsCheaperThanFrsInRounds) {
  // The whole point of FR²: recovery_rounds << full retraining rounds.
  FederatedDataset data_frs = TinyImageData(6, 12);
  FederatedDataset data_fr2 = TinyImageData(6, 12);
  FedAvgTrainer frs_trainer(TinyModelSpec(), SmallOptions(), &data_frs);
  FedAvgTrainer fr2_trainer(TinyModelSpec(), SmallOptions(), &data_fr2);
  frs_trainer.RunRounds(10);
  fr2_trainer.RunRounds(10);
  FrsUnlearner frs(&frs_trainer, &data_frs);
  Fr2Options options;
  options.recovery_rounds = 2;
  Fr2Unlearner fr2(&fr2_trainer, &data_fr2, options);
  ServiceFlushStats frs_outcome = frs.UnlearnSamples({{0, 0}}, 10).value();
  ServiceFlushStats fr2_outcome = fr2.UnlearnSamples({{0, 0}}).value();
  EXPECT_LT(fr2_outcome.recomputed_rounds, frs_outcome.recomputed_rounds);
}

TEST(Fr2Test, PreconditionedStepChangesModel) {
  FederatedDataset data = TinyImageData(6, 12);
  FedAvgTrainer trainer(TinyModelSpec(), SmallOptions(), &data);
  trainer.RunRounds(3);
  const Tensor before = trainer.global_params();
  Fr2Options options;
  options.recovery_rounds = 1;
  Fr2Unlearner unlearner(&trainer, &data, options);
  ASSERT_TRUE(unlearner.UnlearnSamples({{0, 0}}).ok());
  EXPECT_FALSE(trainer.global_params().BitwiseEquals(before));
}

}  // namespace
}  // namespace fats
