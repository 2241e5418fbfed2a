// Edge-case coverage across the trainer / unlearning stack.

#include <gtest/gtest.h>

#include "core/unlearning_service.h"
#include "test_workloads.h"

namespace fats {
namespace {

using Kind = UnlearningRequest::Kind;

TEST(EdgeCaseTest, SingleIterationRounds) {
  // E = 1: every iteration is a full round.
  FederatedDataset data = TinyImageData(6, 8);
  FatsConfig config = TinyFatsConfig(6, 8, /*rounds=*/6, /*e=*/1, 0.5, 0.5);
  ASSERT_TRUE(config.Validate().ok());
  FatsTrainer trainer(TinyModelSpec(), config, &data);
  trainer.Train();
  EXPECT_EQ(trainer.log().records().size(), 6u);
}

TEST(EdgeCaseTest, SingleRoundTraining) {
  FederatedDataset data = TinyImageData(6, 8);
  FatsConfig config = TinyFatsConfig(6, 8, /*rounds=*/1, /*e=*/4, 0.5, 0.5);
  ASSERT_TRUE(config.Validate().ok());
  FatsTrainer trainer(TinyModelSpec(), config, &data);
  trainer.Train();
  EXPECT_EQ(trainer.log().records().size(), 1u);
  EXPECT_NE(trainer.store().GetGlobalModel(1), nullptr);
}

TEST(EdgeCaseTest, FullBatchTraining) {
  // rho_s chosen so b = N (full local batches; no batch randomness).
  FederatedDataset data = TinyImageData(4, 6);
  FatsConfig config = TinyFatsConfig(4, 6, 3, 2, /*rho_s=*/10.0,
                                     /*rho_c=*/1.0);
  EXPECT_EQ(config.DeriveB(), 6);
  FatsTrainer trainer(TinyModelSpec(), config, &data);
  trainer.Train();
  // Every sample of every selected client participates -> unlearning any
  // sample of a participant triggers re-computation.
  const std::vector<int64_t>* selection =
      trainer.store().GetClientSelection(1);
  ASSERT_NE(selection, nullptr);
  SampleRef target{(*selection)[0], 0};
  EXPECT_EQ(trainer.store().EarliestSampleUse(target), 1);
}

TEST(EdgeCaseTest, UnlearnShrinksBelowBatchSize) {
  // After deletions a client can hold fewer than b samples; FATS clamps the
  // batch to the active count instead of failing.
  FederatedDataset data = TinyImageData(4, 4);
  FatsConfig config = TinyFatsConfig(4, 4, 3, 2, /*rho_s=*/6.0,
                                     /*rho_c=*/1.0);
  EXPECT_EQ(config.DeriveB(), 4);
  FatsTrainer trainer(TinyModelSpec(), config, &data);
  trainer.Train();
  UnlearningService service(&trainer);
  // Delete three of client 0's four samples, one at a time.
  for (int64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(service
                    .ExecuteStream({{.kind = Kind::kSample,
                                     .sample = {0, i},
                                     .request_iter = config.total_iters_t()}})
                    .ok())
        << "deletion " << i;
  }
  EXPECT_EQ(data.num_active_samples(0), 1);
  // Recorded batches for client 0 reference only active samples.
  for (int64_t t = 1; t <= config.total_iters_t(); ++t) {
    const std::vector<int64_t>* batch = trainer.store().GetMinibatch(t, 0);
    if (batch == nullptr) continue;
    for (int64_t index : *batch) {
      EXPECT_TRUE(data.sample_active(0, index));
    }
  }
}

TEST(EdgeCaseTest, UnlearnClientsUntilKExceedsActive) {
  // With-replacement client sampling keeps working when the active
  // federation shrinks below K.
  FederatedDataset data = TinyImageData(4, 8);
  FatsConfig config = TinyFatsConfig(4, 8, 3, 2, 0.5, /*rho_c=*/2.0);
  const int64_t k = config.DeriveK();
  ASSERT_GE(k, 2);
  FatsTrainer trainer(TinyModelSpec(), config, &data);
  trainer.Train();
  const int64_t t = config.total_iters_t();
  UnlearningService service(&trainer);
  ASSERT_TRUE(service
                  .ExecuteStream(
                      {{.kind = Kind::kClient, .client = 0, .request_iter = t},
                       {.kind = Kind::kClient, .client = 1, .request_iter = t},
                       {.kind = Kind::kClient, .client = 2, .request_iter = t}},
                      /*coalesce_window=*/1)
                  .ok());
  EXPECT_EQ(data.num_active_clients(), 1);
  // The recomputed history only references the surviving client.
  for (int64_t r = 1; r <= config.rounds_r; ++r) {
    const std::vector<int64_t>* selection =
        trainer.store().GetClientSelection(r);
    ASSERT_NE(selection, nullptr);
    for (int64_t c : *selection) EXPECT_EQ(c, 3);
  }
}

TEST(EdgeCaseTest, SampleThenClientUnlearningCompose) {
  FederatedDataset data = TinyImageData(8, 8);
  FatsConfig config = TinyFatsConfig(8, 8, 4, 2);
  FatsTrainer trainer(TinyModelSpec(), config, &data);
  trainer.Train();
  const int64_t t_max = config.total_iters_t();
  UnlearningService service(&trainer);
  ASSERT_TRUE(
      service
          .ExecuteStream(
              {{.kind = Kind::kSample, .sample = {1, 0}, .request_iter = t_max},
               {.kind = Kind::kClient, .client = 2, .request_iter = t_max},
               {.kind = Kind::kSample, .sample = {3, 4}, .request_iter = t_max}},
              /*coalesce_window=*/1)
          .ok());
  EXPECT_FALSE(data.sample_active(1, 0));
  EXPECT_FALSE(data.client_active(2));
  EXPECT_FALSE(data.sample_active(3, 4));
  // State is internally consistent: no recorded batch references deleted
  // data, no selection references the removed client.
  for (int64_t r = 1; r <= config.rounds_r; ++r) {
    const std::vector<int64_t>* selection =
        trainer.store().GetClientSelection(r);
    ASSERT_NE(selection, nullptr);
    for (int64_t c : *selection) {
      EXPECT_NE(c, 2);
      for (int64_t t = (r - 1) * 2 + 1; t <= r * 2; ++t) {
        const std::vector<int64_t>* batch =
            trainer.store().GetMinibatch(t, c);
        if (batch == nullptr) continue;
        for (int64_t i : *batch) EXPECT_TRUE(data.sample_active(c, i));
      }
    }
  }
}

TEST(EdgeCaseTest, UnlearningSampleOfRemovedClientFails) {
  FederatedDataset data = TinyImageData(6, 8);
  FatsConfig config = TinyFatsConfig(6, 8, 3, 2);
  FatsTrainer trainer(TinyModelSpec(), config, &data);
  trainer.Train();
  const int64_t t = config.total_iters_t();
  UnlearningService service(&trainer);
  ASSERT_TRUE(service
                  .ExecuteStream({{.kind = Kind::kClient,
                                   .client = 1,
                                   .request_iter = t}})
                  .ok());
  EXPECT_FALSE(service
                   .ExecuteStream({{.kind = Kind::kSample,
                                    .sample = {1, 0},
                                    .request_iter = t}})
                   .ok());
}

TEST(EdgeCaseTest, TinyFederationOfTwoClients) {
  FederatedDataset data = TinyImageData(2, 6);
  FatsConfig config = TinyFatsConfig(2, 6, 3, 2, 0.5, 1.0);
  ASSERT_TRUE(config.Validate().ok());
  FatsTrainer trainer(TinyModelSpec(), config, &data);
  trainer.Train();
  UnlearningService service(&trainer);
  ASSERT_TRUE(service
                  .ExecuteStream({{.kind = Kind::kClient,
                                   .client = 0,
                                   .request_iter = config.total_iters_t()}})
                  .ok());
  EXPECT_EQ(data.num_active_clients(), 1);
  EXPECT_GE(trainer.EvaluateTestAccuracy(), 0.0);
}

TEST(EdgeCaseTest, RequestAtIterationOne) {
  FederatedDataset data = TinyImageData(6, 8);
  FatsConfig config = TinyFatsConfig(6, 8, 3, 2);
  FatsTrainer trainer(TinyModelSpec(), config, &data);
  trainer.Train();
  UnlearningService service(&trainer);
  // request_iter = 1 is the smallest legal request time.
  EXPECT_TRUE(service
                  .ExecuteStream({{.kind = Kind::kSample,
                                   .sample = {0, 0},
                                   .request_iter = 1}})
                  .ok());
}

}  // namespace
}  // namespace fats
