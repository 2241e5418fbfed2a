#include "core/compact_unlearner.h"

#include <gtest/gtest.h>

#include "test_workloads.h"

namespace fats {
namespace {

struct Trained {
  FederatedDataset data;
  FatsConfig config;
  std::unique_ptr<FatsTrainer> trainer;
};

Trained TrainTiny(int64_t clients = 12, int64_t n = 10, int64_t rounds = 4,
                  int64_t e = 3, uint64_t seed = 7) {
  Trained t;
  t.data = TinyImageData(clients, n);
  t.config = TinyFatsConfig(clients, n, rounds, e, 0.5, 0.5, seed);
  t.trainer =
      std::make_unique<FatsTrainer>(TinyModelSpec(), t.config, &t.data);
  t.trainer->Train();
  return t;
}

TEST(CompactUnlearnerTest, IndexMatchesFullStoreHistory) {
  Trained t = TrainTiny();
  CompactUnlearner unlearner(t.trainer.get());
  for (int64_t k = 0; k < t.data.num_clients(); ++k) {
    EXPECT_EQ(unlearner.index().ClientParticipated(k),
              t.trainer->store().EarliestClientRound(k) >= 1)
        << "client " << k;
    for (int64_t i = 0; i < t.data.samples_of(k); ++i) {
      EXPECT_EQ(unlearner.index().SampleUsed(k, i),
                t.trainer->store().EarliestSampleUse({k, i}) >= 1)
          << "sample (" << k << ", " << i << ")";
    }
  }
}

TEST(CompactUnlearnerTest, IndexIsOrdersOfMagnitudeSmallerThanFullStore) {
  Trained t = TrainTiny();
  CompactUnlearner unlearner(t.trainer.get());
  EXPECT_LT(unlearner.IndexBytes() * 100, t.trainer->store().ApproxBytes());
}

TEST(CompactUnlearnerTest, NonParticipantClientIsFree) {
  Trained t = TrainTiny(20);
  CompactUnlearner unlearner(t.trainer.get());
  int64_t target = -1;
  for (int64_t k = 0; k < t.data.num_clients(); ++k) {
    if (!unlearner.index().ClientParticipated(k)) {
      target = k;
      break;
    }
  }
  ASSERT_GE(target, 0) << "all clients participated; enlarge M";
  const Tensor before = t.trainer->global_params();
  ServiceFlushStats outcome =
      unlearner.UnlearnClient(target, t.config.total_iters_t()).value();
  EXPECT_EQ(outcome.triggered_requests, 0);
  EXPECT_TRUE(t.trainer->global_params().BitwiseEquals(before));
  EXPECT_FALSE(t.data.client_active(target));
}

TEST(CompactUnlearnerTest, ParticipantClientCausesFullRetrain) {
  Trained t = TrainTiny();
  CompactUnlearner unlearner(t.trainer.get());
  int64_t target = -1;
  for (int64_t k = 0; k < t.data.num_clients(); ++k) {
    if (unlearner.index().ClientParticipated(k)) {
      target = k;
      break;
    }
  }
  ASSERT_GE(target, 0);
  ServiceFlushStats outcome =
      unlearner.UnlearnClient(target, t.config.total_iters_t()).value();
  EXPECT_GT(outcome.triggered_requests, 0);
  EXPECT_EQ(outcome.recomputed_rounds, t.config.rounds_r);
  EXPECT_EQ(outcome.recomputed_iterations, t.config.total_iters_t());
  // The retrained history never selects the removed client.
  EXPECT_FALSE(unlearner.index().ClientParticipated(target));
}

TEST(CompactUnlearnerTest, UsedSampleCausesFullRetrain) {
  Trained t = TrainTiny();
  CompactUnlearner unlearner(t.trainer.get());
  SampleRef target{-1, -1};
  for (int64_t k = 0; k < t.data.num_clients() && target.client < 0; ++k) {
    for (int64_t i = 0; i < t.data.samples_of(k); ++i) {
      if (unlearner.index().SampleUsed(k, i)) {
        target = {k, i};
        break;
      }
    }
  }
  ASSERT_GE(target.client, 0);
  ServiceFlushStats outcome =
      unlearner.UnlearnSample(target, t.config.total_iters_t()).value();
  EXPECT_GT(outcome.triggered_requests, 0);
  EXPECT_EQ(outcome.recomputed_rounds, t.config.rounds_r);
  EXPECT_FALSE(t.data.sample_active(target.client, target.index));
  EXPECT_FALSE(unlearner.index().SampleUsed(target.client, target.index));
}

TEST(CompactUnlearnerTest, UnusedSampleIsFree) {
  Trained t = TrainTiny(16, 12);
  CompactUnlearner unlearner(t.trainer.get());
  SampleRef target{-1, -1};
  for (int64_t k = 0; k < t.data.num_clients() && target.client < 0; ++k) {
    for (int64_t i = 0; i < t.data.samples_of(k); ++i) {
      if (!unlearner.index().SampleUsed(k, i)) {
        target = {k, i};
        break;
      }
    }
  }
  ASSERT_GE(target.client, 0) << "every sample used; enlarge the workload";
  const Tensor before = t.trainer->global_params();
  ServiceFlushStats outcome =
      unlearner.UnlearnSample(target, t.config.total_iters_t()).value();
  EXPECT_EQ(outcome.triggered_requests, 0);
  EXPECT_TRUE(t.trainer->global_params().BitwiseEquals(before));
}

TEST(CompactUnlearnerTest, ErrorsOnInvalidTargets) {
  Trained t = TrainTiny();
  CompactUnlearner unlearner(t.trainer.get());
  EXPECT_FALSE(unlearner.UnlearnClient(999, 1).ok());
  EXPECT_FALSE(unlearner.UnlearnClient(0, 0).ok());
  EXPECT_FALSE(unlearner.UnlearnSample({0, 999}, 1).ok());
}

TEST(CompactUnlearnerTest, RetrainedModelKeepsUtility) {
  Trained t = TrainTiny(12, 12, 10, 3);
  const double before = t.trainer->EvaluateTestAccuracy();
  CompactUnlearner unlearner(t.trainer.get());
  int64_t target = 0;
  while (!unlearner.index().ClientParticipated(target)) ++target;
  ASSERT_TRUE(
      unlearner.UnlearnClient(target, t.config.total_iters_t()).ok());
  EXPECT_GT(t.trainer->EvaluateTestAccuracy(), before - 0.2);
}

TEST(CompactUnlearnerTest, SequentialRequestsKeepIndexConsistent) {
  Trained t = TrainTiny(16, 10, 4, 3);
  CompactUnlearner unlearner(t.trainer.get());
  for (int round = 0; round < 3; ++round) {
    int64_t target = -1;
    for (int64_t k = 0; k < t.data.num_clients(); ++k) {
      if (t.data.client_active(k)) {
        target = k;
        break;
      }
    }
    ASSERT_GE(target, 0);
    ASSERT_TRUE(
        unlearner.UnlearnClient(target, t.config.total_iters_t()).ok());
    // Index must agree with the post-retrain store.
    for (int64_t k = 0; k < t.data.num_clients(); ++k) {
      EXPECT_EQ(unlearner.index().ClientParticipated(k),
                t.trainer->store().EarliestClientRound(k) >= 1);
    }
  }
  EXPECT_EQ(t.data.num_active_clients(), 13);
}

}  // namespace
}  // namespace fats
