// Mid-training unlearning: requests issued while training is in progress
// re-compute only the executed prefix; training then continues on the
// reduced data (the paper's Figure 1 protocol).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/unlearning_service.h"
#include "test_workloads.h"

namespace fats {
namespace {

// Every field of every round record, compared bit for bit: a round entered
// mid-round must log the loss of the whole round, not of its tail.
void ExpectLogsBitwiseEqual(const TrainLog& a, const TrainLog& b) {
  ASSERT_EQ(a.records().size(), b.records().size());
  for (size_t i = 0; i < a.records().size(); ++i) {
    const RoundRecord& x = a.records()[i];
    const RoundRecord& y = b.records()[i];
    EXPECT_EQ(x.round, y.round) << "record " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(x.test_accuracy),
              std::bit_cast<uint64_t>(y.test_accuracy))
        << "record " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(x.mean_local_loss),
              std::bit_cast<uint64_t>(y.mean_local_loss))
        << "record " << i << ": " << x.mean_local_loss << " vs "
        << y.mean_local_loss;
    EXPECT_EQ(x.recomputation, y.recomputation) << "record " << i;
  }
}

TEST(TrainUntilTest, IncrementalEqualsOneShot) {
  FederatedDataset data_a = TinyImageData(6, 10);
  FederatedDataset data_b = TinyImageData(6, 10);
  FatsConfig config = TinyFatsConfig(6, 10, 4, 3);
  FatsTrainer one_shot(TinyModelSpec(), config, &data_a);
  one_shot.Train();
  FatsTrainer incremental(TinyModelSpec(), config, &data_b);
  incremental.TrainUntil(2);
  incremental.TrainUntil(5);   // mid-round stop
  incremental.TrainUntil(7);
  incremental.TrainUntil(12);
  EXPECT_TRUE(incremental.global_params().BitwiseEquals(
      one_shot.global_params()));
  EXPECT_EQ(incremental.trained_through(), 12);
  ExpectLogsBitwiseEqual(incremental.log(), one_shot.log());
}

// Pausing at any offset of a round and resuming rebuilds the round's local
// models from the stored history: the model, the log, the comm ledger and
// the dropout retries all match an uninterrupted run, and the rebuild costs
// exactly offset × |participants| local steps, none counted as training.
struct PauseCase {
  const char* name;
  int64_t num_threads;
  double dropout_rate;
};

class PauseAtEveryOffsetTest : public ::testing::TestWithParam<PauseCase> {};

TEST_P(PauseAtEveryOffsetTest, ResumeEqualsOneShot) {
  constexpr int64_t kE = 4;
  FatsConfig config = TinyFatsConfig(6, 10, 3, kE);
  config.num_threads = GetParam().num_threads;
  config.dropout_rate = GetParam().dropout_rate;
  config.availability_seed = 11;
  FederatedDataset data_a = TinyImageData(6, 10);
  FatsTrainer one_shot(TinyModelSpec(), config, &data_a);
  one_shot.Train();
  if (config.dropout_rate > 0.0) {
    ASSERT_GT(one_shot.dropout_retries(), 0);
  }
  for (int64_t offset = 1; offset < kE; ++offset) {
    SCOPED_TRACE(::testing::Message() << "pause offset " << offset);
    FederatedDataset data_b = TinyImageData(6, 10);
    FatsTrainer paused(TinyModelSpec(), config, &data_b);
    paused.TrainUntil(kE + offset);  // round 2, `offset` iterations in
    EXPECT_EQ(paused.prefix_steps(), 0);
    paused.Train();
    const std::vector<int64_t>* selection = paused.store().GetClientSelection(2);
    ASSERT_NE(selection, nullptr);
    const auto participants = static_cast<int64_t>(
        std::set<int64_t>(selection->begin(), selection->end()).size());
    EXPECT_EQ(paused.prefix_steps(), offset * participants);
    EXPECT_TRUE(paused.global_params().BitwiseEquals(one_shot.global_params()));
    ExpectLogsBitwiseEqual(paused.log(), one_shot.log());
    const auto ledger = [](const CommCounters& c) {
      return std::vector<int64_t>{c.rounds,          c.uplink_bytes,
                                  c.downlink_bytes,  c.downlink_messages,
                                  c.uplink_messages, c.retransmits,
                                  c.retransmit_bytes};
    };
    EXPECT_EQ(ledger(paused.comm_stats().counters()),
              ledger(one_shot.comm_stats().counters()));
    EXPECT_EQ(paused.dropout_retries(), one_shot.dropout_retries());
    EXPECT_EQ(paused.local_iterations_executed(),
              one_shot.local_iterations_executed());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, PauseAtEveryOffsetTest,
    ::testing::Values(PauseCase{"serial", 1, 0.0},
                      PauseCase{"threads4", 4, 0.0},
                      PauseCase{"dropout30", 1, 0.3}),
    [](const ::testing::TestParamInfo<PauseCase>& param) {
      return std::string(param.param.name);
    });

TEST(TrainUntilTest, TrainedThroughTracksProgress) {
  FederatedDataset data = TinyImageData(6, 10);
  FatsConfig config = TinyFatsConfig(6, 10, 4, 3);
  FatsTrainer trainer(TinyModelSpec(), config, &data);
  EXPECT_EQ(trainer.trained_through(), 0);
  trainer.TrainUntil(5);
  EXPECT_EQ(trainer.trained_through(), 5);
  trainer.TrainUntil(5);  // no-op
  EXPECT_EQ(trainer.trained_through(), 5);
  trainer.TrainUntil(12);
  EXPECT_EQ(trainer.trained_through(), 12);
}

TEST(TrainUntilDeathTest, CannotTrainBackwards) {
  FederatedDataset data = TinyImageData(6, 10);
  FatsConfig config = TinyFatsConfig(6, 10, 4, 3);
  FatsTrainer trainer(TinyModelSpec(), config, &data);
  trainer.TrainUntil(6);
  EXPECT_DEATH(trainer.TrainUntil(3), "train backwards");
}

TEST(MidTrainingTest, SampleUnlearnThenContinue) {
  FederatedDataset data = TinyImageData(8, 10);
  FatsConfig config = TinyFatsConfig(8, 10, 6, 3);
  FatsTrainer trainer(TinyModelSpec(), config, &data);
  const int64_t t_u = 9;  // end of round 3 of 6
  trainer.TrainUntil(t_u);
  // Target that participated in the prefix.
  SampleRef target{-1, -1};
  for (int64_t k = 0; k < data.num_clients() && target.client < 0; ++k) {
    for (int64_t i = 0; i < data.samples_of(k); ++i) {
      const int64_t use = trainer.store().EarliestSampleUse({k, i});
      if (use >= 1 && use <= t_u) {
        target = {k, i};
        break;
      }
    }
  }
  ASSERT_GE(target.client, 0);
  UnlearningService service(&trainer);
  const ServiceFlushStats stats =
      service
          .ExecuteStream({{.kind = UnlearningRequest::Kind::kSample,
                           .sample = target,
                           .request_iter = t_u}})
          .value();
  EXPECT_EQ(stats.triggered_requests, 1);
  // The re-computation horizon is the executed prefix, not T.
  EXPECT_LE(stats.recomputed_iterations, t_u);
  EXPECT_EQ(trainer.trained_through(), t_u);
  // Continue training to completion on the reduced data.
  trainer.TrainUntil(config.total_iters_t());
  EXPECT_EQ(trainer.trained_through(), config.total_iters_t());
  EXPECT_EQ(trainer.store().EarliestSampleUse(target), -1);
  EXPECT_GT(trainer.EvaluateTestAccuracy(), 0.5);
}

TEST(MidTrainingTest, ClientUnlearnThenContinue) {
  FederatedDataset data = TinyImageData(10, 10);
  FatsConfig config = TinyFatsConfig(10, 10, 6, 3);
  FatsTrainer trainer(TinyModelSpec(), config, &data);
  const int64_t t_u = 9;
  trainer.TrainUntil(t_u);
  int64_t target = -1;
  for (int64_t k = 0; k < data.num_clients(); ++k) {
    const int64_t round = trainer.store().EarliestClientRound(k);
    if (round >= 1 && round <= 3) {
      target = k;
      break;
    }
  }
  ASSERT_GE(target, 0);
  UnlearningService service(&trainer);
  const ServiceFlushStats stats =
      service
          .ExecuteStream({{.kind = UnlearningRequest::Kind::kClient,
                           .client = target,
                           .request_iter = t_u}})
          .value();
  EXPECT_EQ(stats.triggered_requests, 1);
  EXPECT_LE(stats.recomputed_iterations, t_u);
  trainer.TrainUntil(config.total_iters_t());
  // The continued training never selects the removed client.
  EXPECT_EQ(trainer.store().EarliestClientRound(target), -1);
}

TEST(MidTrainingTest, RequestBeyondTrainedPrefixRejected) {
  FederatedDataset data = TinyImageData(6, 10);
  FatsConfig config = TinyFatsConfig(6, 10, 4, 3);
  FatsTrainer trainer(TinyModelSpec(), config, &data);
  trainer.TrainUntil(6);
  UnlearningService service(&trainer);
  // request_iter = 9 > trained_through = 6.
  EXPECT_FALSE(service
                   .ExecuteStream({{.kind = UnlearningRequest::Kind::kSample,
                                    .sample = {0, 0},
                                    .request_iter = 9}})
                   .ok());
}

// The recursive Definition-1 scenario: unlearn mid-training, continue to T;
// the resulting sampling-history distribution must equal fresh training on
// the reduced data. Tiny discrete instance, two-sample chi-square.
TEST(MidTrainingTest, ExactnessOfUnlearnThenContinue) {
  constexpr int64_t kClients = 3;
  constexpr int64_t kSamples = 3;
  constexpr int64_t kRounds = 3;
  auto make_config = [](uint64_t seed) {
    FatsConfig config;
    config.clients_m = kClients;
    config.samples_per_client_n = kSamples;
    config.rounds_r = kRounds;
    config.local_iters_e = 1;
    config.rho_c = 1.0;       // K = 1
    config.rho_s = 1.0 / 3.0; // b = 1
    config.learning_rate = 0.1;
    config.seed = seed;
    return config;
  };
  auto encode = [](const FatsTrainer& trainer) {
    std::string out;
    for (int64_t r = 1; r <= kRounds; ++r) {
      const std::vector<int64_t>* selection =
          trainer.store().GetClientSelection(r);
      if (selection == nullptr) continue;
      out += "R[";
      for (int64_t k : *selection) out += std::to_string(k) + ",";
      out += "]";
      for (int64_t k = 0; k < kClients; ++k) {
        const std::vector<int64_t>* batch =
            trainer.store().GetMinibatch(r, k);
        if (batch == nullptr) continue;
        // Sequential appends: `"B" + std::to_string(k) + ...` trips GCC
        // 12's -Wrestrict false positive (PR 105651) at -O3 under -Werror.
        out += "B";
        out += std::to_string(k);
        out += "(";
        for (int64_t i : *batch) {
          out += std::to_string(i);
          out += ",";
        }
        out += ")";
      }
    }
    return out;
  };

  const SampleRef target{0, 1};
  const int64_t t_u = 2;  // request after round 2 of 3
  const int trials = 3000;
  std::map<std::string, int> fresh_counts;
  std::map<std::string, int> unlearned_counts;
  for (int trial = 0; trial < trials; ++trial) {
    {
      FederatedDataset data = TinyImageData(kClients, kSamples);
      ASSERT_TRUE(data.RemoveSample(target).ok());
      FatsTrainer trainer(TinyModelSpec(),
                          make_config(40000 + static_cast<uint64_t>(trial)),
                          &data);
      trainer.Train();
      fresh_counts[encode(trainer)]++;
    }
    {
      FederatedDataset data = TinyImageData(kClients, kSamples);
      FatsConfig config = make_config(90000 + static_cast<uint64_t>(trial));
      FatsTrainer trainer(TinyModelSpec(), config, &data);
      trainer.TrainUntil(t_u);
      UnlearningService service(&trainer);
      ASSERT_TRUE(service
                      .ExecuteStream({{.kind = UnlearningRequest::Kind::kSample,
                                       .sample = target,
                                       .request_iter = t_u}})
                      .ok());
      trainer.TrainUntil(config.total_iters_t());
      unlearned_counts[encode(trainer)]++;
    }
  }
  // Two-sample chi-square with rare-bucket pooling.
  std::map<std::string, std::pair<int, int>> merged;
  for (const auto& [key, count] : fresh_counts) merged[key].first = count;
  for (const auto& [key, count] : unlearned_counts) {
    merged[key].second = count;
  }
  double chi2 = 0.0;
  int dof = -1;
  double rare_a = 0.0;
  double rare_b = 0.0;
  for (const auto& [key, pair] : merged) {
    const double total = pair.first + pair.second;
    if (total < 20.0) {
      rare_a += pair.first;
      rare_b += pair.second;
      continue;
    }
    const double expected = total / 2.0;
    chi2 += (pair.first - expected) * (pair.first - expected) / expected;
    chi2 += (pair.second - expected) * (pair.second - expected) / expected;
    ++dof;
  }
  if (rare_a + rare_b >= 20.0) {
    const double expected = (rare_a + rare_b) / 2.0;
    chi2 += (rare_a - expected) * (rare_a - expected) / expected;
    chi2 += (rare_b - expected) * (rare_b - expected) / expected;
    ++dof;
  }
  ASSERT_GT(dof, 0);
  // 99.9% critical value via Wilson-Hilferty.
  const double z = 3.0902;
  const double d = static_cast<double>(dof);
  const double term = 1.0 - 2.0 / (9.0 * d) + z * std::sqrt(2.0 / (9.0 * d));
  const double critical = d * term * term * term;
  EXPECT_LT(chi2, critical)
      << "mid-training unlearn+continue is not exact (dof=" << dof << ")";
}

}  // namespace
}  // namespace fats
