// Statistical verification of Theorem 1: exact federated unlearning.
//
// In a tiny discrete instance, the full sampling history (client selections
// per round + mini-batches per iteration) takes finitely many values, and
// the trained model is a deterministic function of it. Definition 1/2
// require the post-unlearning state distribution to equal that of fresh
// training on the reduced data. We draw thousands of histories from both
// processes (randomizing the algorithm seed per trial) and compare the
// empirical distributions with a two-sample chi-square test.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>

#include "core/unlearning_service.h"
#include "test_workloads.h"

namespace fats {
namespace {

double ChiSquareCritical999(int dof) {
  const double z = 3.0902;
  const double d = static_cast<double>(dof);
  const double term = 1.0 - 2.0 / (9.0 * d) + z * std::sqrt(2.0 / (9.0 * d));
  return d * term * term * term;
}

constexpr int64_t kClients = 3;
constexpr int64_t kSamples = 3;
constexpr int64_t kRounds = 2;
constexpr int64_t kLocalIters = 1;

FatsConfig TinyDiscreteConfig(uint64_t seed) {
  FatsConfig config;
  config.clients_m = kClients;
  config.samples_per_client_n = kSamples;
  config.rounds_r = kRounds;
  config.local_iters_e = kLocalIters;
  // K = ρ_C·E·M/T = 1·1·3/2 -> 1.5 rounds to... choose ρ so K=1, b=1:
  // K = ρ_C·E·M/T = ρ_C·3/2 -> ρ_C = 2/3 gives K = 1.
  // b = ρ_S·N/(ρ_C·E) = ρ_S·3/(2/3) -> ρ_S = 2/9 gives b = 1.
  config.rho_c = 2.0 / 3.0;
  config.rho_s = 2.0 / 9.0;
  config.learning_rate = 0.1;
  config.seed = seed;
  return config;
}

/// Canonical encoding of the recorded sampling history.
std::string EncodeHistory(const FatsTrainer& trainer) {
  std::string out;
  for (int64_t r = 1; r <= kRounds; ++r) {
    const std::vector<int64_t>* selection =
        trainer.store().GetClientSelection(r);
    if (selection == nullptr) continue;
    // Sequential appends rather than `"R" + std::to_string(r) + ...`: the
    // temporary-chain form trips GCC 12's -Wrestrict false positive
    // (PR 105651) at -O3, which the -Werror release preset turns fatal.
    out += "R";
    out += std::to_string(r);
    out += ":[";
    for (int64_t k : *selection) {
      out += std::to_string(k);
      out += ",";
    }
    out += "]";
    for (int64_t t = (r - 1) * kLocalIters + 1; t <= r * kLocalIters; ++t) {
      for (int64_t k = 0; k < kClients; ++k) {
        const std::vector<int64_t>* batch = trainer.store().GetMinibatch(t, k);
        if (batch == nullptr) continue;
        out += "B";
        out += std::to_string(t);
        out += ".";
        out += std::to_string(k);
        out += ":(";
        for (int64_t i : *batch) {
          out += std::to_string(i);
          out += ",";
        }
        out += ")";
      }
    }
  }
  return out;
}

void TwoSampleChiSquare(const std::map<std::string, int>& a,
                        const std::map<std::string, int>& b, int trials) {
  // Pool categories; collapse rare ones (< 10 expected) into one bucket to
  // keep the chi-square approximation valid.
  std::map<std::string, std::pair<int, int>> merged;
  for (const auto& [key, count] : a) merged[key].first = count;
  for (const auto& [key, count] : b) merged[key].second = count;
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
  ASSERT_GT(dof, 0) << "degenerate history space";
  EXPECT_LT(chi2, ChiSquareCritical999(dof))
      << "distributions differ (dof=" << dof << ", trials=" << trials << ")";
}

TEST(ExactUnlearningTest, SampleLevelDistributionMatchesFreshRetrain) {
  const int trials = 4000;
  const SampleRef target{0, 1};
  std::map<std::string, int> fresh_counts;
  std::map<std::string, int> unlearned_counts;
  for (int trial = 0; trial < trials; ++trial) {
    const uint64_t seed = 1000 + static_cast<uint64_t>(trial);
    // Arm A: fresh training on D' (target sample removed up front).
    {
      FederatedDataset data = TinyImageData(kClients, kSamples);
      ASSERT_TRUE(data.RemoveSample(target).ok());
      FatsTrainer trainer(TinyModelSpec(), TinyDiscreteConfig(seed), &data);
      trainer.Train();
      fresh_counts[EncodeHistory(trainer)]++;
    }
    // Arm B: train on D, then FATS-SU unlearns the target.
    {
      FederatedDataset data = TinyImageData(kClients, kSamples);
      FatsConfig config = TinyDiscreteConfig(seed);
      FatsTrainer trainer(TinyModelSpec(), config, &data);
      trainer.Train();
      UnlearningService service(&trainer);
      ASSERT_TRUE(service
                      .ExecuteStream({{.kind = UnlearningRequest::Kind::kSample,
                                       .sample = target,
                                       .request_iter = config.total_iters_t()}})
                      .ok());
      unlearned_counts[EncodeHistory(trainer)]++;
    }
  }
  TwoSampleChiSquare(fresh_counts, unlearned_counts, trials);
}

TEST(ExactUnlearningTest, ClientLevelDistributionMatchesFreshRetrain) {
  const int trials = 4000;
  const int64_t target = 1;
  std::map<std::string, int> fresh_counts;
  std::map<std::string, int> unlearned_counts;
  for (int trial = 0; trial < trials; ++trial) {
    const uint64_t seed = 5000 + static_cast<uint64_t>(trial);
    {
      FederatedDataset data = TinyImageData(kClients, kSamples);
      ASSERT_TRUE(data.RemoveClient(target).ok());
      FatsTrainer trainer(TinyModelSpec(), TinyDiscreteConfig(seed), &data);
      trainer.Train();
      fresh_counts[EncodeHistory(trainer)]++;
    }
    {
      FederatedDataset data = TinyImageData(kClients, kSamples);
      FatsConfig config = TinyDiscreteConfig(seed);
      FatsTrainer trainer(TinyModelSpec(), config, &data);
      trainer.Train();
      UnlearningService service(&trainer);
      ASSERT_TRUE(service
                      .ExecuteStream({{.kind = UnlearningRequest::Kind::kClient,
                                       .client = target,
                                       .request_iter = config.total_iters_t()}})
                      .ok());
      unlearned_counts[EncodeHistory(trainer)]++;
    }
  }
  TwoSampleChiSquare(fresh_counts, unlearned_counts, trials);
}

TEST(ExactUnlearningTest, UnlearnedHistoryNeverContainsTarget) {
  // A qualitative corollary of exactness: the post-unlearning state is
  // supported on histories that avoid the target entirely.
  for (uint64_t seed = 0; seed < 50; ++seed) {
    FederatedDataset data = TinyImageData(kClients, kSamples);
    FatsConfig config = TinyDiscreteConfig(seed);
    FatsTrainer trainer(TinyModelSpec(), config, &data);
    trainer.Train();
    UnlearningService service(&trainer);
    ASSERT_TRUE(service
                    .ExecuteStream({{.kind = UnlearningRequest::Kind::kClient,
                                     .client = 0,
                                     .request_iter = config.total_iters_t()}})
                    .ok());
    const std::string history = EncodeHistory(trainer);
    for (int64_t r = 1; r <= kRounds; ++r) {
      const std::vector<int64_t>* selection =
          trainer.store().GetClientSelection(r);
      ASSERT_NE(selection, nullptr);
      for (int64_t k : *selection) EXPECT_NE(k, 0) << history;
    }
  }
}

TEST(ExactUnlearningTest, NoOpUnlearningPreservesStateBitExactly) {
  // When the target never participated, Definition 1 is satisfied by doing
  // nothing — and the implementation must indeed not touch the state.
  int checked = 0;
  for (uint64_t seed = 0; seed < 200 && checked < 20; ++seed) {
    FederatedDataset data = TinyImageData(kClients, kSamples);
    FatsConfig config = TinyDiscreteConfig(seed);
    FatsTrainer trainer(TinyModelSpec(), config, &data);
    trainer.Train();
    const SampleRef target{2, 2};
    if (trainer.store().EarliestSampleUse(target) != -1) continue;
    const Tensor params = trainer.global_params();
    const std::string history = EncodeHistory(trainer);
    UnlearningService service(&trainer);
    ASSERT_TRUE(service
                    .ExecuteStream({{.kind = UnlearningRequest::Kind::kSample,
                                     .sample = target,
                                     .request_iter = config.total_iters_t()}})
                    .ok());
    EXPECT_TRUE(trainer.global_params().BitwiseEquals(params));
    EXPECT_EQ(EncodeHistory(trainer), history);
    ++checked;
  }
  EXPECT_GE(checked, 5) << "too few no-participation cases sampled";
}

}  // namespace
}  // namespace fats
