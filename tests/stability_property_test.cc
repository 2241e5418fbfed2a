// Monte-Carlo verification of Lemma 1 / Theorem 1's re-computation bound:
// the probability that an unlearning request triggers re-computation is at
// most min{ρ_S, 1} (sample level) / min{ρ_C, 1} (client level).

#include <gtest/gtest.h>

#include <cmath>

#include "core/tv_stability.h"
#include "core/unlearning_service.h"
#include "test_workloads.h"

namespace fats {
namespace {

struct StabilityCase {
  double rho_s;
  double rho_c;
  std::string name;
};

class StabilityGridTest : public testing::TestWithParam<StabilityCase> {};

constexpr int64_t kClients = 12;
constexpr int64_t kSamples = 12;
constexpr int64_t kRounds = 3;
constexpr int64_t kLocalIters = 2;

TEST_P(StabilityGridTest, SampleRecomputationFrequencyBoundedByRhoS) {
  const StabilityCase param = GetParam();
  const int trials = 300;
  int recomputations = 0;
  double bound = 0.0;
  for (int trial = 0; trial < trials; ++trial) {
    FederatedDataset data = TinyImageData(kClients, kSamples);
    FatsConfig config =
        TinyFatsConfig(kClients, kSamples, kRounds, kLocalIters, param.rho_s,
                       param.rho_c, 3000 + static_cast<uint64_t>(trial));
    ASSERT_TRUE(config.Validate().ok());
    bound = SampleLevelStabilityBound(config);
    FatsTrainer trainer(TinyModelSpec(), config, &data);
    trainer.Train();
    // Random target sample.
    StreamId id;
    id.purpose = RngPurpose::kGeneric;
    id.iteration = static_cast<uint64_t>(trial);
    RngStream rng(999, id);
    SampleRef target{
        static_cast<int64_t>(rng.UniformInt(kClients)),
        static_cast<int64_t>(rng.UniformInt(kSamples))};
    UnlearningService service(&trainer);
    recomputations += static_cast<int>(
        service
            .ExecuteStream({{.kind = UnlearningRequest::Kind::kSample,
                             .sample = target,
                             .request_iter = config.total_iters_t()}})
            .value()
            .triggered_requests);
  }
  const double frequency = static_cast<double>(recomputations) / trials;
  const double stderr_bound = std::sqrt(bound * (1 - bound) / trials);
  EXPECT_LE(frequency, bound + 4 * stderr_bound + 0.02)
      << "observed " << frequency << " vs bound " << bound;
}

TEST_P(StabilityGridTest, ClientRecomputationFrequencyBoundedByRhoC) {
  const StabilityCase param = GetParam();
  const int trials = 300;
  int recomputations = 0;
  double bound = 0.0;
  for (int trial = 0; trial < trials; ++trial) {
    FederatedDataset data = TinyImageData(kClients, kSamples);
    FatsConfig config =
        TinyFatsConfig(kClients, kSamples, kRounds, kLocalIters, param.rho_s,
                       param.rho_c, 7000 + static_cast<uint64_t>(trial));
    ASSERT_TRUE(config.Validate().ok());
    bound = ClientLevelStabilityBound(config);
    FatsTrainer trainer(TinyModelSpec(), config, &data);
    trainer.Train();
    StreamId id;
    id.purpose = RngPurpose::kGeneric;
    id.iteration = static_cast<uint64_t>(trial);
    RngStream rng(888, id);
    const int64_t target = static_cast<int64_t>(rng.UniformInt(kClients));
    UnlearningService service(&trainer);
    recomputations += static_cast<int>(
        service
            .ExecuteStream({{.kind = UnlearningRequest::Kind::kClient,
                             .client = target,
                             .request_iter = config.total_iters_t()}})
            .value()
            .triggered_requests);
  }
  const double frequency = static_cast<double>(recomputations) / trials;
  const double stderr_bound = std::sqrt(bound * (1 - bound) / trials);
  EXPECT_LE(frequency, bound + 4 * stderr_bound + 0.02)
      << "observed " << frequency << " vs bound " << bound;
}

INSTANTIATE_TEST_SUITE_P(
    RhoGrid, StabilityGridTest,
    testing::Values(StabilityCase{0.25, 0.5, "s25_c50"},
                    StabilityCase{0.5, 0.5, "s50_c50"},
                    StabilityCase{0.25, 1.0, "s25_c100"},
                    StabilityCase{1.0, 0.5, "s100_c50"}),
    [](const testing::TestParamInfo<StabilityCase>& param_info) {
      return param_info.param.name;
    });

TEST(StabilityTheoryTest, ClientParticipationProbabilityMatchesTheory) {
  // P(client ever selected) analytically: 1 - (1 - 1/M)^(K·R); the Lemma 1
  // bound ρ_C = K·R/M is the union bound on it. Check Monte-Carlo agreement
  // with the exact expression and dominance by the bound.
  const int trials = 2000;
  int participations = 0;
  int64_t k_drawn = 0;
  for (int trial = 0; trial < trials; ++trial) {
    FederatedDataset data = TinyImageData(kClients, kSamples);
    FatsConfig config =
        TinyFatsConfig(kClients, kSamples, kRounds, kLocalIters, 0.25, 0.5,
                       11000 + static_cast<uint64_t>(trial));
    FatsTrainer trainer(TinyModelSpec(), config, &data);
    trainer.Train();
    k_drawn = trainer.K();
    if (trainer.store().EarliestClientRound(0) >= 1) ++participations;
  }
  const double frequency = static_cast<double>(participations) / trials;
  const double draws =
      static_cast<double>(k_drawn) * static_cast<double>(kRounds);
  const double exact = 1.0 - std::pow(1.0 - 1.0 / kClients, draws);
  const double rho_c_bound = draws / kClients;
  EXPECT_NEAR(frequency, exact, 0.04);
  EXPECT_LE(frequency, rho_c_bound + 0.04);
}

}  // namespace
}  // namespace fats
