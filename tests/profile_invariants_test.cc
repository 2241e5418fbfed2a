// Parameterized invariants over all six scaled dataset profiles: every
// profile must train, record complete algorithmic state, account
// communication exactly, and serve both unlearning levels.

#include <gtest/gtest.h>

#include "core/unlearning_service.h"
#include "data/paper_configs.h"

namespace fats {
namespace {

DatasetProfile ShortProfile(const std::string& name) {
  DatasetProfile profile = ScaledProfile(name).value();
  // Trim for test runtime; ratios (and thus ρ feasibility) are preserved by
  // shrinking rounds and clients together where needed.
  profile.rounds_r = std::min<int64_t>(profile.rounds_r, 4);
  profile.clients_m = std::min<int64_t>(profile.clients_m, 40);
  profile.test_size = 120;
  return profile;
}

class ProfileInvariantsTest : public testing::TestWithParam<std::string> {};

TEST_P(ProfileInvariantsTest, TrainsWithCompleteState) {
  DatasetProfile profile = ShortProfile(GetParam());
  FederatedDataset data = BuildFederatedData(profile, 3);
  FatsConfig config = FatsConfig::FromProfile(profile);
  if (!config.Validate().ok()) {
    config.rho_s = 0.25;
    config.rho_c = 0.5;
  }
  config.seed = 3;
  ASSERT_TRUE(config.Validate().ok()) << config.ToString();
  FatsTrainer trainer(profile.model, config, &data);
  trainer.Train();

  // One log record per round, rounds numbered 1..R.
  ASSERT_EQ(trainer.log().records().size(),
            static_cast<size_t>(config.rounds_r));
  for (int64_t r = 1; r <= config.rounds_r; ++r) {
    EXPECT_EQ(trainer.log().records()[static_cast<size_t>(r - 1)].round, r);
    // Complete state: selection + global model per round, K entries each.
    const std::vector<int64_t>* selection =
        trainer.store().GetClientSelection(r);
    ASSERT_NE(selection, nullptr) << GetParam() << " round " << r;
    EXPECT_EQ(static_cast<int64_t>(selection->size()), trainer.K());
    EXPECT_NE(trainer.store().GetGlobalModel(r), nullptr);
  }
  // Exact communication accounting: 2 directions x R rounds x K models.
  const int64_t d = trainer.model()->NumParameters();
  EXPECT_EQ(trainer.comm_stats().total_bytes(),
            2 * config.rounds_r * trainer.K() * d * 4);
  // Accuracy is a valid probability and training executed real work.
  const double accuracy = trainer.EvaluateTestAccuracy();
  EXPECT_GE(accuracy, 0.0);
  EXPECT_LE(accuracy, 1.0);
  EXPECT_GE(trainer.local_iterations_executed(), config.total_iters_t());
}

TEST_P(ProfileInvariantsTest, ServesBothUnlearningLevels) {
  DatasetProfile profile = ShortProfile(GetParam());
  FederatedDataset data = BuildFederatedData(profile, 4);
  FatsConfig config = FatsConfig::FromProfile(profile);
  if (!config.Validate().ok()) {
    config.rho_s = 0.25;
    config.rho_c = 0.5;
  }
  config.seed = 4;
  FatsTrainer trainer(profile.model, config, &data);
  trainer.Train();
  StreamId id;
  id.purpose = RngPurpose::kGeneric;
  RngStream rng(9, id);
  UnlearningService service(&trainer);
  ASSERT_TRUE(service
                  .ExecuteStream(
                      {{.kind = UnlearningRequest::Kind::kSample,
                        .sample = PickRandomActiveSamples(data, 1, &rng)[0],
                        .request_iter = config.total_iters_t()}})
                  .ok())
      << GetParam();
  ASSERT_TRUE(service
                  .ExecuteStream(
                      {{.kind = UnlearningRequest::Kind::kClient,
                        .client = PickRandomActiveClients(data, 1, &rng)[0],
                        .request_iter = config.total_iters_t()}})
                  .ok())
      << GetParam();
  // Post-unlearning state never references deleted data.
  for (int64_t r = 1; r <= config.rounds_r; ++r) {
    const std::vector<int64_t>* selection =
        trainer.store().GetClientSelection(r);
    ASSERT_NE(selection, nullptr);
    for (int64_t k : *selection) {
      EXPECT_TRUE(data.client_active(k)) << GetParam();
    }
  }
}

TEST_P(ProfileInvariantsTest, DeterministicAcrossRebuilds) {
  DatasetProfile profile = ShortProfile(GetParam());
  auto run = [&profile]() {
    FederatedDataset data = BuildFederatedData(profile, 5);
    FatsConfig config = FatsConfig::FromProfile(profile);
    if (!config.Validate().ok()) {
      config.rho_s = 0.25;
      config.rho_c = 0.5;
    }
    config.seed = 5;
    FatsTrainer trainer(profile.model, config, &data);
    trainer.Train();
    return trainer.global_params();
  };
  EXPECT_TRUE(run().BitwiseEquals(run())) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, ProfileInvariantsTest,
                         testing::ValuesIn(ScaledProfileNames()),
                         [](const testing::TestParamInfo<std::string>& param_info) {
                           return param_info.param;
                         });

}  // namespace
}  // namespace fats
