// Tests for the central-corpus label-Dirichlet partition path (the paper's
// literal simulated-federated pipeline) and FATS training on the unequal
// shards it produces.

#include <gtest/gtest.h>

#include <set>

#include "core/unlearning_service.h"
#include "data/paper_configs.h"

namespace fats {
namespace {

DatasetProfile CentralLdaProfile() {
  DatasetProfile profile = ScaledProfile("mnist").value();
  profile.clients_m = 30;
  profile.rounds_r = 5;
  profile.test_size = 120;
  profile.central_lda_partition = true;
  return profile;
}

TEST(CentralLdaTest, CorpusFullyDistributed) {
  DatasetProfile profile = CentralLdaProfile();
  FederatedDataset data = BuildFederatedData(profile, 1);
  EXPECT_EQ(data.num_clients(), profile.clients_m);
  int64_t total = 0;
  for (int64_t k = 0; k < data.num_clients(); ++k) {
    EXPECT_GE(data.samples_of(k), 1) << "client " << k << " got no data";
    total += data.samples_of(k);
  }
  // Up to a few duplicates injected for empty shards.
  EXPECT_GE(total, profile.clients_m * profile.samples_per_client_n);
  EXPECT_LE(total,
            profile.clients_m * profile.samples_per_client_n +
                profile.clients_m);
}

TEST(CentralLdaTest, ShardsAreHeterogeneousInSizeAndLabels) {
  DatasetProfile profile = CentralLdaProfile();
  profile.dirichlet_beta = 0.1;  // strong skew
  FederatedDataset data = BuildFederatedData(profile, 1);
  std::set<int64_t> sizes;
  int64_t single_label_clients = 0;
  for (int64_t k = 0; k < data.num_clients(); ++k) {
    sizes.insert(data.samples_of(k));
    std::set<int64_t> labels(data.client_data(k).labels().begin(),
                             data.client_data(k).labels().end());
    if (labels.size() <= 2) ++single_label_clients;
  }
  EXPECT_GT(sizes.size(), 3u) << "LDA shards should vary in size";
  EXPECT_GT(single_label_clients, 0)
      << "beta=0.1 should produce label-concentrated shards";
}

TEST(CentralLdaTest, DeterministicInSeed) {
  DatasetProfile profile = CentralLdaProfile();
  FederatedDataset a = BuildFederatedData(profile, 5);
  FederatedDataset b = BuildFederatedData(profile, 5);
  ASSERT_EQ(a.samples_of(0), b.samples_of(0));
  EXPECT_TRUE(
      a.client_data(0).features().BitwiseEquals(b.client_data(0).features()));
}

TEST(CentralLdaTest, FatsTrainsOnUnequalShards) {
  DatasetProfile profile = CentralLdaProfile();
  FederatedDataset data = BuildFederatedData(profile, 1);
  FatsConfig config = FatsConfig::FromProfile(profile);
  config.seed = 3;
  FatsTrainer trainer(profile.model, config, &data);
  trainer.Train();
  EXPECT_EQ(trainer.log().records().size(),
            static_cast<size_t>(profile.rounds_r));
  EXPECT_GT(trainer.EvaluateTestAccuracy(), 0.3);
}

TEST(CentralLdaTest, UnlearningWorksOnUnequalShards) {
  DatasetProfile profile = CentralLdaProfile();
  FederatedDataset data = BuildFederatedData(profile, 1);
  FatsConfig config = FatsConfig::FromProfile(profile);
  config.seed = 3;
  FatsTrainer trainer(profile.model, config, &data);
  trainer.Train();
  // Unlearn a used sample from the smallest shard (worst case for the
  // batch-size clamp).
  int64_t smallest = 0;
  for (int64_t k = 1; k < data.num_clients(); ++k) {
    if (data.samples_of(k) < data.samples_of(smallest)) smallest = k;
  }
  UnlearningService service(&trainer);
  // Delete samples from the smallest shard one at a time until one remains.
  while (data.num_active_samples(smallest) > 1) {
    const int64_t index = data.active_sample_indices(smallest)[0];
    ASSERT_TRUE(service
                    .ExecuteStream({{.kind = UnlearningRequest::Kind::kSample,
                                     .sample = {smallest, index},
                                     .request_iter = config.total_iters_t()}})
                    .ok());
  }
  EXPECT_EQ(data.num_active_samples(smallest), 1);
}

}  // namespace
}  // namespace fats
