// Lazy federated datasets (data/federated_dataset.h lazy mode +
// data/paper_configs.h BuildLazyFederatedData): client shards are generated
// on demand from per-client keyed streams and only a bounded number stay
// resident. The contract under test: every materialization — first touch,
// or regeneration after an eviction — is bitwise identical to the eager
// build, deletion overlays survive eviction, and a trainer run on lazy data
// is bit-for-bit the trainer run on eager data.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/fats_trainer.h"
#include "core/unlearning_service.h"
#include "data/federated_dataset.h"
#include "data/paper_configs.h"
#include "util/crc32.h"

namespace fats {
namespace {

// A profile small enough to materialize every shard both ways repeatedly.
DatasetProfile TinyProfile(const std::string& base = "mnist") {
  DatasetProfile p = ScaledProfile(base).value();
  p.clients_m = 8;
  p.samples_per_client_n = 10;
  p.clients_per_round_k = 3;
  p.rounds_r = 3;
  p.local_iters_e = 2;
  p.batch_b = 4;
  p.test_size = 40;
  return p;
}

void ExpectShardsBitwiseEqual(const FederatedDataset& eager,
                              const FederatedDataset& lazy) {
  ASSERT_EQ(eager.num_clients(), lazy.num_clients());
  for (int64_t k = 0; k < eager.num_clients(); ++k) {
    EXPECT_TRUE(
        eager.client_data(k).features().BitwiseEquals(
            lazy.client_data(k).features()))
        << "features of client " << k;
    EXPECT_EQ(eager.client_data(k).labels(), lazy.client_data(k).labels())
        << "labels of client " << k;
    EXPECT_EQ(eager.num_active_samples(k), lazy.num_active_samples(k));
  }
  EXPECT_TRUE(
      eager.global_test().features().BitwiseEquals(
          lazy.global_test().features()));
  EXPECT_EQ(eager.global_test().labels(), lazy.global_test().labels());
}

TEST(LazyDatasetTest, MatchesEagerBitwiseForEveryTaskKind) {
  // One profile per generator family: simulated-LDA image, natural-partition
  // image, and text. The cache holds 3 of 8 shards, so this walk also
  // exercises evict + regenerate, not just first touch.
  for (const char* base : {"mnist", "femnist", "shakespeare"}) {
    const DatasetProfile p = TinyProfile(base);
    const FederatedDataset eager = BuildFederatedData(p, 3);
    LazyDatasetOptions options;
    options.shard_cache_capacity = 3;
    const FederatedDataset lazy = BuildLazyFederatedData(p, 3, options);
    ASSERT_TRUE(lazy.lazy());
    ASSERT_FALSE(eager.lazy());
    ExpectShardsBitwiseEqual(eager, lazy);
    EXPECT_LE(lazy.materialized_shards(), 3);
    EXPECT_EQ(lazy.shard_generations(), 8) << "one generation per shard";
    // Client 0 was evicted during the walk; revisiting regenerates it and
    // the regenerated shard still matches the eager build.
    EXPECT_TRUE(eager.client_data(0).features().BitwiseEquals(
        lazy.client_data(0).features()));
    EXPECT_EQ(lazy.shard_generations(), 9);
  }
}

// CRC-32 of a dataset's feature bytes and of its label bytes.
struct DataPin {
  uint32_t features;
  uint32_t labels;
};

DataPin PinOf(const InMemoryDataset& ds) {
  return {Crc32(ds.features().data(),
                static_cast<size_t>(ds.features().size()) * sizeof(float)),
          Crc32(ds.labels().data(), ds.labels().size() * sizeof(int64_t))};
}

std::string Hex(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", v);
  return buf;
}

void ExpectPin(const InMemoryDataset& ds, DataPin want,
               const std::string& what) {
  const DataPin got = PinOf(ds);
  EXPECT_EQ(Hex(got.features), Hex(want.features)) << what << " features";
  EXPECT_EQ(Hex(got.labels), Hex(want.labels)) << what << " labels";
}

// Golden digests of synthesized data, recorded before any change to the
// generators. The lazy-vs-eager test above cannot catch a change that moves
// both builds together; these pins can. A generator optimization must keep
// every pin; a deliberate change of the synthetic data must re-record them.
TEST(LazyDatasetTest, SynthesizedDataMatchesGoldenPins) {
  struct ShardPin {
    const char* base;
    int64_t client;  // -1 pins the global test set
    DataPin pin;
  };
  const ShardPin pins[] = {
      {"mnist", 0, {0xd268606cu, 0x5a980595u}},
      {"mnist", 7, {0x7dbc8bf5u, 0x697c2d6fu}},
      {"femnist", 3, {0xefb7636du, 0x362b2eafu}},
      {"femnist", -1, {0xfe224139u, 0x31dd6f6au}},
      {"shakespeare", 5, {0x53b76107u, 0xeacac235u}},
  };
  for (const ShardPin& pin : pins) {
    const DatasetProfile p = TinyProfile(pin.base);
    const FederatedDataset eager = BuildFederatedData(p, 3);
    const FederatedDataset lazy = BuildLazyFederatedData(p, 3);
    for (const FederatedDataset* data : {&eager, &lazy}) {
      const std::string what = std::string(pin.base) +
                               (data->lazy() ? " lazy" : " eager") +
                               " client " + std::to_string(pin.client);
      ExpectPin(pin.client < 0 ? data->global_test()
                               : data->client_data(pin.client),
                pin.pin, what);
    }
  }
  ExpectPin(GenerateClientHoldout(TinyProfile("mnist"), 3, /*client=*/6, 12),
            {0xf350d3bfu, 0xbc8905fbu}, "mnist holdout");
  ExpectPin(GenerateClientHoldout(TinyProfile("femnist"), 3, /*client=*/2, 12),
            {0x5d4b6bcfu, 0x3d9e168eu}, "femnist holdout");
}

TEST(LazyDatasetTest, RegenerationIsDeterministic) {
  const DatasetProfile p = TinyProfile();
  LazyDatasetOptions options;
  options.shard_cache_capacity = 2;
  FederatedDataset lazy = BuildLazyFederatedData(p, 9, options);
  // Capture client 0, thrash the cache so it is evicted, read it again.
  const Tensor first = lazy.client_data(0).features();
  for (int64_t k = 1; k < p.clients_m; ++k) (void)lazy.client_data(k);
  const int64_t generations_before = lazy.shard_generations();
  EXPECT_TRUE(lazy.client_data(0).features().BitwiseEquals(first));
  EXPECT_GT(lazy.shard_generations(), generations_before)
      << "client 0 should have been regenerated, not cached";
}

TEST(LazyDatasetTest, DeletionsSurviveEviction) {
  const DatasetProfile p = TinyProfile();
  LazyDatasetOptions options;
  options.shard_cache_capacity = 2;
  FederatedDataset lazy = BuildLazyFederatedData(p, 9, options);
  ASSERT_TRUE(lazy.RemoveSample({1, 4}).ok());
  ASSERT_TRUE(lazy.RemoveClient(5).ok());
  // Thrash the cache so both touched shards are regenerated from scratch.
  for (int64_t k = 0; k < p.clients_m; ++k) {
    if (lazy.client_active(k)) (void)lazy.client_data(k);
  }
  EXPECT_FALSE(lazy.sample_active(1, 4));
  EXPECT_TRUE(lazy.sample_active(1, 3));
  EXPECT_EQ(lazy.num_active_samples(1), p.samples_per_client_n - 1);
  EXPECT_EQ(lazy.active_sample_indices(1).size(),
            static_cast<size_t>(p.samples_per_client_n - 1));
  EXPECT_FALSE(lazy.client_active(5));
  EXPECT_EQ(lazy.RemoveSample({1, 4}).code(),
            StatusCode::kFailedPrecondition);
  // Batch gather honors the overlay after regeneration too.
  Batch batch = lazy.MakeBatch(1, {0, 3});
  EXPECT_EQ(batch.size(), 2);
}

TEST(LazyDatasetTest, TrainerOnLazyDataIsBitIdenticalToEager) {
  const DatasetProfile p = TinyProfile();
  const FatsConfig config = FatsConfig::FromProfile(p);

  FederatedDataset eager = BuildFederatedData(p, 3);
  LazyDatasetOptions options;
  options.shard_cache_capacity = 2;
  FederatedDataset lazy = BuildLazyFederatedData(p, 3, options);

  FatsTrainer trainer_e(p.model, config, &eager);
  FatsTrainer trainer_l(p.model, config, &lazy);
  trainer_e.Train();
  trainer_l.Train();
  EXPECT_TRUE(
      trainer_e.global_params().BitwiseEquals(trainer_l.global_params()));
  ASSERT_EQ(trainer_e.log().records().size(), trainer_l.log().records().size());
  for (size_t i = 0; i < trainer_e.log().records().size(); ++i) {
    EXPECT_EQ(trainer_e.log().records()[i].mean_local_loss,
              trainer_l.log().records()[i].mean_local_loss);
  }
  for (int64_t round : trainer_e.store().GlobalModelRounds()) {
    EXPECT_EQ(trainer_e.EvaluateRoundAccuracy(round),
              trainer_l.EvaluateRoundAccuracy(round))
        << "accuracy of round " << round;
  }

  // Unlearning replays re-read minibatches through the lazy gather path.
  const int64_t t_max = trainer_e.trained_through();
  const std::vector<UnlearningRequest> requests = {
      {.kind = UnlearningRequest::Kind::kSample,
       .sample = {0, 0},
       .request_iter = t_max},
      {.kind = UnlearningRequest::Kind::kSample,
       .sample = {2, 2},
       .request_iter = t_max}};
  UnlearningService service_e(&trainer_e);
  UnlearningService service_l(&trainer_l);
  auto outcome_e = service_e.ExecuteStream(requests);
  auto outcome_l = service_l.ExecuteStream(requests);
  ASSERT_TRUE(outcome_e.ok()) << outcome_e.status().message();
  ASSERT_TRUE(outcome_l.ok()) << outcome_l.status().message();
  EXPECT_EQ(outcome_e->triggered_requests, outcome_l->triggered_requests);
  EXPECT_TRUE(
      trainer_e.global_params().BitwiseEquals(trainer_l.global_params()));
}

TEST(LazyDatasetTest, EagerModeIsUnchangedByLazyPlumbing) {
  // The eager constructor must report lazy() == false and keep the
  // zero-overhead path: no generations, no materialized-shard accounting.
  const DatasetProfile p = TinyProfile();
  FederatedDataset eager = BuildFederatedData(p, 3);
  EXPECT_FALSE(eager.lazy());
  EXPECT_EQ(eager.materialized_shards(), eager.num_clients());
  EXPECT_EQ(eager.shard_generations(), 0);
}

TEST(LazyDatasetDeathTest, CentralLdaProfileRefusesLazyBuild) {
  DatasetProfile p = TinyProfile();
  p.central_lda_partition = true;
  EXPECT_DEATH(BuildLazyFederatedData(p, 3), "central_lda_partition");
}

}  // namespace
}  // namespace fats
