#include "core/fats_trainer.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/unlearning_service.h"
#include "test_workloads.h"

namespace fats {
namespace {

TEST(FatsTrainerTest, TrainImprovesAccuracy) {
  FederatedDataset data = TinyImageData(8, 12);
  FatsConfig config = TinyFatsConfig(8, 12, /*rounds=*/10, /*e=*/3);
  FatsTrainer trainer(TinyModelSpec(), config, &data);
  const double before = trainer.EvaluateTestAccuracy();
  trainer.Train();
  EXPECT_GT(trainer.EvaluateTestAccuracy(), before);
  EXPECT_GT(trainer.EvaluateTestAccuracy(), 0.8);
}

TEST(FatsTrainerTest, LogHasOneRecordPerRound) {
  FederatedDataset data = TinyImageData(6, 10);
  FatsConfig config = TinyFatsConfig(6, 10, 5, 2);
  FatsTrainer trainer(TinyModelSpec(), config, &data);
  trainer.Train();
  ASSERT_EQ(trainer.log().records().size(), 5u);
  for (int64_t r = 0; r < 5; ++r) {
    EXPECT_EQ(trainer.log().records()[static_cast<size_t>(r)].round, r + 1);
  }
}

TEST(FatsTrainerTest, DeterministicReplay) {
  FederatedDataset data_a = TinyImageData(6, 10);
  FederatedDataset data_b = TinyImageData(6, 10);
  FatsConfig config = TinyFatsConfig(6, 10);
  FatsTrainer a(TinyModelSpec(), config, &data_a);
  FatsTrainer b(TinyModelSpec(), config, &data_b);
  a.Train();
  b.Train();
  EXPECT_TRUE(a.global_params().BitwiseEquals(b.global_params()));
  // Entire state matches: selections and minibatches per round.
  for (int64_t r = 1; r <= config.rounds_r; ++r) {
    ASSERT_NE(a.store().GetClientSelection(r), nullptr);
    EXPECT_EQ(*a.store().GetClientSelection(r),
              *b.store().GetClientSelection(r));
  }
}

TEST(FatsTrainerTest, StoreRecordsAllAlgorithmicState) {
  FederatedDataset data = TinyImageData(6, 10);
  FatsConfig config = TinyFatsConfig(6, 10, 4, 3);
  FatsTrainer trainer(TinyModelSpec(), config, &data);
  trainer.Train();
  const StateStore& store = trainer.store();
  // Initial and per-round global models.
  EXPECT_NE(store.GetGlobalModel(0), nullptr);
  for (int64_t r = 1; r <= 4; ++r) {
    EXPECT_NE(store.GetGlobalModel(r), nullptr) << "round " << r;
    const std::vector<int64_t>* selection = store.GetClientSelection(r);
    ASSERT_NE(selection, nullptr);
    EXPECT_EQ(static_cast<int64_t>(selection->size()), trainer.K());
    // Every selected client has a minibatch record at every iteration of
    // the round.
    for (int64_t client : *selection) {
      for (int64_t i = (r - 1) * 3 + 1; i <= r * 3; ++i) {
        EXPECT_NE(store.GetMinibatch(i, client), nullptr);
      }
    }
  }
}

TEST(FatsTrainerTest, KAndBMatchConfigDerivation) {
  FederatedDataset data = TinyImageData(8, 12);
  FatsConfig config = TinyFatsConfig(8, 12, 4, 3, 0.5, 0.75);
  FatsTrainer trainer(TinyModelSpec(), config, &data);
  EXPECT_EQ(trainer.K(), config.DeriveK());
  EXPECT_EQ(trainer.b(), config.DeriveB());
}

TEST(FatsTrainerTest, MinibatchSizeIsB) {
  FederatedDataset data = TinyImageData(6, 10);
  FatsConfig config = TinyFatsConfig(6, 10, 3, 2);
  FatsTrainer trainer(TinyModelSpec(), config, &data);
  trainer.Train();
  const std::vector<int64_t>* selection =
      trainer.store().GetClientSelection(1);
  ASSERT_NE(selection, nullptr);
  const std::vector<int64_t>* batch =
      trainer.store().GetMinibatch(1, (*selection)[0]);
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(static_cast<int64_t>(batch->size()), trainer.b());
}

TEST(FatsTrainerTest, CommunicationAccountsKPerRound) {
  FederatedDataset data = TinyImageData(6, 10);
  FatsConfig config = TinyFatsConfig(6, 10, 4, 3);
  FatsTrainer trainer(TinyModelSpec(), config, &data);
  trainer.Train();
  const int64_t d = trainer.model()->NumParameters();
  EXPECT_EQ(trainer.comm_stats().rounds(), 4);
  EXPECT_EQ(trainer.comm_stats().total_bytes(),
            2 * 4 * trainer.K() * d * 4);
}

TEST(FatsTrainerTest, MidRoundRestartReproducesSuffixBitExactly) {
  // Re-running from any iteration with unchanged generation and store must
  // reproduce the original trajectory exactly (the replay property that
  // makes the unlearning coupling work).
  FederatedDataset data_a = TinyImageData(6, 10);
  FatsConfig config = TinyFatsConfig(6, 10, 4, 3);
  FatsTrainer a(TinyModelSpec(), config, &data_a);
  a.Train();
  const Tensor final_a = a.global_params();

  // Second trainer: train fully, then truncate nothing and re-run from a
  // mid-round iteration t0=5 (round 2, second local iteration).
  FederatedDataset data_b = TinyImageData(6, 10);
  FatsTrainer b(TinyModelSpec(), config, &data_b);
  b.Train();
  b.Run(5);
  EXPECT_TRUE(b.global_params().BitwiseEquals(final_a));
}

TEST(FatsTrainerTest, RoundStartRestartReproducesSuffix) {
  FederatedDataset data_a = TinyImageData(6, 10);
  FatsConfig config = TinyFatsConfig(6, 10, 4, 3);
  FatsTrainer a(TinyModelSpec(), config, &data_a);
  a.Train();
  const Tensor final_a = a.global_params();
  a.Run(7);  // round 3 start
  EXPECT_TRUE(a.global_params().BitwiseEquals(final_a));
}

TEST(FatsTrainerTest, GenerationBumpChangesSuffixOnly) {
  FederatedDataset data = TinyImageData(6, 10);
  FatsConfig config = TinyFatsConfig(6, 10, 4, 3);
  FatsTrainer trainer(TinyModelSpec(), config, &data);
  trainer.Train();
  const Tensor round2 = *trainer.store().GetGlobalModel(2);
  const Tensor final_model = trainer.global_params();
  trainer.store().TruncateFromIteration(7, 3);  // drop rounds 3..4
  trainer.BumpGeneration();
  trainer.Run(7);
  // Prefix unchanged, suffix re-randomized.
  EXPECT_TRUE(trainer.store().GetGlobalModel(2)->BitwiseEquals(round2));
  EXPECT_FALSE(trainer.global_params().BitwiseEquals(final_model));
}

TEST(FatsTrainerTest, LocalIterationCounterTracksWork) {
  FederatedDataset data = TinyImageData(6, 10);
  FatsConfig config = TinyFatsConfig(6, 10, 4, 3);
  FatsTrainer trainer(TinyModelSpec(), config, &data);
  trainer.Train();
  // At most K distinct clients per iteration, T iterations.
  EXPECT_LE(trainer.local_iterations_executed(),
            trainer.K() * config.total_iters_t());
  EXPECT_GE(trainer.local_iterations_executed(), config.total_iters_t());
}

// Copies θ^(r) at every OnGlobalModel and files it under the round record
// that follows, so models[i] is the global model behind log record i.
class RoundModelCapture : public TrainEventSink {
 public:
  void OnClientSelection(int64_t, const std::vector<int64_t>&) override {}
  void OnMinibatch(int64_t, int64_t, const std::vector<int64_t>&) override {}
  void OnLocalModel(int64_t, int64_t, const Tensor&) override {}
  void OnGlobalModel(int64_t, const Tensor& params) override {
    pending_ = params;
  }
  void OnRoundRecord(const RoundRecord&) override {
    models.push_back(pending_);
  }
  void OnIterationComplete(const IterationMark&) override {}
  void OnTruncate(int64_t) override {}
  void OnGenerationBump(uint64_t) override {}
  void OnUnlearnBegin() override {}
  void OnUnlearnEnd() override {}

  std::vector<Tensor> models;

 private:
  Tensor pending_;
};

TEST(FatsTrainerTest, RoundAccuracyOnReadMatchesInLoopEvaluation) {
  FederatedDataset data = TinyImageData(8, 12, /*classes=*/3);
  const ModelSpec spec = TinyModelSpec(/*classes=*/3);
  const FatsConfig config = TinyFatsConfig(8, 12, /*rounds=*/6, /*e=*/3);
  FatsTrainer trainer(spec, config, &data);
  RoundModelCapture capture;
  trainer.set_event_sink(&capture);
  const Batch test = data.global_test().AsBatch();
  Model fresh(spec, config.seed);
  std::set<double> seen;

  // Fills the records not filled yet on read and checks each against the
  // value the round loop used to compute: the captured θ^(r) evaluated on
  // the fresh model. global_params() must not move.
  size_t filled = 0;
  auto fill_and_check = [&] {
    ASSERT_EQ(capture.models.size(), trainer.log().records().size());
    for (; filled < trainer.log().records().size(); ++filled) {
      const Tensor before = trainer.global_params();
      const double on_read = trainer.EvaluateRoundAccuracy(
          trainer.log().records()[filled].round);
      EXPECT_TRUE(trainer.global_params().BitwiseEquals(before)) << filled;
      trainer.mutable_log()->SetAccuracy(filled, on_read);
      seen.insert(on_read);
      fresh.SetParameters(capture.models[filled]);
      EXPECT_EQ(on_read, fresh.EvaluateAccuracy(test.inputs, test.labels))
          << "record " << filled;
    }
  };

  trainer.TrainUntil(9);
  const int64_t client = trainer.store().GetClientSelection(1)->front();
  const SampleRef sample{client,
                         trainer.store().GetMinibatch(1, client)->front()};
  const int64_t removed = trainer.store().GetClientSelection(2)->back();
  UnlearningService service(&trainer);

  // Records are valid for the current trajectory only: fill each block
  // before the flush that replays its rounds.
  fill_and_check();
  Result<ServiceFlushStats> stats = service.ExecuteStream(
      {{.kind = UnlearningRequest::Kind::kSample,
        .sample = sample,
        .request_iter = 9}});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->replays, 1);

  fill_and_check();
  stats = service.ExecuteStream({{.kind = UnlearningRequest::Kind::kClient,
                                  .client = removed,
                                  .request_iter = 9}});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->replays, 1);

  trainer.TrainUntil(config.total_iters_t());
  fill_and_check();
  EXPECT_GT(trainer.log().records().size(), 6u);
  // The curve must move, or evaluating the wrong round would go unseen.
  EXPECT_GT(seen.size(), 2u);
  EXPECT_EQ(trainer.log().LastAccuracy(), trainer.EvaluateTestAccuracy());
}

TEST(FatsTrainerDeathTest, MismatchedDatasetAborts) {
  FederatedDataset data = TinyImageData(4, 10);
  FatsConfig config = TinyFatsConfig(6, 10);  // M=6 but data has 4
  EXPECT_DEATH(FatsTrainer(TinyModelSpec(), config, &data),
               "does not match config");
}

TEST(FatsTrainerDeathTest, RunWithoutInitialModelAborts) {
  FederatedDataset data = TinyImageData(6, 10);
  FatsConfig config = TinyFatsConfig(6, 10);
  FatsTrainer trainer(TinyModelSpec(), config, &data);
  EXPECT_DEATH(trainer.Run(1), "missing global model");
}

}  // namespace
}  // namespace fats
