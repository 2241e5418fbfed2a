#include "io/checkpoint.h"

#include <gtest/gtest.h>

#include "core/unlearning_service.h"
#include "test_workloads.h"

namespace fats {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(TensorSerializationTest, RoundTrip) {
  const std::string path = TempPath("tensor_roundtrip.bin");
  Tensor original({2, 3}, {1, 2, 3, 4, 5, 6});
  {
    BinaryWriter writer(path);
    WriteTensor(original, &writer);
    WriteTensor(Tensor(), &writer);  // empty tensor
    ASSERT_TRUE(writer.Finish().ok());
  }
  BinaryReader reader(path);
  Tensor restored = ReadTensor(&reader).value();
  EXPECT_TRUE(restored.BitwiseEquals(original));
  Tensor empty = ReadTensor(&reader).value();
  EXPECT_TRUE(empty.empty());
}

TEST(TensorSerializationTest, CorruptShapeRejected) {
  const std::string path = TempPath("tensor_corrupt.bin");
  {
    BinaryWriter writer(path);
    writer.WriteI64Vector({2, 3});     // shape says 6 elements
    writer.WriteFloatVector({1, 2});   // only 2 provided
    ASSERT_TRUE(writer.Finish().ok());
  }
  BinaryReader reader(path);
  EXPECT_FALSE(ReadTensor(&reader).ok());
}

struct Trained {
  FederatedDataset data;
  FatsConfig config;
  std::unique_ptr<FatsTrainer> trainer;
};

Trained TrainTiny(uint64_t seed = 7) {
  Trained t;
  t.data = TinyImageData(6, 10);
  t.config = TinyFatsConfig(6, 10, 4, 3, 0.5, 0.5, seed);
  t.trainer =
      std::make_unique<FatsTrainer>(TinyModelSpec(), t.config, &t.data);
  t.trainer->Train();
  return t;
}

TEST(CheckpointTest, SaveLoadRestoresEverything) {
  const std::string path = TempPath("trainer_checkpoint.bin");
  Trained original = TrainTiny();
  ASSERT_TRUE(SaveTrainerCheckpoint(original.trainer.get(), path).ok());

  // A fresh trainer over an equivalent dataset.
  Trained restored_env;
  restored_env.data = TinyImageData(6, 10);
  restored_env.config = original.config;
  restored_env.trainer = std::make_unique<FatsTrainer>(
      TinyModelSpec(), restored_env.config, &restored_env.data);
  FatsTrainer* restored = restored_env.trainer.get();
  ASSERT_TRUE(LoadTrainerCheckpoint(path, restored).ok());

  EXPECT_TRUE(restored->global_params().BitwiseEquals(
      original.trainer->global_params()));
  EXPECT_EQ(restored->generation(), original.trainer->generation());
  EXPECT_EQ(restored->trained_through(),
            original.trainer->trained_through());
  EXPECT_EQ(restored->log().records().size(),
            original.trainer->log().records().size());
  EXPECT_EQ(restored->comm_stats().total_bytes(),
            original.trainer->comm_stats().total_bytes());
  EXPECT_EQ(restored->comm_stats().rounds(),
            original.trainer->comm_stats().rounds());
  // Store contents identical.
  for (int64_t r = 0; r <= original.config.rounds_r; ++r) {
    const Tensor* a = original.trainer->store().GetGlobalModel(r);
    const Tensor* b = restored->store().GetGlobalModel(r);
    ASSERT_EQ(a != nullptr, b != nullptr) << "round " << r;
    if (a != nullptr) {
      EXPECT_TRUE(a->BitwiseEquals(*b));
    }
  }
  EXPECT_EQ(restored->store().MinibatchKeys(),
            original.trainer->store().MinibatchKeys());
}

TEST(CheckpointTest, RestoredTrainerServesExactUnlearning) {
  const std::string path = TempPath("trainer_checkpoint_unlearn.bin");
  Trained original = TrainTiny();
  ASSERT_TRUE(SaveTrainerCheckpoint(original.trainer.get(), path).ok());

  // Unlearn on the original.
  SampleRef target{-1, -1};
  for (int64_t k = 0; k < original.data.num_clients() && target.client < 0;
       ++k) {
    for (int64_t i = 0; i < original.data.samples_of(k); ++i) {
      if (original.trainer->store().EarliestSampleUse({k, i}) >= 1) {
        target = {k, i};
        break;
      }
    }
  }
  ASSERT_GE(target.client, 0);
  const UnlearningRequest request = {
      .kind = UnlearningRequest::Kind::kSample,
      .sample = target,
      .request_iter = original.config.total_iters_t()};
  UnlearningService original_service(original.trainer.get());
  ASSERT_TRUE(original_service.ExecuteStream({request}).ok());

  // Restore into a fresh environment and unlearn the same target: the
  // entire pipeline is deterministic, so the results must agree bit-for-bit.
  Trained restored_env;
  restored_env.data = TinyImageData(6, 10);
  restored_env.config = original.config;
  restored_env.trainer = std::make_unique<FatsTrainer>(
      TinyModelSpec(), restored_env.config, &restored_env.data);
  ASSERT_TRUE(LoadTrainerCheckpoint(path, restored_env.trainer.get()).ok());
  UnlearningService restored_service(restored_env.trainer.get());
  ASSERT_TRUE(restored_service.ExecuteStream({request}).ok());
  EXPECT_TRUE(restored_env.trainer->global_params().BitwiseEquals(
      original.trainer->global_params()));
}

TEST(CheckpointTest, MidTrainingCheckpointResumes) {
  const std::string path = TempPath("trainer_checkpoint_mid.bin");
  Trained full = TrainTiny();

  // Iteration 6 ends round 2; iteration 5 is two iterations into it. The
  // checkpoint holds no local models, so resuming at 5 rebuilds them from
  // θ^(1) and the stored mini-batches, round loss included.
  for (int64_t pause : {6, 5}) {
    SCOPED_TRACE(::testing::Message() << "paused at " << pause);
    Trained partial;
    partial.data = TinyImageData(6, 10);
    partial.config = full.config;
    partial.trainer = std::make_unique<FatsTrainer>(
        TinyModelSpec(), partial.config, &partial.data);
    partial.trainer->TrainUntil(pause);
    ASSERT_TRUE(SaveTrainerCheckpoint(partial.trainer.get(), path).ok());

    Trained resumed;
    resumed.data = TinyImageData(6, 10);
    resumed.config = full.config;
    resumed.trainer = std::make_unique<FatsTrainer>(
        TinyModelSpec(), resumed.config, &resumed.data);
    ASSERT_TRUE(LoadTrainerCheckpoint(path, resumed.trainer.get()).ok());
    EXPECT_EQ(resumed.trainer->trained_through(), pause);
    resumed.trainer->TrainUntil(full.config.total_iters_t());
    EXPECT_EQ(resumed.trainer->prefix_steps() > 0,
              pause % full.config.local_iters_e != 0);
    EXPECT_TRUE(resumed.trainer->global_params().BitwiseEquals(
        full.trainer->global_params()));
    const auto& got = resumed.trainer->log().records();
    const auto& want = full.trainer->log().records();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].mean_local_loss, want[i].mean_local_loss)
          << "round " << got[i].round;
    }
  }
}

TEST(CheckpointTest, RejectsWrongMagicAndConfig) {
  const std::string path = TempPath("trainer_checkpoint_bad.bin");
  {
    BinaryWriter writer(path);
    writer.WriteString("NOTACKPT");
    ASSERT_TRUE(writer.Finish().ok());
  }
  Trained env = TrainTiny();
  EXPECT_EQ(LoadTrainerCheckpoint(path, env.trainer.get()).code(),
            StatusCode::kInvalidArgument);

  // Config mismatch: different learning rate.
  const std::string good_path = TempPath("trainer_checkpoint_good.bin");
  ASSERT_TRUE(SaveTrainerCheckpoint(env.trainer.get(), good_path).ok());
  Trained other;
  other.data = TinyImageData(6, 10);
  other.config = env.config;
  other.config.learning_rate *= 2;
  other.trainer = std::make_unique<FatsTrainer>(TinyModelSpec(),
                                                other.config, &other.data);
  EXPECT_EQ(LoadTrainerCheckpoint(good_path, other.trainer.get()).code(),
            StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, MissingFileFails) {
  Trained env = TrainTiny();
  EXPECT_FALSE(
      LoadTrainerCheckpoint("/nonexistent_zzz/x.ckpt", env.trainer.get())
          .ok());
}

}  // namespace
}  // namespace fats
