// Failure-injection tests: a checkpoint truncated or corrupted at any byte
// must fail with a clean Status — never crash, hang, or half-restore
// visible state incorrectly.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "io/checkpoint.h"
#include "test_workloads.h"

namespace fats {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
}

struct Env {
  FederatedDataset data;
  FatsConfig config;
  std::unique_ptr<FatsTrainer> trainer;
};

Env MakeEnv(bool train) {
  Env env;
  env.data = TinyImageData(5, 8);
  env.config = TinyFatsConfig(5, 8, 3, 2);
  env.trainer =
      std::make_unique<FatsTrainer>(TinyModelSpec(), env.config, &env.data);
  if (train) env.trainer->Train();
  return env;
}

TEST(CheckpointRobustnessTest, TruncationAtEveryStrideFailsCleanly) {
  const std::string path = TempPath("robust_full.bin");
  Env saved = MakeEnv(true);
  ASSERT_TRUE(SaveTrainerCheckpoint(saved.trainer.get(), path).ok());
  const std::string blob = ReadFile(path);
  ASSERT_GT(blob.size(), 100u);

  const std::string truncated_path = TempPath("robust_truncated.bin");
  // Probe a spread of truncation points including the first and last bytes.
  for (size_t cut = 0; cut < blob.size();
       cut += std::max<size_t>(1, blob.size() / 97)) {
    WriteFile(truncated_path, blob.substr(0, cut));
    Env env = MakeEnv(false);
    Status status = LoadTrainerCheckpoint(truncated_path, env.trainer.get());
    EXPECT_FALSE(status.ok()) << "truncation at " << cut << " was accepted";
  }
}

TEST(CheckpointRobustnessTest, BitFlipsNeverCrash) {
  const std::string path = TempPath("robust_bitflip_src.bin");
  Env saved = MakeEnv(true);
  ASSERT_TRUE(SaveTrainerCheckpoint(saved.trainer.get(), path).ok());
  const std::string blob = ReadFile(path);

  const std::string flipped_path = TempPath("robust_bitflip.bin");
  int accepted = 0;
  for (size_t pos = 8; pos < blob.size();
       pos += std::max<size_t>(1, blob.size() / 61)) {
    std::string corrupted = blob;
    corrupted[pos] = static_cast<char>(corrupted[pos] ^ 0xFF);
    WriteFile(flipped_path, corrupted);
    Env env = MakeEnv(false);
    Status status = LoadTrainerCheckpoint(flipped_path, env.trainer.get());
    // Loading may succeed when the flipped byte lands in benign payload
    // (model weights, accuracies); it must never crash, and structural
    // corruption must be rejected.
    if (status.ok()) ++accepted;
  }
  // Most flips hit structure (lengths, keys) and are rejected.
  SUCCEED() << accepted << " benign flips accepted";
}

TEST(CheckpointRobustnessTest, OtherFormatVersionsRejected) {
  // v6 dropped v5's local-model section; neither older nor newer layouts
  // are parsed, whatever their bytes.
  const std::string path = TempPath("robust_version_src.bin");
  Env saved = MakeEnv(true);
  ASSERT_TRUE(SaveTrainerCheckpoint(saved.trainer.get(), path).ok());
  const std::string blob = ReadFile(path);
  constexpr size_t kVersionOffset = 8 + 8;  // u64 length + "FATSCKPT"
  ASSERT_GT(blob.size(), kVersionOffset + 4);
  ASSERT_EQ(blob[kVersionOffset], 6);

  const std::string versioned_path = TempPath("robust_version.bin");
  for (char version : {4, 5, 7}) {
    std::string other = blob;
    other[kVersionOffset] = version;
    WriteFile(versioned_path, other);
    Env env = MakeEnv(false);
    Status status = LoadTrainerCheckpoint(versioned_path, env.trainer.get());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "version " << static_cast<int>(version);
    EXPECT_EQ(env.trainer->trained_through(), 0);
  }
}

TEST(CheckpointRobustnessTest, EmptyFileRejected) {
  const std::string path = TempPath("robust_empty.bin");
  WriteFile(path, "");
  Env env = MakeEnv(false);
  EXPECT_FALSE(LoadTrainerCheckpoint(path, env.trainer.get()).ok());
}

TEST(CheckpointRobustnessTest, GarbageFileRejected) {
  const std::string path = TempPath("robust_garbage.bin");
  std::string garbage(4096, '\0');
  for (size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<char>((i * 2654435761u) >> 13);
  }
  WriteFile(path, garbage);
  Env env = MakeEnv(false);
  EXPECT_FALSE(LoadTrainerCheckpoint(path, env.trainer.get()).ok());
}

TEST(CheckpointRobustnessTest, TornAtRecordBoundaryRejected) {
  // A write cut exactly at the footer boundary parses every length-prefixed
  // record cleanly — only the footer check can catch it.
  const std::string path = TempPath("robust_torn.bin");
  Env saved = MakeEnv(true);
  ASSERT_TRUE(SaveTrainerCheckpoint(saved.trainer.get(), path).ok());
  const std::string blob = ReadFile(path);
  // The footer is a length-prefixed string: u64 length + 8 bytes. A cut
  // that drops it entirely fails on the footer read.
  ASSERT_GT(blob.size(), 16u);
  WriteFile(path, blob.substr(0, blob.size() - 16));
  {
    Env env = MakeEnv(false);
    EXPECT_FALSE(LoadTrainerCheckpoint(path, env.trainer.get()).ok());
  }

  // A file whose trailing bytes parse as a string but are not the footer
  // magic is rejected with the explicit truncation message.
  std::string bad_footer = blob;
  bad_footer[bad_footer.size() - 1] ^= 0x5A;
  WriteFile(path, bad_footer);
  Env env = MakeEnv(false);
  Status status = LoadTrainerCheckpoint(path, env.trainer.get());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("truncated"), std::string::npos)
      << status.message();
}

TEST(CheckpointRobustnessTest, TrailingGarbageRejected) {
  const std::string path = TempPath("robust_trailing.bin");
  Env saved = MakeEnv(true);
  ASSERT_TRUE(SaveTrainerCheckpoint(saved.trainer.get(), path).ok());
  WriteFile(path, ReadFile(path) + std::string(32, '\7'));

  Env env = MakeEnv(false);
  EXPECT_FALSE(LoadTrainerCheckpoint(path, env.trainer.get()).ok());
}

TEST(CheckpointRobustnessTest, SaveLeavesNoTempFile) {
  const std::string path = TempPath("robust_atomic.bin");
  Env saved = MakeEnv(true);
  ASSERT_TRUE(SaveTrainerCheckpoint(saved.trainer.get(), path).ok());
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good()) << "temp file left behind after successful save";
}

TEST(CheckpointRobustnessTest, FailedRenameKeepsOldCheckpointAndCleansTemp) {
  // Saving over a path occupied by a directory makes the final rename fail;
  // the save must report the error and remove its temp file.
  const std::string path = TempPath("robust_dir_target");
  std::remove(path.c_str());
  ASSERT_EQ(std::system(("mkdir -p " + path).c_str()), 0);
  Env saved = MakeEnv(true);
  Status status = SaveTrainerCheckpoint(saved.trainer.get(), path);
  EXPECT_FALSE(status.ok());
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good()) << "temp file left behind after failed save";
  ASSERT_EQ(std::system(("rmdir " + path).c_str()), 0);
}

TEST(CheckpointRobustnessTest, LoadSweepsStaleTempFile) {
  // A crash between temp-write and rename strands `<path>.tmp`; the next
  // load must remove it (it can never be trusted) while loading the real
  // checkpoint normally.
  const std::string path = TempPath("robust_sweep.bin");
  Env saved = MakeEnv(true);
  ASSERT_TRUE(SaveTrainerCheckpoint(saved.trainer.get(), path).ok());
  WriteFile(path + ".tmp", "half-written checkpoint garbage");

  Env env = MakeEnv(false);
  ASSERT_TRUE(LoadTrainerCheckpoint(path, env.trainer.get()).ok());
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good()) << "stale .tmp survived a successful load";
  EXPECT_TRUE(env.trainer->global_params().BitwiseEquals(
      saved.trainer->global_params()));
}

TEST(CheckpointRobustnessTest, LoadSweepsStaleTempFileEvenWhenLoadFails) {
  const std::string path = TempPath("robust_sweep_fail.bin");
  WriteFile(path, "FATSCKPTgarbage");
  WriteFile(path + ".tmp", "stale temp");
  Env env = MakeEnv(false);
  EXPECT_FALSE(LoadTrainerCheckpoint(path, env.trainer.get()).ok());
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good()) << "stale .tmp survived a failed load";
}

TEST(CheckpointRobustnessTest, CommStatsSurviveRoundTrip) {
  const std::string path = TempPath("robust_comm.bin");
  Env saved = MakeEnv(true);
  const CommStats& before = saved.trainer->comm_stats();
  ASSERT_GT(before.rounds(), 0);
  ASSERT_GT(before.uplink_bytes(), 0);
  ASSERT_TRUE(SaveTrainerCheckpoint(saved.trainer.get(), path).ok());

  Env env = MakeEnv(false);
  ASSERT_TRUE(LoadTrainerCheckpoint(path, env.trainer.get()).ok());
  const CommStats& after = env.trainer->comm_stats();
  EXPECT_EQ(after.rounds(), before.rounds());
  EXPECT_EQ(after.uplink_bytes(), before.uplink_bytes());
  EXPECT_EQ(after.downlink_bytes(), before.downlink_bytes());
  EXPECT_EQ(after.messages(), before.messages());
  EXPECT_EQ(env.trainer->trained_through(), saved.trainer->trained_through());
  EXPECT_EQ(env.trainer->generation(), saved.trainer->generation());
}

TEST(CheckpointRobustnessTest, JournalEpochSurvivesRoundTrip) {
  const std::string path = TempPath("robust_epoch.bin");
  Env saved = MakeEnv(true);
  ASSERT_TRUE(
      SaveTrainerCheckpoint(saved.trainer.get(), path, /*journal_epoch=*/7)
          .ok());
  Env env = MakeEnv(false);
  uint64_t epoch = 0;
  ASSERT_TRUE(LoadTrainerCheckpoint(path, env.trainer.get(), &epoch).ok());
  EXPECT_EQ(epoch, 7u);
}

TEST(CheckpointRobustnessTest, OversizedTensorShapeRejected) {
  // A shape whose volume overflows int64_t (or just exceeds the sanity
  // bound) must fail instead of attempting a giant allocation.
  const std::string path = TempPath("robust_overflow_tensor.bin");
  {
    BinaryWriter writer(path);
    writer.WriteI64Vector({int64_t{1} << 32, int64_t{1} << 32, 3});
    writer.WriteFloatVector({1.0f, 2.0f});
    ASSERT_TRUE(writer.Finish().ok());
  }
  BinaryReader reader(path);
  Result<Tensor> tensor = ReadTensor(&reader);
  ASSERT_FALSE(tensor.ok());
  EXPECT_NE(tensor.status().message().find("overflow"), std::string::npos)
      << tensor.status().message();
}

TEST(CheckpointRobustnessTest, SuccessfulReloadAfterFailedAttempts) {
  // A trainer that survived failed restore attempts can still load a good
  // checkpoint and serve requests.
  const std::string good = TempPath("robust_good.bin");
  const std::string bad = TempPath("robust_bad.bin");
  Env saved = MakeEnv(true);
  ASSERT_TRUE(SaveTrainerCheckpoint(saved.trainer.get(), good).ok());
  WriteFile(bad, "FATSCKPTgarbage");

  Env env = MakeEnv(false);
  EXPECT_FALSE(LoadTrainerCheckpoint(bad, env.trainer.get()).ok());
  ASSERT_TRUE(LoadTrainerCheckpoint(good, env.trainer.get()).ok());
  EXPECT_TRUE(env.trainer->global_params().BitwiseEquals(
      saved.trainer->global_params()));
}

}  // namespace
}  // namespace fats
