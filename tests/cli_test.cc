// End-to-end tests for tools/fats_cli, driven as a subprocess.
//
// The binary path is injected by CMake via FATS_CLI_PATH.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

namespace fats {
namespace {

#ifndef FATS_CLI_PATH
#define FATS_CLI_PATH "build/tools/fats_cli"
#endif

// Per-test-case paths: ctest runs discovered cases as separate processes,
// possibly concurrently, so shared fixed paths race.
std::string Checkpoint() {
  return testing::TempDir() + "/cli_test_" +
         testing::UnitTest::GetInstance()->current_test_info()->name() +
         ".ckpt";
}

/// Runs the CLI with `args`, returns the exit code and captures stdout+err.
int RunCli(const std::string& args, std::string* output) {
  const std::string out_path =
      testing::TempDir() + "/cli_test_" +
      testing::UnitTest::GetInstance()->current_test_info()->name() +
      "_out.txt";
  const std::string command =
      std::string(FATS_CLI_PATH) + " " + args + " > " + out_path + " 2>&1";
  const int raw = std::system(command.c_str());
  std::ifstream in(out_path);
  output->assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  return WEXITSTATUS(raw);
}

std::string CommonFlags() {
  return "--profile=mnist --rounds=6 --checkpoint=" + Checkpoint();
}

class CliTest : public testing::Test {
 protected:
  void SetUp() override {
    std::remove(Checkpoint().c_str());
    std::remove((Checkpoint() + ".deletions").c_str());
  }
};

TEST_F(CliTest, NoArgumentsPrintsUsage) {
  std::string output;
  EXPECT_EQ(RunCli("", &output), 2);
  EXPECT_NE(output.find("usage:"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  std::string output;
  EXPECT_EQ(RunCli("frobnicate", &output), 2);
  EXPECT_NE(output.find("unknown command"), std::string::npos);
}

TEST_F(CliTest, UnknownFlagFails) {
  std::string output;
  EXPECT_EQ(RunCli("train --bogus=1", &output), 2);
  EXPECT_NE(output.find("unknown flag"), std::string::npos);
}

TEST_F(CliTest, FullLifecycle) {
  std::string output;
  // Train halfway and checkpoint.
  ASSERT_EQ(RunCli("train " + CommonFlags() + " --until_iter=15", &output),
            0)
      << output;
  EXPECT_NE(output.find("iteration 15 / 30"), std::string::npos) << output;
  EXPECT_NE(output.find("checkpoint written"), std::string::npos);

  // Unlearn a sample against the checkpoint.
  ASSERT_EQ(RunCli("unlearn-sample " + CommonFlags() +
                       " --client=3 --index=7",
                   &output),
            0)
      << output;
  EXPECT_NE(output.find("unlearned sample"), std::string::npos);

  // Unlearn a client.
  ASSERT_EQ(RunCli("unlearn-client " + CommonFlags() + " --client=9",
                   &output),
            0)
      << output;
  EXPECT_NE(output.find("unlearned client"), std::string::npos);

  // Resume to completion.
  ASSERT_EQ(RunCli("resume " + CommonFlags(), &output), 0) << output;
  EXPECT_NE(output.find("iteration 30 / 30"), std::string::npos) << output;

  // Inspect.
  ASSERT_EQ(RunCli("info " + CommonFlags(), &output), 0) << output;
  EXPECT_NE(output.find("lambda^"), std::string::npos);
  EXPECT_NE(output.find("active=59"), std::string::npos)
      << "deletion journal must keep the data view consistent: " << output;
}

TEST_F(CliTest, UnlearnWithoutCheckpointFails) {
  std::string output;
  EXPECT_EQ(RunCli("unlearn-sample " + CommonFlags() +
                       " --client=0 --index=0",
                   &output),
            1);
  EXPECT_NE(output.find("error:"), std::string::npos);
}

TEST_F(CliTest, UnlearnRequiresTargetFlags) {
  std::string output;
  ASSERT_EQ(RunCli("train " + CommonFlags() + " --until_iter=10", &output),
            0);
  EXPECT_EQ(RunCli("unlearn-sample " + CommonFlags(), &output), 1);
  EXPECT_NE(output.find("--client is required"), std::string::npos);
  EXPECT_EQ(RunCli("unlearn-sample " + CommonFlags() + " --client=1",
                   &output),
            1);
  EXPECT_NE(output.find("--index is required"), std::string::npos);
}

TEST_F(CliTest, ThreadsFlagProducesBitIdenticalCheckpoint) {
  auto read_file = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const std::string serial_ckpt = Checkpoint();
  const std::string parallel_ckpt = Checkpoint() + ".par";
  std::remove(parallel_ckpt.c_str());
  std::string output;
  ASSERT_EQ(RunCli("train --profile=mnist --rounds=4 --threads=1 "
                   "--checkpoint=" + serial_ckpt, &output), 0)
      << output;
  ASSERT_EQ(RunCli("train --profile=mnist --rounds=4 --threads=4 "
                   "--checkpoint=" + parallel_ckpt, &output), 0)
      << output;
  const std::string serial_blob = read_file(serial_ckpt);
  ASSERT_FALSE(serial_blob.empty());
  EXPECT_EQ(serial_blob, read_file(parallel_ckpt))
      << "parallel training must serialize the exact same state as serial";
  std::remove(parallel_ckpt.c_str());
}

/// Extracts the 8-hex-digit model fingerprint from a status block.
std::string ModelHash(const std::string& output) {
  const size_t pos = output.find("crc32=");
  if (pos == std::string::npos) return "";
  return output.substr(pos + 6, 8);
}

TEST_F(CliTest, FaultSpecErrorActionSurfacesAsFailure) {
  std::string output;
  EXPECT_EQ(RunCli("train " + CommonFlags() +
                       " --fault_spec=checkpoint.write.body:1:error",
                   &output),
            1)
      << output;
  EXPECT_NE(output.find("error:"), std::string::npos) << output;
  EXPECT_NE(output.find("failpoint"), std::string::npos) << output;
}

TEST_F(CliTest, MalformedFaultSpecRejected) {
  std::string output;
  EXPECT_EQ(RunCli("train " + CommonFlags() +
                       " --fault_spec=not-a-valid-spec",
                   &output),
            1)
      << output;
}

TEST_F(CliTest, CrashFaultRecoversBitExactlyViaJournal) {
  const std::string ckpt = Checkpoint();
  const std::string jrn = ckpt + ".jrn";
  const std::string ref_ckpt = ckpt + ".ref";
  const std::string ref_jrn = ref_ckpt + ".jrn";
  for (const std::string& p :
       {jrn, jrn + ".tmp", ref_ckpt, ref_ckpt + ".tmp", ref_jrn,
        ref_jrn + ".tmp", ref_ckpt + ".deletions"}) {
    std::remove(p.c_str());
  }

  // Uninterrupted journaled reference run.
  std::string ref_out;
  ASSERT_EQ(RunCli("train --profile=mnist --rounds=6 --checkpoint=" +
                       ref_ckpt + " --journal=" + ref_jrn,
                   &ref_out),
            0)
      << ref_out;
  const std::string ref_hash = ModelHash(ref_out);
  ASSERT_EQ(ref_hash.size(), 8u) << ref_out;

  // Same run killed mid-training by an armed crash failpoint: the process
  // must die with the dedicated crash exit code, not a clean failure.
  std::string output;
  EXPECT_EQ(RunCli("train " + CommonFlags() + " --journal=" + jrn +
                       " --fault_spec=trainer.iter.commit:7:crash",
                   &output),
            86)
      << output;

  // Re-running with the journal recovers and finishes; the final model is
  // bit-identical to the uninterrupted run.
  ASSERT_EQ(RunCli("train " + CommonFlags() + " --journal=" + jrn, &output),
            0)
      << output;
  EXPECT_EQ(ModelHash(output), ref_hash)
      << "recovered model must match the uninterrupted run: " << output;
}

TEST_F(CliTest, LogCsvLastAccuracyMatchesStatusLine) {
  const std::string csv_path = Checkpoint() + ".csv";
  std::remove(csv_path.c_str());
  std::string output;
  ASSERT_EQ(RunCli("train " + CommonFlags() + " --log_csv=" + csv_path,
                   &output),
            0)
      << output;
  const size_t pos = output.find("accuracy : ");
  ASSERT_NE(pos, std::string::npos) << output;
  const std::string status_accuracy = output.substr(pos + 11, 6);

  // The last CSV row is the final round, whose stored global model is the
  // model the status line evaluated.
  std::ifstream in(csv_path);
  std::string line, last;
  int rows = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    last = line;
    ++rows;
  }
  ASSERT_EQ(rows, 7) << "header + one row per round";
  const size_t comma = last.find(',');
  ASSERT_NE(comma, std::string::npos) << last;
  const double csv_accuracy = std::stod(last.substr(comma + 1));
  EXPECT_GT(csv_accuracy, 0.0) << last;
  char formatted[16];
  std::snprintf(formatted, sizeof(formatted), "%.4f", csv_accuracy);
  EXPECT_EQ(std::string(formatted), status_accuracy) << last;
  std::remove(csv_path.c_str());
}

TEST_F(CliTest, DoubleDeletionRejected) {
  std::string output;
  ASSERT_EQ(RunCli("train " + CommonFlags(), &output), 0);
  ASSERT_EQ(RunCli("unlearn-client " + CommonFlags() + " --client=2",
                   &output),
            0);
  EXPECT_EQ(RunCli("unlearn-client " + CommonFlags() + " --client=2",
                   &output),
            1)
      << output;
  EXPECT_NE(output.find("already removed"), std::string::npos) << output;
}

}  // namespace
}  // namespace fats
