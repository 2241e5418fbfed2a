// State-tiering exactness: the trainer's observable trace — global
// parameters, every recorded selection / minibatch / model, the round log,
// the communication counters — must be bitwise identical whether history
// lives in flat resident blocks, compressed sealed blobs, or mmap-backed
// spill segments. The storage knobs in FatsConfig are execution knobs like
// num_threads (DESIGN.md §7.8): they bound memory, never values. This
// includes the hard part, unlearning: truncation + replay re-reads cold
// history and substitutes minibatches inside sealed blocks, and the result
// must still match the resident run bit for bit.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/fats_trainer.h"
#include "core/unlearning_service.h"
#include "test_workloads.h"

namespace fats {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

struct TrainerRun {
  FederatedDataset data;
  FatsConfig config;
  std::unique_ptr<FatsTrainer> trainer;
};

// Tiny block / cache budgets so a 4-round run seals, spills, and evicts:
// with 2 iterations per block and one resident sealed blob, most of the
// history is cold by the time replay reads it back.
void ApplyTinyStateBudgets(FatsConfig* config, const std::string& spill_dir) {
  config->state_spill_dir = spill_dir;
  config->state_block_iters = 2;
  config->state_resident_sealed_blocks = 1;
  config->state_decoded_cache_blocks = 2;
}

TrainerRun MakeRun(const std::string& spill_dir) {
  TrainerRun run;
  run.data = TinyImageData(6, 10);
  run.config = TinyFatsConfig(6, 10, /*rounds=*/4, /*e=*/2);
  if (!spill_dir.empty()) ApplyTinyStateBudgets(&run.config, spill_dir);
  run.trainer =
      std::make_unique<FatsTrainer>(TinyModelSpec(), run.config, &run.data);
  return run;
}

void ExpectIdenticalState(FatsTrainer* resident, FatsTrainer* tiered) {
  EXPECT_TRUE(
      resident->global_params().BitwiseEquals(tiered->global_params()))
      << "global parameters diverged";
  EXPECT_EQ(resident->trained_through(), tiered->trained_through());
  EXPECT_EQ(resident->local_iterations_executed(),
            tiered->local_iterations_executed());
  EXPECT_EQ(resident->generation(), tiered->generation());

  const StateStore& a = resident->store();
  const StateStore& b = tiered->store();
  ASSERT_EQ(a.SelectionRounds(), b.SelectionRounds());
  for (int64_t round : a.SelectionRounds()) {
    EXPECT_EQ(*a.GetClientSelection(round), *b.GetClientSelection(round))
        << "selection of round " << round;
  }
  ASSERT_EQ(a.GlobalModelRounds(), b.GlobalModelRounds());
  for (int64_t round : a.GlobalModelRounds()) {
    EXPECT_TRUE(
        a.GetGlobalModel(round)->BitwiseEquals(*b.GetGlobalModel(round)))
        << "global model of round " << round;
  }
  ASSERT_EQ(a.MinibatchKeys(), b.MinibatchKeys());
  for (const auto& [iter, client] : a.MinibatchKeys()) {
    EXPECT_EQ(*a.GetMinibatch(iter, client), *b.GetMinibatch(iter, client))
        << "minibatch at t=" << iter << " client=" << client;
  }
  EXPECT_TRUE(a.IndicesConsistentWithRecords());
  EXPECT_TRUE(b.IndicesConsistentWithRecords());

  const auto& log_a = resident->log().records();
  const auto& log_b = tiered->log().records();
  ASSERT_EQ(log_a.size(), log_b.size());
  for (size_t i = 0; i < log_a.size(); ++i) {
    EXPECT_EQ(log_a[i].round, log_b[i].round);
    // Exact double equality on purpose: the tier a record is read from must
    // not perturb a single bit of the replayed arithmetic.
    EXPECT_EQ(log_a[i].mean_local_loss, log_b[i].mean_local_loss);
    EXPECT_EQ(log_a[i].recomputation, log_b[i].recomputation);
  }
  // Records carry no accuracy; every stored round model must evaluate to
  // the same double on both trainers.
  for (int64_t round : a.GlobalModelRounds()) {
    EXPECT_EQ(resident->EvaluateRoundAccuracy(round),
              tiered->EvaluateRoundAccuracy(round))
        << "accuracy of round " << round;
  }

  EXPECT_EQ(resident->comm_stats().rounds(), tiered->comm_stats().rounds());
  EXPECT_EQ(resident->comm_stats().uplink_bytes(),
            tiered->comm_stats().uplink_bytes());
  EXPECT_EQ(resident->comm_stats().downlink_bytes(),
            tiered->comm_stats().downlink_bytes());
  EXPECT_EQ(resident->comm_stats().messages(), tiered->comm_stats().messages());
}

TEST(StateExactnessTest, TrainingIsBitIdenticalWithSpill) {
  TrainerRun resident = MakeRun("");
  TrainerRun tiered = MakeRun(FreshDir("state_exact_train"));
  resident.trainer->Train();
  tiered.trainer->Train();
  // The tiered run must actually have exercised the disk tier, or this test
  // proves nothing.
  EXPECT_GT(tiered.trainer->store().SpilledBytes(), 0);
  EXPECT_EQ(resident.trainer->store().SpilledBytes(), 0);
  ExpectIdenticalState(resident.trainer.get(), tiered.trainer.get());
}

TEST(StateExactnessTest, TrainingIsBitIdenticalCompressedOnly) {
  // Tiny budgets but no spill dir: sealed blobs stay resident compressed.
  TrainerRun resident = MakeRun("");
  TrainerRun compressed = MakeRun("");
  ApplyTinyStateBudgets(&compressed.config, "");
  compressed.trainer = std::make_unique<FatsTrainer>(
      TinyModelSpec(), compressed.config, &compressed.data);
  resident.trainer->Train();
  compressed.trainer->Train();
  EXPECT_EQ(compressed.trainer->store().SpilledBytes(), 0);
  ExpectIdenticalState(resident.trainer.get(), compressed.trainer.get());
}

TEST(StateExactnessTest, SampleUnlearningReplayIsBitIdentical) {
  TrainerRun resident = MakeRun("");
  TrainerRun tiered = MakeRun(FreshDir("state_exact_sample"));
  resident.trainer->Train();
  tiered.trainer->Train();

  // A spread of targets so the truncation point lands in cold history and
  // the replay substitutes minibatches inside reopened blocks.
  const int64_t t_max = resident.trainer->trained_through();
  std::vector<UnlearningRequest> requests;
  for (const SampleRef& target :
       std::vector<SampleRef>{{0, 0}, {1, 1}, {2, 2}, {3, 3}}) {
    requests.push_back({.kind = UnlearningRequest::Kind::kSample,
                        .sample = target,
                        .request_iter = t_max});
  }
  UnlearningService service_r(resident.trainer.get());
  UnlearningService service_t(tiered.trainer.get());
  auto outcome_r = service_r.ExecuteStream(requests);
  auto outcome_t = service_t.ExecuteStream(requests);
  ASSERT_TRUE(outcome_r.ok()) << outcome_r.status().message();
  ASSERT_TRUE(outcome_t.ok()) << outcome_t.status().message();
  EXPECT_EQ(outcome_r->triggered_requests, outcome_t->triggered_requests);
  EXPECT_EQ(outcome_r->replay_start_iteration,
            outcome_t->replay_start_iteration);
  ExpectIdenticalState(resident.trainer.get(), tiered.trainer.get());
}

TEST(StateExactnessTest, ClientUnlearningRerunIsBitIdentical) {
  TrainerRun resident = MakeRun("");
  TrainerRun tiered = MakeRun(FreshDir("state_exact_client"));
  resident.trainer->Train();
  tiered.trainer->Train();

  const std::vector<int64_t>* first_selection =
      resident.trainer->store().GetClientSelection(1);
  ASSERT_NE(first_selection, nullptr);
  ASSERT_FALSE(first_selection->empty());
  const int64_t target = first_selection->front();

  const UnlearningRequest request = {
      .kind = UnlearningRequest::Kind::kClient,
      .client = target,
      .request_iter = resident.trainer->trained_through()};
  UnlearningService service_r(resident.trainer.get());
  UnlearningService service_t(tiered.trainer.get());
  auto outcome_r = service_r.ExecuteStream({request});
  auto outcome_t = service_t.ExecuteStream({request});
  ASSERT_TRUE(outcome_r.ok()) << outcome_r.status().message();
  ASSERT_TRUE(outcome_t.ok()) << outcome_t.status().message();
  ASSERT_EQ(outcome_r->triggered_requests, 1);
  EXPECT_EQ(outcome_r->triggered_requests, outcome_t->triggered_requests);
  ExpectIdenticalState(resident.trainer.get(), tiered.trainer.get());
}

TEST(StateExactnessTest, PauseAndResumeIsBitIdenticalWithSpill) {
  // Pausing mid-training makes the resumed rounds re-enter via the store's
  // recorded state, some of which is already cold by then.
  TrainerRun resident = MakeRun("");
  TrainerRun tiered = MakeRun(FreshDir("state_exact_resume"));
  resident.trainer->TrainUntil(4);
  tiered.trainer->TrainUntil(4);
  ExpectIdenticalState(resident.trainer.get(), tiered.trainer.get());
  resident.trainer->TrainUntil(8);
  tiered.trainer->TrainUntil(8);
  ExpectIdenticalState(resident.trainer.get(), tiered.trainer.get());
}

TEST(StateExactnessTest, ParallelAndTieredComposeBitIdentically) {
  // Tiering and the deterministic parallel runner are independent knobs;
  // turning both on at once must still reproduce the serial resident trace.
  TrainerRun resident = MakeRun("");
  TrainerRun both = MakeRun(FreshDir("state_exact_parallel"));
  both.config.num_threads = 4;
  both.trainer =
      std::make_unique<FatsTrainer>(TinyModelSpec(), both.config, &both.data);
  resident.trainer->Train();
  both.trainer->Train();
  ExpectIdenticalState(resident.trainer.get(), both.trainer.get());
}

}  // namespace
}  // namespace fats
