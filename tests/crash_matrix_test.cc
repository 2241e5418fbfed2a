// The crash matrix: kill the process at every registered failpoint (twice,
// at different hit counts, plus torn journal writes), recover from the
// checkpoint + journal, and require the recovered run to be bit-identical
// to an uninterrupted one — model, training log, and communication ledger —
// and for a subsequent unlearning flush (a sample deletion and a client
// removal, coalesced into one replay) to match exactly.
//
// Children are forked (num_threads stays 1, so the process is single-
// threaded and fork-safe) and die via std::_Exit inside the failpoint, so
// only bytes already fflush'd to the OS survive — exactly the durability
// contract the journal claims.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/unlearning_service.h"
#include "io/train_journal.h"
#include "test_workloads.h"
#include "util/failpoint.h"

namespace fats {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

constexpr int64_t kHalf = 4;
constexpr int64_t kTotal = 8;  // R=4, E=2

// Tests re-run against the same TempDir: stale durable files from a prior
// invocation must never leak into a scenario.
void RemoveDurableFiles(const std::string& ckpt, const std::string& jrn) {
  for (const std::string& p : {ckpt, ckpt + ".tmp", jrn, jrn + ".tmp"}) {
    std::remove(p.c_str());
  }
}

struct Env {
  FederatedDataset data;
  FatsConfig config;
  std::unique_ptr<FatsTrainer> trainer;
};

Env MakeEnv(const std::string& fault_spec = "",
            const std::string& spill_dir = "") {
  Env env;
  env.data = TinyImageData(5, 8);
  env.config = TinyFatsConfig(5, 8, 4, 2);
  env.config.fault_spec = fault_spec;
  if (!spill_dir.empty()) {
    // Tiny tier budgets so the 8-iteration schedule seals, spills, and
    // evicts — otherwise the state.* failpoints are never crossed.
    env.config.state_spill_dir = spill_dir;
    env.config.state_block_iters = 2;
    env.config.state_resident_sealed_blocks = 1;
    env.config.state_decoded_cache_blocks = 2;
  }
  env.trainer =
      std::make_unique<FatsTrainer>(TinyModelSpec(), env.config, &env.data);
  return env;
}

struct CommSnapshot {
  int64_t rounds = 0;
  int64_t uplink = 0;
  int64_t downlink = 0;
  int64_t messages = 0;
  int64_t retransmits = 0;
  int64_t retransmit_bytes = 0;
};

CommSnapshot Snapshot(FatsTrainer* trainer) {
  CommSnapshot s;
  s.rounds = trainer->comm_stats().rounds();
  s.uplink = trainer->comm_stats().uplink_bytes();
  s.downlink = trainer->comm_stats().downlink_bytes();
  s.messages = trainer->comm_stats().messages();
  s.retransmits = trainer->comm_stats().retransmits();
  s.retransmit_bytes = trainer->comm_stats().retransmit_bytes();
  return s;
}

// Ground truth from a plain in-memory run (no durability layer at all):
// recovery must land on exactly this state.
struct Reference {
  Tensor trained;
  std::string trained_log_csv;
  CommSnapshot trained_comm;
  // One flush: a sample training actually used, then a participating
  // client that does not own it — both force re-computation, and the client
  // removal re-draws rounds (RedrawRound) inside the journal bracket.
  std::vector<UnlearningRequest> requests;
  Tensor unlearned;
  ServiceFlushStats stats;
};

// First sample with a recorded use, so unlearning it forces re-computation.
SampleRef PickUsedSample(const FatsTrainer& trainer) {
  for (int64_t client = 0; client < 5; ++client) {
    for (int64_t index = 0; index < 8; ++index) {
      if (trainer.store().EarliestSampleUse({client, index}) > 0) {
        return {client, index};
      }
    }
  }
  return {0, 0};
}

// First participating client other than `skip`.
int64_t PickParticipatingClient(const FatsTrainer& trainer, int64_t skip) {
  for (int64_t client = 0; client < 5; ++client) {
    if (client != skip && trainer.store().EarliestClientRound(client) > 0) {
      return client;
    }
  }
  return -1;
}

// Flushes the reference requests through a fresh service on `trainer`.
Result<ServiceFlushStats> FlushReferenceRequests(FatsTrainer* trainer,
                                                 const Reference& ref) {
  UnlearningService service(trainer);
  return service.ExecuteStream(ref.requests);
}

const Reference& GetReference() {
  static const Reference* kRef = [] {
    auto* ref = new Reference();
    Env env = MakeEnv();
    env.trainer->TrainUntil(kHalf);
    env.trainer->TrainUntil(kTotal);
    ref->trained = env.trainer->global_params();
    ref->trained_log_csv = env.trainer->log().ToCsv();
    ref->trained_comm = Snapshot(env.trainer.get());
    const SampleRef sample = PickUsedSample(*env.trainer);
    ref->requests = {
        {.kind = UnlearningRequest::Kind::kSample,
         .sample = sample,
         .request_iter = kTotal},
        {.kind = UnlearningRequest::Kind::kClient,
         .client = PickParticipatingClient(*env.trainer, sample.client),
         .request_iter = kTotal}};
    Result<ServiceFlushStats> stats =
        FlushReferenceRequests(env.trainer.get(), *ref);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    ref->stats = *stats;
    ref->unlearned = env.trainer->global_params();
    return ref;
  }();
  return *kRef;
}

// The scenario every child executes: durable train to kHalf, rotate the
// checkpoint, train to kTotal. Returns a child exit code (0 = survived).
int RunChildScenario(const std::string& ckpt, const std::string& jrn,
                     const std::string& fault_spec,
                     const std::string& spill_dir = "") {
  Env env = MakeEnv(fault_spec, spill_dir);
  Result<std::unique_ptr<DurableTrainingSession>> session =
      DurableTrainingSession::Open(ckpt, jrn, env.trainer.get());
  if (!session.ok()) return 90;
  env.trainer->TrainUntil(kHalf);
  if (!(*session)->Checkpoint().ok()) return 91;
  env.trainer->TrainUntil(kTotal);
  if (!(*session)->status().ok()) return 92;
  return 0;
}

// Forks `child`, reaps it, and returns its exit code (must exit, not
// signal).
template <typename Fn>
int ForkAndReap(Fn child) {
  const pid_t pid = fork();
  if (pid == 0) std::_Exit(child());
  EXPECT_GT(pid, 0) << "fork failed";
  int wstatus = 0;
  EXPECT_EQ(waitpid(pid, &wstatus, 0), pid);
  EXPECT_TRUE(WIFEXITED(wstatus)) << "child killed by signal";
  return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
}

// Recovers from whatever the crashed child left behind, finishes training,
// and requires bit-identical state plus bit-identical subsequent
// unlearning.
void ExpectRecoversExactly(const std::string& ckpt, const std::string& jrn,
                           const std::string& label,
                           const std::string& spill_dir = "") {
  const Reference& ref = GetReference();
  Env env = MakeEnv("", spill_dir);
  Result<std::unique_ptr<DurableTrainingSession>> session =
      DurableTrainingSession::Open(ckpt, jrn, env.trainer.get());
  ASSERT_TRUE(session.ok()) << label << ": " << session.status().ToString();
  env.trainer->TrainUntil(kTotal);
  ASSERT_TRUE((*session)->status().ok())
      << label << ": " << (*session)->status().ToString();

  EXPECT_TRUE(env.trainer->global_params().BitwiseEquals(ref.trained))
      << label << ": recovered model differs from uninterrupted run";
  EXPECT_EQ(env.trainer->trained_through(), kTotal) << label;
  EXPECT_EQ(env.trainer->log().ToCsv(), ref.trained_log_csv) << label;
  const CommSnapshot comm = Snapshot(env.trainer.get());
  EXPECT_EQ(comm.rounds, ref.trained_comm.rounds) << label;
  EXPECT_EQ(comm.uplink, ref.trained_comm.uplink) << label;
  EXPECT_EQ(comm.downlink, ref.trained_comm.downlink) << label;
  EXPECT_EQ(comm.messages, ref.trained_comm.messages) << label;
  EXPECT_EQ(comm.retransmits, ref.trained_comm.retransmits) << label;
  EXPECT_EQ(comm.retransmit_bytes, ref.trained_comm.retransmit_bytes)
      << label;

  Result<ServiceFlushStats> stats =
      FlushReferenceRequests(env.trainer.get(), ref);
  ASSERT_TRUE(stats.ok()) << label << ": " << stats.status().ToString();
  EXPECT_EQ(stats->triggered_requests, ref.stats.triggered_requests) << label;
  EXPECT_EQ(stats->replay_start_iteration, ref.stats.replay_start_iteration)
      << label;
  EXPECT_EQ(stats->redrawn_rounds, ref.stats.redrawn_rounds) << label;
  EXPECT_TRUE(env.trainer->global_params().BitwiseEquals(ref.unlearned))
      << label << ": unlearning after recovery differs";
}

TEST(CrashMatrixTest, KillAtEveryFailpointRecoversBitExactly) {
  // Enumerate the failpoints by crossing them once in-process; this durable
  // run doubles as the sanity check that the durability layer is invisible
  // to training.
  {
    RemoveDurableFiles(TempPath("cm_reg.ckpt"), TempPath("cm_reg.jrn"));
    Env env = MakeEnv();
    Result<std::unique_ptr<DurableTrainingSession>> session =
        DurableTrainingSession::Open(TempPath("cm_reg.ckpt"),
                                     TempPath("cm_reg.jrn"),
                                     env.trainer.get());
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    env.trainer->TrainUntil(kHalf);
    ASSERT_TRUE((*session)->Checkpoint().ok());
    env.trainer->TrainUntil(kTotal);
    ASSERT_TRUE(
        env.trainer->global_params().BitwiseEquals(GetReference().trained))
        << "durable run diverged from plain run with no faults armed";
  }

  const std::vector<std::string> sites = failpoint::RegisteredSites();
  ASSERT_GE(sites.size(), 10u) << "expected the scenario to cross every "
                                  "trainer/checkpoint/journal/transport "
                                  "failpoint";
  for (const char* expected :
       {"trainer.iter.commit", "checkpoint.rename", "journal.append",
        "transport.send", "transport.recv", "transport.corrupt_frame"}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), expected), sites.end())
        << expected << " never registered";
  }

  int scenario = 0;
  for (const std::string& site : sites) {
    for (int hit : {1, 2}) {
      const std::string label =
          site + ":" + std::to_string(hit) + ":crash";
      const std::string tag = "cm_" + std::to_string(scenario++);
      const std::string ckpt = TempPath(tag + ".ckpt");
      const std::string jrn = TempPath(tag + ".jrn");
      RemoveDurableFiles(ckpt, jrn);
      const int code = ForkAndReap(
          [&] { return RunChildScenario(ckpt, jrn, label); });
      // 0 means the site was not hit `hit` times in this scenario; the
      // journal is then simply complete, and recovery must still be exact.
      ASSERT_TRUE(code == 0 || code == failpoint::kCrashExitCode)
          << label << " exited with " << code;
      ExpectRecoversExactly(ckpt, jrn, label);
    }
  }
}

TEST(CrashMatrixTest, TornJournalWritesRecoverBitExactly) {
  int scenario = 0;
  bool any_torn = false;
  for (int hit : {1, 5, 23, 52}) {
    const std::string label =
        "journal.append:" + std::to_string(hit) + ":torn-write";
    const std::string tag = "cm_torn_" + std::to_string(scenario++);
    const std::string ckpt = TempPath(tag + ".ckpt");
    const std::string jrn = TempPath(tag + ".jrn");
    RemoveDurableFiles(ckpt, jrn);
    const int code =
        ForkAndReap([&] { return RunChildScenario(ckpt, jrn, label); });
    ASSERT_TRUE(code == 0 || code == failpoint::kCrashExitCode)
        << label << " exited with " << code;
    any_torn |= code == failpoint::kCrashExitCode;
    ExpectRecoversExactly(ckpt, jrn, label);
  }
  EXPECT_TRUE(any_torn) << "no torn write was actually injected";
}

TEST(CrashMatrixTest, SpillTierCrashWindowsRecoverBitExactly) {
  // Spill-enabled rows: the same durable schedule, but with the state
  // store's history tiered into segment files and a decoded cache small
  // enough to evict mid-run. Killing inside a segment write (before or
  // after frames reached the file) or at a decoded-block evict must leave
  // nothing the journal replay cannot reconstruct: segments are a
  // process-ephemeral cache tier, so recovery reopens the spill dir,
  // sweeps the crashed process's orphaned `seg-*` files, and must land
  // bit-identical to the resident reference — subsequent unlearning too.
  int scenario = 0;
  bool any_crash = false;
  for (const char* site : {"state.spill.write", "state.block.evict"}) {
    for (int hit : {1, 2}) {
      const std::string label =
          std::string(site) + ":" + std::to_string(hit) + ":crash";
      const std::string tag = "cm_spill_" + std::to_string(scenario++);
      const std::string ckpt = TempPath(tag + ".ckpt");
      const std::string jrn = TempPath(tag + ".jrn");
      const std::string spill = TempPath(tag + ".segs");
      RemoveDurableFiles(ckpt, jrn);
      const int code = ForkAndReap(
          [&] { return RunChildScenario(ckpt, jrn, label, spill); });
      // 0 means this site was not hit `hit` times (evicts depend on read
      // traffic); the journal is then complete and recovery is still exact.
      ASSERT_TRUE(code == 0 || code == failpoint::kCrashExitCode)
          << label << " exited with " << code;
      any_crash |= code == failpoint::kCrashExitCode;
      ExpectRecoversExactly(ckpt, jrn, label, spill);
    }
  }
  EXPECT_TRUE(any_crash) << "no spill-tier crash window was exercised";
}

TEST(CrashMatrixTest, CrashMidUnlearningRollsBackAtomically) {
  const Reference& ref = GetReference();
  // Both fixed targets must trigger re-computation, and the client removal
  // must re-draw rounds, for this test to bite.
  ASSERT_NE(ref.requests[1].client, -1);
  ASSERT_EQ(ref.stats.triggered_requests, 2);
  ASSERT_GT(ref.stats.redrawn_rounds, 0);
  ASSERT_EQ(ref.stats.replays, 1);

  // Training commits `kTotal` iterations, and the flush's history rewrites
  // (batch substitution, store truncation, round re-draws) commit none, so
  // hit kTotal+1 lands on the first committed iteration of the coalesced
  // replay — after both requests' rewrites, inside the open kOpBegin
  // bracket.
  const std::string spec =
      "trainer.iter.commit:" + std::to_string(kTotal + 1) + ":crash";
  const std::string ckpt = TempPath("cm_unlearn.ckpt");
  const std::string jrn = TempPath("cm_unlearn.jrn");
  RemoveDurableFiles(ckpt, jrn);
  const int code = ForkAndReap([&] {
    Env env = MakeEnv(spec);
    Result<std::unique_ptr<DurableTrainingSession>> session =
        DurableTrainingSession::Open(ckpt, jrn, env.trainer.get());
    if (!session.ok()) return 90;
    env.trainer->TrainUntil(kTotal);
    return FlushReferenceRequests(env.trainer.get(), ref).ok() ? 0 : 93;
  });
  ASSERT_EQ(code, failpoint::kCrashExitCode)
      << "crash was expected inside the coalesced replay";

  // The half-done flush must roll back both requests to the pre-unlearning
  // state (matching the not-yet-committed data-side deletions), and
  // re-flushing them must then match the uninterrupted flush bit for bit.
  Env env = MakeEnv();
  Result<std::unique_ptr<DurableTrainingSession>> session =
      DurableTrainingSession::Open(ckpt, jrn, env.trainer.get());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(env.trainer->trained_through(), kTotal);
  EXPECT_TRUE(env.trainer->global_params().BitwiseEquals(ref.trained))
      << "open unlearning bracket was not rolled back";
  EXPECT_EQ(env.trainer->log().ToCsv(), ref.trained_log_csv)
      << "rolled-back flush left log records behind";
  const int64_t removed = ref.requests[1].client;
  EXPECT_GE(env.trainer->store().EarliestClientRound(removed), 1)
      << "the client removal's truncation was not rolled back";

  Result<ServiceFlushStats> stats =
      FlushReferenceRequests(env.trainer.get(), ref);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->redrawn_rounds, ref.stats.redrawn_rounds);
  EXPECT_EQ(stats->replay_start_iteration, ref.stats.replay_start_iteration);
  EXPECT_TRUE(env.trainer->global_params().BitwiseEquals(ref.unlearned));
}

TEST(CrashMatrixTest, KillAtCommitSyncKeepsTheOp) {
  const Reference& ref = GetReference();
  // `journal.sync` counts JournalWriter::Sync calls: the fresh segment's
  // sync in Open, one per training round boundary, then the flush's only
  // sync, at its closing kOpEnd.
  const int64_t training_rounds = MakeEnv().config.rounds_r;
  const int64_t syncs_before_flush = 1 + training_rounds;
  const std::string spec =
      "journal.sync:" + std::to_string(syncs_before_flush + 1) + ":crash";
  const std::string ckpt = TempPath("cm_commit.ckpt");
  const std::string jrn = TempPath("cm_commit.jrn");
  RemoveDurableFiles(ckpt, jrn);
  const int code = ForkAndReap([&] {
    Env env = MakeEnv(spec);
    Result<std::unique_ptr<DurableTrainingSession>> session =
        DurableTrainingSession::Open(ckpt, jrn, env.trainer.get());
    if (!session.ok()) return 90;
    env.trainer->TrainUntil(kTotal);
    return FlushReferenceRequests(env.trainer.get(), ref).ok() ? 0 : 93;
  });
  ASSERT_EQ(code, failpoint::kCrashExitCode)
      << "crash was expected at the flush's commit sync";

  // kOpEnd reached the OS before the kill, so the op is committed: recovery
  // lands on the unlearned model with no re-flush.
  Env env = MakeEnv();
  Result<std::unique_ptr<DurableTrainingSession>> session =
      DurableTrainingSession::Open(ckpt, jrn, env.trainer.get());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(env.trainer->trained_through(), kTotal);
  EXPECT_TRUE(env.trainer->global_params().BitwiseEquals(ref.unlearned))
      << "the committed unlearning op was lost";
}

}  // namespace
}  // namespace fats
