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
// contract the journal claims against a kill. The power-loss rows go
// further: before recovery every journal segment loses what its last fsync
// did not cover.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "core/unlearning_service.h"
#include "io/journal.h"
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
  // A later flush on top of `unlearned`: one more used sample. The power-
  // loss rows crash inside it to check that the earlier, acknowledged
  // flush survives.
  UnlearningRequest later_request;
  Tensor unlearned_twice;
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
    ref->later_request = {.kind = UnlearningRequest::Kind::kSample,
                          .sample = PickUsedSample(*env.trainer),
                          .request_iter = kTotal};
    Result<ServiceFlushStats> later =
        UnlearningService(env.trainer.get())
            .ExecuteStream({ref->later_request});
    EXPECT_TRUE(later.ok()) << later.status().ToString();
    ref->unlearned_twice = env.trainer->global_params();
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

// Requires `trainer`, trained through kTotal, to hold the uninterrupted
// run's model, log and ledger, and the reference flush on top of it to
// match bit for bit.
void ExpectTrainedAndUnlearnedExactly(FatsTrainer* trainer,
                                      const std::string& label) {
  const Reference& ref = GetReference();
  EXPECT_TRUE(trainer->global_params().BitwiseEquals(ref.trained))
      << label << ": recovered model differs from uninterrupted run";
  EXPECT_EQ(trainer->trained_through(), kTotal) << label;
  EXPECT_EQ(trainer->log().ToCsv(), ref.trained_log_csv) << label;
  const CommSnapshot comm = Snapshot(trainer);
  EXPECT_EQ(comm.rounds, ref.trained_comm.rounds) << label;
  EXPECT_EQ(comm.uplink, ref.trained_comm.uplink) << label;
  EXPECT_EQ(comm.downlink, ref.trained_comm.downlink) << label;
  EXPECT_EQ(comm.messages, ref.trained_comm.messages) << label;
  EXPECT_EQ(comm.retransmits, ref.trained_comm.retransmits) << label;
  EXPECT_EQ(comm.retransmit_bytes, ref.trained_comm.retransmit_bytes)
      << label;

  Result<ServiceFlushStats> stats = FlushReferenceRequests(trainer, ref);
  ASSERT_TRUE(stats.ok()) << label << ": " << stats.status().ToString();
  EXPECT_EQ(stats->triggered_requests, ref.stats.triggered_requests) << label;
  EXPECT_EQ(stats->replay_start_iteration, ref.stats.replay_start_iteration)
      << label;
  EXPECT_EQ(stats->redrawn_rounds, ref.stats.redrawn_rounds) << label;
  EXPECT_TRUE(trainer->global_params().BitwiseEquals(ref.unlearned))
      << label << ": unlearning after recovery differs";
}

// Recovers from whatever the crashed child left behind, finishes training,
// and requires bit-identical state plus bit-identical subsequent
// unlearning.
void ExpectRecoversExactly(const std::string& ckpt, const std::string& jrn,
                           const std::string& label,
                           const std::string& spill_dir = "") {
  Env env = MakeEnv("", spill_dir);
  Result<std::unique_ptr<DurableTrainingSession>> session =
      DurableTrainingSession::Open(ckpt, jrn, env.trainer.get());
  ASSERT_TRUE(session.ok()) << label << ": " << session.status().ToString();
  env.trainer->TrainUntil(kTotal);
  ASSERT_TRUE((*session)->status().ok())
      << label << ": " << (*session)->status().ToString();
  ExpectTrainedAndUnlearnedExactly(env.trainer.get(), label);
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

// ----- Power loss -----
//
// A kill keeps every byte the journal handed to the OS; a power loss keeps
// only what an fsync made durable. The model here: a segment keeps exactly
// the bytes its last completed fsync covered, and the rest of the file is
// either gone (its size never reached the device) or zeros (the size did,
// the data did not). Renames of fsynced files, as segment creation and the
// checkpoint save do, are taken to be durable.

enum class PowerLoss { kCut, kZeroFill };

// The forked child's record of what is durable: a "<bytes> <path>" line per
// journal fsync and an "ack <n>" line once flush n has returned to its
// caller. Each line is appended with its own fopen/fclose, so it reaches
// the OS before any kill.
std::string g_sidecar;

void AppendSidecarLine(const std::string& line) {
  std::FILE* file = std::fopen(g_sidecar.c_str(), "a");
  if (file == nullptr) std::_Exit(94);
  std::fputs((line + "\n").c_str(), file);
  std::fclose(file);
}

void RecordSync(const std::string& path, int64_t synced_bytes) {
  AppendSidecarLine(std::to_string(synced_bytes) + " " + path);
}

struct SidecarLog {
  std::map<std::string, int64_t> synced_bytes;  // last fsync per segment
  int acked_flushes = 0;
};

SidecarLog ReadSidecar(const std::string& path) {
  SidecarLog log;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    const std::string head = line.substr(0, space);
    const std::string tail = line.substr(space + 1);
    if (head == "ack") {
      log.acked_flushes = std::stoi(tail);
    } else {
      log.synced_bytes[tail] = std::stoll(head);
    }
  }
  return log;
}

// Drops (kCut) or zeroes (kZeroFill) every segment's unsynced tail.
void LosePower(const SidecarLog& log, PowerLoss mode) {
  for (const auto& [path, synced] : log.synced_bytes) {
    if (!std::filesystem::exists(path)) continue;
    const auto size = static_cast<int64_t>(std::filesystem::file_size(path));
    ASSERT_LE(synced, size) << path;
    if (mode == PowerLoss::kCut) {
      std::filesystem::resize_file(path, static_cast<uintmax_t>(synced));
      continue;
    }
    std::string blob;
    {
      std::ifstream in(path, std::ios::binary);
      blob.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    }
    std::fill(blob.begin() + synced, blob.end(), '\0');
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }
}

// The power-loss scenario: the kill matrix's durable training (train to
// kHalf, rotate, train to kTotal), then the reference flush and the later
// flush, each acknowledged in the sidecar once it returns.
int RunPowerLossChild(const std::string& ckpt, const std::string& jrn,
                      const std::string& fault_spec,
                      const std::string& sidecar) {
  g_sidecar = sidecar;
  internal::SetSyncObserver(&RecordSync);
  const Reference& ref = GetReference();
  Env env = MakeEnv(fault_spec);
  Result<std::unique_ptr<DurableTrainingSession>> session =
      DurableTrainingSession::Open(ckpt, jrn, env.trainer.get());
  if (!session.ok()) return 90;
  env.trainer->TrainUntil(kHalf);
  if (!(*session)->Checkpoint().ok()) return 91;
  env.trainer->TrainUntil(kTotal);
  if (!FlushReferenceRequests(env.trainer.get(), ref).ok()) return 93;
  AppendSidecarLine("ack 1");
  if (!UnlearningService(env.trainer.get())
           .ExecuteStream({ref.later_request})
           .ok()) {
    return 93;
  }
  AppendSidecarLine("ack 2");
  return (*session)->status().ok() ? 0 : 92;
}

// Recovers after a power loss. The state must be a committed prefix: some
// point of training, or the end of the first or second flush, never less
// than the flushes the child acknowledged. Finishing the scenario from
// there must match the uninterrupted run bit for bit.
void ExpectPowerLossRecovery(const std::string& ckpt, const std::string& jrn,
                             int acked_flushes, const std::string& label) {
  const Reference& ref = GetReference();
  Env env = MakeEnv();
  Result<std::unique_ptr<DurableTrainingSession>> session =
      DurableTrainingSession::Open(ckpt, jrn, env.trainer.get());
  ASSERT_TRUE(session.ok()) << label << ": " << session.status().ToString();
  const Tensor& params = env.trainer->global_params();
  const int flushes_kept = params.BitwiseEquals(ref.unlearned_twice) ? 2
                           : params.BitwiseEquals(ref.unlearned)     ? 1
                                                                     : 0;
  EXPECT_GE(flushes_kept, acked_flushes)
      << label << ": an acknowledged flush was lost";
  // The data-side deletions are the caller's to keep: re-apply the kept
  // flushes' to the fresh dataset, as a server would after a restart.
  std::vector<UnlearningRequest> kept;
  if (flushes_kept >= 1) kept = ref.requests;
  if (flushes_kept == 2) kept.push_back(ref.later_request);
  for (const UnlearningRequest& request : kept) {
    const Status removed =
        request.kind == UnlearningRequest::Kind::kSample
            ? env.data.RemoveSample(request.sample)
            : env.data.RemoveClient(request.client);
    ASSERT_TRUE(removed.ok()) << label << ": " << removed.ToString();
  }
  if (flushes_kept == 0) {
    env.trainer->TrainUntil(kTotal);
    ExpectTrainedAndUnlearnedExactly(env.trainer.get(), label);
  }
  EXPECT_EQ(env.trainer->trained_through(), kTotal) << label;
  if (flushes_kept < 2) {
    Result<ServiceFlushStats> later =
        UnlearningService(env.trainer.get())
            .ExecuteStream({ref.later_request});
    ASSERT_TRUE(later.ok()) << label << ": " << later.status().ToString();
  }
  EXPECT_TRUE(env.trainer->global_params().BitwiseEquals(ref.unlearned_twice))
      << label << ": the scenario finished after recovery differs";
  EXPECT_TRUE((*session)->status().ok())
      << label << ": " << (*session)->status().ToString();
}

TEST(CrashMatrixTest, PowerLossAtEveryFailpointKeepsTheSyncedPrefix) {
  const Reference& ref = GetReference();
  ASSERT_FALSE(ref.unlearned.BitwiseEquals(ref.trained));
  ASSERT_FALSE(ref.unlearned_twice.BitwiseEquals(ref.unlearned));
  // Cross every site of the scenario once in-process (registering it),
  // which doubles as the check that the durable scenario with both
  // flushes lands on the reference.
  {
    const std::string ckpt = TempPath("cm_pl_reg.ckpt");
    const std::string jrn = TempPath("cm_pl_reg.jrn");
    const std::string sidecar = TempPath("cm_pl_reg.sync");
    RemoveDurableFiles(ckpt, jrn);
    std::remove(sidecar.c_str());
    ASSERT_EQ(RunPowerLossChild(ckpt, jrn, "", sidecar), 0);
    internal::SetSyncObserver(nullptr);
    EXPECT_EQ(ReadSidecar(sidecar).acked_flushes, 2);
  }

  // Every hit of every site, until the scenario no longer reaches it.
  constexpr int kMaxHits = 1000;
  int scenario = 0;
  int rows = 0;
  bool any_lost_bytes = false;
  bool any_acked_flush = false;
  for (const std::string& site : failpoint::RegisteredSites()) {
    for (int hit = 1;; ++hit) {
      ASSERT_LT(hit, kMaxHits) << site << " never stopped firing";
      bool reached = false;
      for (PowerLoss mode : {PowerLoss::kCut, PowerLoss::kZeroFill}) {
        const std::string label =
            site + ":" + std::to_string(hit) + ":crash, power loss " +
            (mode == PowerLoss::kCut ? "(cut)" : "(zero-fill)");
        const std::string tag = "cm_pl_" + std::to_string(scenario++);
        const std::string ckpt = TempPath(tag + ".ckpt");
        const std::string jrn = TempPath(tag + ".jrn");
        const std::string sidecar = TempPath(tag + ".sync");
        RemoveDurableFiles(ckpt, jrn);
        std::remove(sidecar.c_str());
        const std::string spec = site + ":" + std::to_string(hit) + ":crash";
        const int code = ForkAndReap(
            [&] { return RunPowerLossChild(ckpt, jrn, spec, sidecar); });
        ASSERT_TRUE(code == 0 || code == failpoint::kCrashExitCode)
            << label << " exited with " << code;
        reached = code == failpoint::kCrashExitCode;
        if (!reached) break;
        const SidecarLog log = ReadSidecar(sidecar);
        ASSERT_TRUE(!std::filesystem::exists(jrn) ||
                    log.synced_bytes.count(jrn) == 1)
            << label << ": a journal segment exists that was never synced";
        if (std::filesystem::exists(jrn) &&
            static_cast<int64_t>(std::filesystem::file_size(jrn)) >
                log.synced_bytes.at(jrn)) {
          any_lost_bytes = true;
        }
        any_acked_flush |= log.acked_flushes > 0;
        LosePower(log, mode);
        ExpectPowerLossRecovery(ckpt, jrn, log.acked_flushes, label);
        ++rows;
      }
      if (!reached) break;
    }
  }
  EXPECT_GT(rows, 100) << "the power-loss matrix crossed too few sites";
  EXPECT_TRUE(any_lost_bytes) << "no power loss dropped an unsynced byte";
  EXPECT_TRUE(any_acked_flush) << "no crash came after an acknowledged flush";
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
  // sync in Open, none at the training round boundaries (the whole tiny
  // run journals far less than kRoundSyncTailBytes), then the flush's only
  // sync, at its closing kOpEnd.
  const int64_t syncs_before_flush = 1;
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
