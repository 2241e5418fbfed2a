// Journal framing tests: CRC detection of corrupt/truncated tails, append
// resumption, error latching, orphan sweeping — and end-to-end
// DurableTrainingSession recovery when the journal itself loses its tail.

#include "io/journal.h"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "io/train_journal.h"
#include "rng/philox.h"
#include "test_workloads.h"
#include "util/crc32.h"
#include "util/failpoint.h"

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

constexpr int64_t kHeaderBytes = 12;  // "FATSJRN1" + u32 version

// The byte-at-a-time table loop that the production loops replaced: the
// oracle every Crc32 output must match bit for bit, so journal, wire and
// spill checksums written by older builds still verify.
uint32_t ReferenceCrc32(const unsigned char* bytes, size_t len, uint32_t seed) {
  static const std::array<uint32_t, 256> kTable = [] {
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
      table[i] = crc;
    }
    return table;
  }();
  uint32_t crc = ~seed;
  for (size_t i = 0; i < len; ++i) {
    crc = (crc >> 8) ^ kTable[(crc ^ bytes[i]) & 0xFF];
  }
  return ~crc;
}

std::vector<unsigned char> PhiloxBytes(size_t len, uint64_t key) {
  PhiloxEngine engine(key);
  std::vector<unsigned char> bytes(len);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(engine());
  return bytes;
}

// Both CRC paths: Crc32 as dispatched on this host (the carry-less-multiply
// fold where the CPU has it) and the portable slicing-by-16 loop, which
// every host must keep correct as the fallback.
struct Crc32Path {
  const char* name;
  uint32_t (*crc)(const void*, size_t, uint32_t);
};
constexpr Crc32Path kCrc32Paths[] = {{"Crc32", &Crc32},
                                     {"Crc32Portable", &internal::Crc32Portable}};

TEST(Crc32Test, KnownVectors) {
  // The IEEE reflected CRC-32 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  EXPECT_EQ(Crc32("a", 1), 0xE8B7BE43u);
}

TEST(Crc32Test, MatchesByteAtATimeOracleAtEveryLengthOffsetAndSeed) {
  constexpr size_t kMaxLen = 1100;
  constexpr size_t kMaxOffset = 15;
  const std::vector<unsigned char> buffer =
      PhiloxBytes(kMaxLen + kMaxOffset, 0xC5C32u);
  for (const Crc32Path& path : kCrc32Paths) {
    for (uint32_t seed : {0u, 0xFFFFFFFFu, 0x1234ABCDu}) {
      for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
        // Exact-size copies so an overrun past `len` is an ASan report.
        for (size_t len = 0; len <= kMaxLen; ++len) {
          const std::vector<unsigned char> slice(
              buffer.begin() + static_cast<std::ptrdiff_t>(offset),
              buffer.begin() + static_cast<std::ptrdiff_t>(offset + len));
          ASSERT_EQ(path.crc(slice.data(), len, seed),
                    ReferenceCrc32(slice.data(), len, seed))
              << path.name << " len " << len << " offset " << offset
              << " seed " << seed;
        }
      }
    }
    // One spill-block-sized (64 KiB) buffer, where the fold runs 1,023
    // four-accumulator steps before its merge.
    const std::vector<unsigned char> block = PhiloxBytes(65536, 0x5B10Cu);
    for (uint32_t seed : {0u, 0x1234ABCDu}) {
      ASSERT_EQ(path.crc(block.data(), block.size(), seed),
                ReferenceCrc32(block.data(), block.size(), seed))
          << path.name << " 64 KiB seed " << seed;
    }
  }
}

TEST(Crc32Test, ChainsAcrossCalls) {
  // Every split point of one model-sized (4,120-byte) frame.
  const std::vector<unsigned char> frame = PhiloxBytes(4120, 0xF4A3Eu);
  const uint32_t whole = ReferenceCrc32(frame.data(), frame.size(), 0);
  for (const Crc32Path& path : kCrc32Paths) {
    ASSERT_EQ(path.crc(frame.data(), frame.size(), 0), whole) << path.name;
    for (size_t k = 0; k <= frame.size(); ++k) {
      ASSERT_EQ(path.crc(frame.data() + k, frame.size() - k,
                         path.crc(frame.data(), k, 0)),
                whole)
          << path.name << " split at " << k;
    }
  }
}

TEST(JournalTest, CreateWritesHeaderOnly) {
  const std::string path = TempPath("jrn_create.jrn");
  ASSERT_TRUE(JournalWriter::Create(path).ok());
  Result<JournalScan> scan = ScanJournal(path);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan->records.empty());
  EXPECT_EQ(scan->valid_bytes, kHeaderBytes);
  EXPECT_FALSE(scan->torn_tail);
  // No stranded temp file.
  EXPECT_EQ(ReadFile(path + ".tmp"), "");
}

TEST(JournalTest, AppendScanRoundtrip) {
  const std::string path = TempPath("jrn_roundtrip.jrn");
  ASSERT_TRUE(JournalWriter::Create(path).ok());
  const std::string binary_payload("\x00\xff\x7f\n\x01", 5);
  {
    Result<std::unique_ptr<JournalWriter>> writer =
        JournalWriter::OpenForAppend(path, kHeaderBytes);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE((*writer)->Append("alpha").ok());
    // An empty record would scan like a zero-filled torn tail: refused,
    // without writing a byte or latching an error.
    EXPECT_EQ((*writer)->Append("").code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE((*writer)->status().ok());
    ASSERT_TRUE((*writer)->Append(binary_payload).ok());
    ASSERT_TRUE((*writer)->Sync().ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }
  Result<JournalScan> scan = ScanJournal(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->records[0], "alpha");
  EXPECT_EQ(scan->records[1], binary_payload);
  EXPECT_FALSE(scan->torn_tail);
  EXPECT_EQ(scan->record_ends.size(), 2u);
  EXPECT_EQ(scan->record_ends.back(), scan->valid_bytes);
}

// Writes a journal with three records and returns its raw bytes.
std::string ThreeRecordJournal(const std::string& path) {
  EXPECT_TRUE(JournalWriter::Create(path).ok());
  Result<std::unique_ptr<JournalWriter>> writer =
      JournalWriter::OpenForAppend(path, kHeaderBytes);
  EXPECT_TRUE(writer.ok());
  EXPECT_TRUE((*writer)->Append("record-one").ok());
  EXPECT_TRUE((*writer)->Append("record-two").ok());
  EXPECT_TRUE((*writer)->Append("record-three").ok());
  EXPECT_TRUE((*writer)->Close().ok());
  return ReadFile(path);
}

TEST(JournalTest, CorruptedTailDetectedByCrc) {
  const std::string path = TempPath("jrn_corrupt.jrn");
  std::string blob = ThreeRecordJournal(path);
  // Flip a byte inside the last record's payload.
  blob[blob.size() - 2] = static_cast<char>(blob[blob.size() - 2] ^ 0x40);
  WriteFile(path, blob);

  Result<JournalScan> scan = ScanJournal(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->records[1], "record-two");
  EXPECT_TRUE(scan->torn_tail);
  EXPECT_NE(scan->tail_detail.find("CRC"), std::string::npos)
      << scan->tail_detail;
}

TEST(JournalTest, TruncatedTailDetected) {
  const std::string path = TempPath("jrn_trunc.jrn");
  const std::string blob = ThreeRecordJournal(path);
  // Cut mid-payload of the last record.
  WriteFile(path, blob.substr(0, blob.size() - 4));
  Result<JournalScan> scan = ScanJournal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records.size(), 2u);
  EXPECT_TRUE(scan->torn_tail);
  EXPECT_NE(scan->tail_detail.find("truncated"), std::string::npos)
      << scan->tail_detail;

  // Cut mid-frame-header (fewer than 8 bytes of len+crc remain).
  const int64_t second_end = 12 + 2 * (8 + 10);  // header + two framed records
  WriteFile(path, blob.substr(0, static_cast<size_t>(second_end) + 3));
  scan = ScanJournal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->valid_bytes, second_end);
  EXPECT_TRUE(scan->torn_tail);
}

TEST(JournalTest, InsaneFrameLengthRejected) {
  const std::string path = TempPath("jrn_insane.jrn");
  std::string blob = ThreeRecordJournal(path).substr(0, kHeaderBytes);
  // A frame claiming ~4 GiB of payload must stop the scan at the header.
  const char huge[8] = {'\xff', '\xff', '\xff', '\xff', 0, 0, 0, 0};
  blob.append(huge, sizeof(huge));
  WriteFile(path, blob);
  Result<JournalScan> scan = ScanJournal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->records.empty());
  EXPECT_EQ(scan->valid_bytes, kHeaderBytes);
  EXPECT_TRUE(scan->torn_tail);
}

TEST(JournalTest, ZeroFilledTailIsTorn) {
  const std::string path = TempPath("jrn_zeros.jrn");
  const std::string blob = ThreeRecordJournal(path);
  // Eight zero bytes frame an empty payload whose CRC-32 (0) matches.
  WriteFile(path, blob + std::string(64, '\0'));
  Result<JournalScan> scan = ScanJournal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records.size(), 3u);
  EXPECT_EQ(scan->valid_bytes, static_cast<int64_t>(blob.size()));
  EXPECT_TRUE(scan->torn_tail);
  EXPECT_EQ(scan->tail_detail, "zero-length frame");
}

TEST(JournalTest, NonJournalFileRejected) {
  const std::string path = TempPath("jrn_garbage.jrn");
  WriteFile(path, "this is not a journal, definitely not");
  EXPECT_FALSE(ScanJournal(path).ok());
  EXPECT_FALSE(ScanJournal(TempPath("jrn_missing.jrn")).ok());
}

TEST(JournalTest, OpenForAppendTruncatesTornTailAndResumes) {
  const std::string path = TempPath("jrn_resume.jrn");
  std::string blob = ThreeRecordJournal(path);
  blob[blob.size() - 1] = static_cast<char>(blob[blob.size() - 1] ^ 0x01);
  WriteFile(path, blob);

  Result<JournalScan> scan = ScanJournal(path);
  ASSERT_TRUE(scan.ok());
  ASSERT_TRUE(scan->torn_tail);
  Result<std::unique_ptr<JournalWriter>> writer =
      JournalWriter::OpenForAppend(path, scan->valid_bytes);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE((*writer)->Append("record-new").ok());
  ASSERT_TRUE((*writer)->Close().ok());

  Result<JournalScan> rescan = ScanJournal(path);
  ASSERT_TRUE(rescan.ok());
  ASSERT_EQ(rescan->records.size(), 3u);
  EXPECT_EQ(rescan->records[0], "record-one");
  EXPECT_EQ(rescan->records[1], "record-two");
  EXPECT_EQ(rescan->records[2], "record-new");
  EXPECT_FALSE(rescan->torn_tail);
}

TEST(JournalTest, AppendErrorLatchesIntoStatus) {
  // Each input fails one call after a good Append; the first error must
  // latch so every later Append and Sync refuses with it and writes nothing.
  struct Input {
    const char* spec;
    const char* site;
    bool fails_on_sync;
  };
  for (const Input& input :
       {Input{"journal.append:2:error", "journal.append", false},
        Input{"journal.sync_file:1:error", "journal.sync_file", true}}) {
    SCOPED_TRACE(input.spec);
    const std::string path = TempPath("jrn_latch.jrn");
    ASSERT_TRUE(JournalWriter::Create(path).ok());
    ASSERT_TRUE(failpoint::ArmFromSpec(input.spec).ok());
    Result<std::unique_ptr<JournalWriter>> writer =
        JournalWriter::OpenForAppend(path, kHeaderBytes);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE((*writer)->Append("kept").ok());
    const Status failed =
        input.fails_on_sync ? (*writer)->Sync() : (*writer)->Append("doomed");
    failpoint::DisarmAll();
    EXPECT_FALSE(failed.ok());
    EXPECT_NE(failed.ToString().find(input.site), std::string::npos)
        << failed.ToString();
    EXPECT_EQ((*writer)->status().ToString(), failed.ToString());
    EXPECT_EQ((*writer)->Append("after-error").ToString(), failed.ToString());
    EXPECT_EQ((*writer)->Sync().ToString(), failed.ToString());
    (void)(*writer)->Close();

    Result<JournalScan> scan = ScanJournal(path);
    ASSERT_TRUE(scan.ok());
    ASSERT_EQ(scan->records.size(), 1u);
    EXPECT_EQ(scan->records[0], "kept");
    EXPECT_FALSE(scan->torn_tail);
    EXPECT_EQ(static_cast<int64_t>(ReadFile(path).size()), scan->valid_bytes);
  }
}

TEST(JournalTest, SweepOrphanTmpRemovesStaleFile) {
  const std::string path = TempPath("jrn_sweep.jrn");
  WriteFile(path + ".tmp", "half-written garbage");
  EXPECT_TRUE(SweepOrphanTmp(path));
  EXPECT_EQ(ReadFile(path + ".tmp"), "");
  EXPECT_FALSE(SweepOrphanTmp(path));  // nothing left to sweep
}

// --- End-to-end: DurableTrainingSession survives a damaged journal tail ---

struct Env {
  FederatedDataset data;
  FatsConfig config;
  std::unique_ptr<FatsTrainer> trainer;
};

Env MakeEnv() {
  Env env;
  env.data = TinyImageData(5, 8);
  env.config = TinyFatsConfig(5, 8, 3, 2);
  env.trainer =
      std::make_unique<FatsTrainer>(TinyModelSpec(), env.config, &env.data);
  return env;
}

// Runs a full durable training pass from scratch (removing any files a
// previous test invocation left behind) and returns the final global model.
Tensor RunDurable(const std::string& ckpt, const std::string& jrn) {
  for (const std::string& p : {ckpt, ckpt + ".tmp", jrn, jrn + ".tmp"}) {
    std::remove(p.c_str());
  }
  Env env = MakeEnv();
  Result<std::unique_ptr<DurableTrainingSession>> session =
      DurableTrainingSession::Open(ckpt, jrn, env.trainer.get());
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  env.trainer->Train();
  EXPECT_TRUE((*session)->status().ok());
  return env.trainer->global_params();
}

TEST(DurableJournalTest, RecoversBitExactlyFromCorruptedTail) {
  const std::string ref_ckpt = TempPath("djrn_ref.ckpt");
  const std::string ref_jrn = TempPath("djrn_ref.jrn");
  const Tensor reference = RunDurable(ref_ckpt, ref_jrn);

  const std::string ckpt = TempPath("djrn_corrupt.ckpt");
  const std::string jrn = TempPath("djrn_corrupt.jrn");
  (void)RunDurable(ckpt, jrn);

  // Corrupt a byte two-thirds into the journal: the committed prefix before
  // it survives, everything after is discarded and re-executed.
  std::string blob = ReadFile(jrn);
  ASSERT_GT(blob.size(), 100u);
  const size_t pos = (blob.size() * 2) / 3;
  blob[pos] = static_cast<char>(blob[pos] ^ 0xA5);
  WriteFile(jrn, blob);

  Env env = MakeEnv();
  Result<std::unique_ptr<DurableTrainingSession>> session =
      DurableTrainingSession::Open(ckpt, jrn, env.trainer.get());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const int64_t total = env.config.total_iters_t();
  EXPECT_EQ(env.trainer->trained_through(), total);
  EXPECT_TRUE(env.trainer->global_params().BitwiseEquals(reference));
}

TEST(DurableJournalTest, RecoversBitExactlyFromTruncatedTail) {
  const std::string ref_ckpt = TempPath("djrn_tref.ckpt");
  const std::string ref_jrn = TempPath("djrn_tref.jrn");
  const Tensor reference = RunDurable(ref_ckpt, ref_jrn);

  const std::string ckpt = TempPath("djrn_trunc.ckpt");
  const std::string jrn = TempPath("djrn_trunc.jrn");
  (void)RunDurable(ckpt, jrn);

  std::string blob = ReadFile(jrn);
  ASSERT_GT(blob.size(), 100u);
  WriteFile(jrn, blob.substr(0, blob.size() / 2));

  Env env = MakeEnv();
  Result<std::unique_ptr<DurableTrainingSession>> session =
      DurableTrainingSession::Open(ckpt, jrn, env.trainer.get());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(env.trainer->trained_through(), env.config.total_iters_t());
  EXPECT_TRUE(env.trainer->global_params().BitwiseEquals(reference));
}

// What a power loss leaves when a file's size reached the device before
// its data: the unsynced tail reads back as zeros.
TEST(DurableJournalTest, RecoversBitExactlyFromZeroFilledTail) {
  const std::string ref_ckpt = TempPath("djrn_zref.ckpt");
  const std::string ref_jrn = TempPath("djrn_zref.jrn");
  const Tensor reference = RunDurable(ref_ckpt, ref_jrn);

  const std::string ckpt = TempPath("djrn_zeros.ckpt");
  const std::string jrn = TempPath("djrn_zeros.jrn");
  (void)RunDurable(ckpt, jrn);

  const std::string blob = ReadFile(jrn);
  ASSERT_GT(blob.size(), 100u);
  const size_t keep = blob.size() / 2;
  // Zero the whole tail past a cut, and only append zeros to a complete
  // journal: both land on a committed prefix.
  for (const std::string& damaged :
       {blob.substr(0, keep) + std::string(blob.size() - keep, '\0'),
        blob + std::string(64, '\0')}) {
    WriteFile(jrn, damaged);
    Env env = MakeEnv();
    Result<std::unique_ptr<DurableTrainingSession>> session =
        DurableTrainingSession::Open(ckpt, jrn, env.trainer.get());
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    EXPECT_EQ(env.trainer->trained_through(), env.config.total_iters_t());
    EXPECT_TRUE(env.trainer->global_params().BitwiseEquals(reference));
  }
}

TEST(DurableJournalTest, CleanReopenDoesNotRetrain) {
  const std::string ckpt = TempPath("djrn_clean.ckpt");
  const std::string jrn = TempPath("djrn_clean.jrn");
  const Tensor reference = RunDurable(ckpt, jrn);

  Env env = MakeEnv();
  Result<std::unique_ptr<DurableTrainingSession>> session =
      DurableTrainingSession::Open(ckpt, jrn, env.trainer.get());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_TRUE((*session)->recovered());
  EXPECT_EQ(env.trainer->trained_through(), env.config.total_iters_t());
  EXPECT_TRUE(env.trainer->global_params().BitwiseEquals(reference));
}

// Training rounds acknowledge nothing, so a training call whose journal
// tail stays under the cap fsyncs nothing at all.
TEST(DurableJournalTest, TrainingUnderTheSyncCapDoesNotSync) {
  const std::string ckpt = TempPath("djrn_nosync.ckpt");
  const std::string jrn = TempPath("djrn_nosync.jrn");
  for (const std::string& p : {ckpt, ckpt + ".tmp", jrn, jrn + ".tmp"}) {
    std::remove(p.c_str());
  }
  Env env = MakeEnv();
  Result<std::unique_ptr<DurableTrainingSession>> session =
      DurableTrainingSession::Open(ckpt, jrn, env.trainer.get());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  // Any fsync from here on would fail and latch into the session.
  ASSERT_TRUE(failpoint::ArmFromSpec("journal.sync_file:1:error").ok());
  env.trainer->TrainUntil(env.config.total_iters_t());
  failpoint::DisarmAll();
  EXPECT_TRUE((*session)->status().ok()) << (*session)->status().ToString();
  EXPECT_EQ(env.trainer->trained_through(), env.config.total_iters_t());
}

// Collects the file sizes the journal's fsyncs make durable while in scope.
class SyncedSizes {
 public:
  SyncedSizes() {
    current_ = &sizes_;
    internal::SetSyncObserver(&Record);
  }
  ~SyncedSizes() {
    internal::SetSyncObserver(nullptr);
    current_ = nullptr;
  }
  SyncedSizes(const SyncedSizes&) = delete;
  SyncedSizes& operator=(const SyncedSizes&) = delete;
  const std::vector<int64_t>& sizes() const { return sizes_; }

 private:
  static void Record(const std::string&, int64_t synced_bytes) {
    current_->push_back(synced_bytes);
  }
  static inline std::vector<int64_t>* current_ = nullptr;
  std::vector<int64_t> sizes_;
};

TEST(DurableJournalTest, RoundBoundarySyncsOncePerCrossingOfTheCap) {
  const std::string ckpt = TempPath("djrn_cap.ckpt");
  const std::string jrn = TempPath("djrn_cap.jrn");
  for (const std::string& p : {ckpt, ckpt + ".tmp", jrn, jrn + ".tmp"}) {
    std::remove(p.c_str());
  }
  // Logistic regression over 50000 features journals a ~400 KB global
  // model per round, so the unsynced tail crosses the 1 MiB cap every
  // two or three rounds.
  constexpr int64_t kDim = 50000;
  constexpr int64_t kRounds = 7;
  FederatedDataset data = TinyImageData(5, 8, 2, kDim);
  const FatsConfig config = TinyFatsConfig(5, 8, kRounds, 2);
  FatsTrainer trainer(TinyModelSpec(2, kDim), config, &data);

  SyncedSizes synced;
  Result<std::unique_ptr<DurableTrainingSession>> session =
      DurableTrainingSession::Open(ckpt, jrn, &trainer);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_FALSE(synced.sizes().empty());
  // A round boundary syncs exactly when the bytes written since the last
  // sync reach the cap, and then makes the whole file durable.
  std::vector<int64_t> expected = synced.sizes();
  int64_t crossings = 0;
  for (int64_t round = 1; round <= kRounds; ++round) {
    trainer.TrainUntil(round * config.local_iters_e);
    const auto size = static_cast<int64_t>(ReadFile(jrn).size());
    if (size - expected.back() >=
        DurableTrainingSession::kRoundSyncTailBytes) {
      expected.push_back(size);
      ++crossings;
    }
    EXPECT_EQ(synced.sizes(), expected) << "after round " << round;
  }
  EXPECT_GE(crossings, 2);
  EXPECT_LT(crossings, kRounds) << "every round crossed the cap";
  EXPECT_TRUE((*session)->status().ok()) << (*session)->status().ToString();
}

// The sample training used earliest, so deleting it replays every round.
SampleRef OldestUsedSample(const FatsTrainer& trainer) {
  SampleRef oldest{-1, -1};
  int64_t oldest_use = 0;
  for (int64_t client = 0; client < trainer.config().clients_m; ++client) {
    for (int64_t index = 0; index < trainer.config().samples_per_client_n;
         ++index) {
      const int64_t use = trainer.store().EarliestSampleUse({client, index});
      if (use > 0 && (oldest_use == 0 || use < oldest_use)) {
        oldest = {client, index};
        oldest_use = use;
      }
    }
  }
  return oldest;
}

TEST(DurableJournalTest, UnlearningFlushSyncsOnlyAtCommit) {
  const std::string ckpt = TempPath("djrn_commit.ckpt");
  const std::string jrn = TempPath("djrn_commit.jrn");
  for (const std::string& p : {ckpt, ckpt + ".tmp", jrn, jrn + ".tmp"}) {
    std::remove(p.c_str());
  }
  Env plain = MakeEnv();
  plain.trainer->Train();
  const UnlearningRequest request{
      .kind = UnlearningRequest::Kind::kSample,
      .sample = OldestUsedSample(*plain.trainer),
      .request_iter = plain.config.total_iters_t()};
  ASSERT_NE(request.sample.client, -1);
  Result<ServiceFlushStats> plain_stats =
      UnlearningService(plain.trainer.get()).ExecuteStream({request});
  ASSERT_TRUE(plain_stats.ok()) << plain_stats.status().ToString();
  ASSERT_GE(plain_stats->replayed_rounds, 3)
      << "the flush must replay at least three round boundaries";

  Env env = MakeEnv();
  Result<std::unique_ptr<DurableTrainingSession>> session =
      DurableTrainingSession::Open(ckpt, jrn, env.trainer.get());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  env.trainer->Train();
  ASSERT_TRUE((*session)->status().ok());

  // A second sync inside the flush would fail it: kOpBegin and the replayed
  // round boundaries commit nothing, so only kOpEnd syncs.
  ASSERT_TRUE(failpoint::ArmFromSpec("journal.sync_file:2:error").ok());
  Result<ServiceFlushStats> stats =
      UnlearningService(env.trainer.get()).ExecuteStream({request});
  failpoint::DisarmAll();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->replayed_rounds, plain_stats->replayed_rounds);
  EXPECT_TRUE((*session)->status().ok()) << (*session)->status().ToString();
  EXPECT_TRUE(env.trainer->global_params().BitwiseEquals(
      plain.trainer->global_params()));

  // The one sync left is the commit: failing it surfaces in the session.
  const UnlearningRequest second{
      .kind = UnlearningRequest::Kind::kSample,
      .sample = OldestUsedSample(*env.trainer),
      .request_iter = env.config.total_iters_t()};
  ASSERT_NE(second.sample.client, -1);
  ASSERT_TRUE(failpoint::ArmFromSpec("journal.sync_file:1:error").ok());
  ASSERT_TRUE(
      UnlearningService(env.trainer.get()).ExecuteStream({second}).ok());
  failpoint::DisarmAll();
  EXPECT_NE((*session)->status().ToString().find("journal.sync_file"),
            std::string::npos)
      << (*session)->status().ToString();
}

}  // namespace
}  // namespace fats
