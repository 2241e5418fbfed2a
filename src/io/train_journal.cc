#include "io/train_journal.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "io/checkpoint.h"

namespace fats {
namespace {

// Record tags. The payload of each record starts with one tag byte.
enum class Tag : uint8_t {
  kBegin = 1,           // config echo + epoch (first record of a segment)
  kSelection = 2,       // P^(r)
  kMinibatch = 3,       // B_k^(t)
  kGlobalModel = 5,     // θ^(r)
  kRoundRecord = 6,     // TrainLog entry
  kProgress = 7,        // iteration commit (IterationMark)
  kTruncate = 8,        // store truncation (client-level unlearning)
  kGenerationBump = 9,  // stream-generation bump
  kOpBegin = 10,        // unlearning operation opened
  kOpEnd = 11,          // unlearning operation committed
};

// ----- in-memory little-endian payload codec -----

class PayloadWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void I64Vec(const std::vector<int64_t>& values) {
    U64(values.size());
    for (int64_t v : values) I64(v);
  }
  void FloatVec(const std::vector<float>& values) {
    U64(values.size());
    const size_t start = buf_.size();
    buf_.resize(start + values.size() * sizeof(float));
    std::memcpy(buf_.data() + start, values.data(),
                values.size() * sizeof(float));
  }
  void TensorData(const Tensor& tensor) {
    I64Vec(tensor.shape());
    FloatVec(tensor.storage());
  }
  const std::string& str() const { return buf_; }

 private:
  std::string buf_;
};

class PayloadReader {
 public:
  explicit PayloadReader(const std::string& payload) : data_(payload) {}

  Result<uint8_t> U8() {
    if (pos_ + 1 > data_.size()) return Truncated();
    return static_cast<uint8_t>(data_[pos_++]);
  }
  Result<uint32_t> U32() {
    if (pos_ + 4 > data_.size()) return Truncated();
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  Result<uint64_t> U64() {
    if (pos_ + 8 > data_.size()) return Truncated();
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  Result<int64_t> I64() {
    FATS_ASSIGN_OR_RETURN(uint64_t v, U64());
    return static_cast<int64_t>(v);
  }
  Result<double> F64() {
    FATS_ASSIGN_OR_RETURN(uint64_t bits, U64());
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  Result<std::vector<int64_t>> I64Vec() {
    FATS_ASSIGN_OR_RETURN(uint64_t n, U64());
    if (n > (data_.size() - pos_) / 8) return Truncated();
    std::vector<int64_t> values;
    values.reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n; ++i) {
      FATS_ASSIGN_OR_RETURN(int64_t v, I64());
      values.push_back(v);
    }
    return values;
  }
  Result<std::vector<float>> FloatVec() {
    FATS_ASSIGN_OR_RETURN(uint64_t n, U64());
    if (n > (data_.size() - pos_) / sizeof(float)) return Truncated();
    std::vector<float> values(static_cast<size_t>(n));
    std::memcpy(values.data(), data_.data() + pos_, n * sizeof(float));
    pos_ += static_cast<size_t>(n) * sizeof(float);
    return values;
  }
  Result<Tensor> TensorData() {
    FATS_ASSIGN_OR_RETURN(std::vector<int64_t> shape, I64Vec());
    FATS_ASSIGN_OR_RETURN(std::vector<float> data, FloatVec());
    if (shape.empty() && data.empty()) return Tensor();
    int64_t volume = 1;
    for (int64_t d : shape) {
      if (d <= 0 || volume > (int64_t{1} << 33) / d) {
        return Status::IoError("corrupt tensor shape in journal record");
      }
      volume *= d;
    }
    if (volume != static_cast<int64_t>(data.size())) {
      return Status::IoError("tensor shape/data mismatch in journal record");
    }
    return Tensor(std::move(shape), std::move(data));
  }
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  static Status Truncated() {
    return Status::IoError("truncated journal record payload");
  }
  const std::string& data_;
  size_t pos_ = 0;
};

// Config echo: the same eight fields the checkpoint validates. Execution
// knobs (num_threads, dropout, fault_spec) deliberately excluded — they may
// vary across restarts without affecting algorithmic state.
void WriteConfigEcho(const FatsConfig& config, PayloadWriter* w) {
  w->I64(config.clients_m);
  w->I64(config.samples_per_client_n);
  w->I64(config.rounds_r);
  w->I64(config.local_iters_e);
  w->F64(config.rho_s);
  w->F64(config.rho_c);
  w->F64(config.learning_rate);
  w->U64(config.seed);
}

std::string BeginPayload(const FatsConfig& config, uint64_t epoch) {
  PayloadWriter w;
  w.U8(static_cast<uint8_t>(Tag::kBegin));
  WriteConfigEcho(config, &w);
  w.U64(epoch);
  return w.str();
}

bool FileExists(const std::string& path) {
  // Read-only existence probe, never a write.  fats-lint: allow(raw-io)
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  std::fclose(file);
  return true;
}

// Progress snapshot parsed from a kProgress record.
struct Progress {
  IterationMark mark;
  bool seen = false;
};

}  // namespace

Result<std::unique_ptr<DurableTrainingSession>> DurableTrainingSession::Open(
    const std::string& checkpoint_path, const std::string& journal_path,
    FatsTrainer* trainer, const DurableOptions&) {
  std::unique_ptr<DurableTrainingSession> session(
      new DurableTrainingSession(checkpoint_path, journal_path, trainer));

  // A crash can strand tmp files for either artifact; neither is ever
  // valid input.
  SweepOrphanTmp(journal_path);

  uint64_t checkpoint_epoch = 0;
  if (FileExists(checkpoint_path)) {
    FATS_RETURN_NOT_OK(
        LoadTrainerCheckpoint(checkpoint_path, trainer, &checkpoint_epoch));
  } else {
    SweepOrphanTmp(checkpoint_path);
  }
  session->epoch_ = checkpoint_epoch;

  if (!FileExists(journal_path)) {
    // Fresh session (or a checkpoint written without a journal): start the
    // first segment at the checkpoint's epoch.
    FATS_RETURN_NOT_OK(session->StartSegment());
    trainer->set_event_sink(session.get());
    return session;
  }

  FATS_ASSIGN_OR_RETURN(JournalScan scan, ScanJournal(journal_path));

  // Parse the segment header (kBegin): config echo + epoch.
  uint64_t segment_epoch = checkpoint_epoch;
  bool have_begin = false;
  if (!scan.records.empty()) {
    PayloadReader r(scan.records[0]);
    FATS_ASSIGN_OR_RETURN(uint8_t tag, r.U8());
    if (tag != static_cast<uint8_t>(Tag::kBegin)) {
      return Status::IoError("journal segment does not start with kBegin: " +
                             journal_path);
    }
    PayloadWriter expected;
    WriteConfigEcho(trainer->config(), &expected);
    const std::string& rec = scan.records[0];
    if (rec.size() < 1 + expected.str().size() + 8 ||
        std::memcmp(rec.data() + 1, expected.str().data(),
                    expected.str().size()) != 0) {
      return Status::InvalidArgument(
          "journal config does not match the trainer's: " + journal_path);
    }
    for (size_t i = 0; i < expected.str().size(); ++i) (void)r.U8().value();
    FATS_ASSIGN_OR_RETURN(segment_epoch, r.U64());
    have_begin = true;
  }

  if (have_begin && segment_epoch > checkpoint_epoch) {
    return Status::IoError(
        "journal segment is newer than the checkpoint (checkpoint lost?): " +
        journal_path);
  }
  if (!have_begin || segment_epoch < checkpoint_epoch) {
    // Header-only / torn-before-kBegin segment, or a segment made stale by
    // a checkpoint rotation that crashed before creating its fresh segment.
    // The checkpoint supersedes it; rotate.
    FATS_RETURN_NOT_OK(session->StartSegment());
    trainer->set_event_sink(session.get());
    return session;
  }

  // Find the commit offset: the byte position after the last commit point
  // (kBegin, kProgress outside an open op, kOpEnd). Everything past it is
  // an uncommitted partial iteration or a half-done unlearning operation.
  size_t commit_records = 1;  // kBegin
  int64_t commit_offset = scan.record_ends[0];
  bool in_op = false;
  for (size_t i = 1; i < scan.records.size(); ++i) {
    PayloadReader r(scan.records[i]);
    FATS_ASSIGN_OR_RETURN(uint8_t tag, r.U8());
    if (tag == static_cast<uint8_t>(Tag::kOpBegin)) in_op = true;
    const bool commit =
        (tag == static_cast<uint8_t>(Tag::kProgress) && !in_op) ||
        tag == static_cast<uint8_t>(Tag::kOpEnd);
    if (tag == static_cast<uint8_t>(Tag::kOpEnd)) in_op = false;
    if (commit) {
      commit_records = i + 1;
      commit_offset = scan.record_ends[i];
    }
  }

  // Apply the committed prefix on top of the checkpoint state.
  StateStore& store = trainer->store();
  const int64_t e = trainer->config().local_iters_e;
  Progress progress;
  uint64_t generation = trainer->generation();
  for (size_t i = 1; i < commit_records; ++i) {
    PayloadReader r(scan.records[i]);
    FATS_ASSIGN_OR_RETURN(uint8_t tag, r.U8());
    switch (static_cast<Tag>(tag)) {
      case Tag::kSelection: {
        FATS_ASSIGN_OR_RETURN(int64_t round, r.I64());
        FATS_ASSIGN_OR_RETURN(std::vector<int64_t> multiset, r.I64Vec());
        store.SaveClientSelection(round, std::move(multiset));
        break;
      }
      case Tag::kMinibatch: {
        FATS_ASSIGN_OR_RETURN(int64_t iter, r.I64());
        FATS_ASSIGN_OR_RETURN(int64_t client, r.I64());
        FATS_ASSIGN_OR_RETURN(std::vector<int64_t> indices, r.I64Vec());
        store.SaveMinibatch(iter, client, std::move(indices));
        break;
      }
      case Tag::kGlobalModel: {
        FATS_ASSIGN_OR_RETURN(int64_t round, r.I64());
        FATS_ASSIGN_OR_RETURN(Tensor params, r.TensorData());
        store.SaveGlobalModel(round, std::move(params));
        break;
      }
      case Tag::kRoundRecord: {
        RoundRecord record;
        FATS_ASSIGN_OR_RETURN(record.round, r.I64());
        FATS_ASSIGN_OR_RETURN(record.test_accuracy, r.F64());
        FATS_ASSIGN_OR_RETURN(record.mean_local_loss, r.F64());
        FATS_ASSIGN_OR_RETURN(uint8_t recomp, r.U8());
        record.recomputation = recomp != 0;
        trainer->mutable_log()->Append(record);
        break;
      }
      case Tag::kProgress: {
        IterationMark& m = progress.mark;
        FATS_ASSIGN_OR_RETURN(m.iteration, r.I64());
        FATS_ASSIGN_OR_RETURN(m.pass_end, r.I64());
        FATS_ASSIGN_OR_RETURN(m.trained_through, r.I64());
        FATS_ASSIGN_OR_RETURN(m.generation, r.U64());
        FATS_ASSIGN_OR_RETURN(uint8_t pass, r.U8());
        m.pass = static_cast<TrainPassKind>(pass);
        FATS_ASSIGN_OR_RETURN(uint8_t recomp, r.U8());
        m.recomputation = recomp != 0;
        FATS_ASSIGN_OR_RETURN(m.comm_rounds, r.I64());
        FATS_ASSIGN_OR_RETURN(m.comm_uplink_bytes, r.I64());
        FATS_ASSIGN_OR_RETURN(m.comm_downlink_bytes, r.I64());
        FATS_ASSIGN_OR_RETURN(m.comm_downlink_messages, r.I64());
        FATS_ASSIGN_OR_RETURN(m.comm_uplink_messages, r.I64());
        FATS_ASSIGN_OR_RETURN(m.comm_retransmits, r.I64());
        FATS_ASSIGN_OR_RETURN(m.comm_retransmit_bytes, r.I64());
        progress.seen = true;
        generation = m.generation;
        break;
      }
      case Tag::kTruncate: {
        FATS_ASSIGN_OR_RETURN(int64_t from_iter, r.I64());
        store.TruncateFromIteration(from_iter, e);
        break;
      }
      case Tag::kGenerationBump: {
        FATS_ASSIGN_OR_RETURN(generation, r.U64());
        break;
      }
      case Tag::kOpBegin:
      case Tag::kOpEnd:
        break;
      case Tag::kBegin:
        return Status::IoError("unexpected kBegin mid-segment: " +
                               journal_path);
      default:
        return Status::IoError("unknown journal record tag");
    }
  }
  session->replayed_records_ =
      static_cast<int64_t>(commit_records) - 1;  // kBegin is not state

  trainer->set_generation(generation);
  if (progress.seen) {
    trainer->set_trained_through(progress.mark.trained_through);
    trainer->comm_stats().Reset();
    CommCounters counters;
    counters.rounds = progress.mark.comm_rounds;
    counters.uplink_bytes = progress.mark.comm_uplink_bytes;
    counters.downlink_bytes = progress.mark.comm_downlink_bytes;
    counters.downlink_messages = progress.mark.comm_downlink_messages;
    counters.uplink_messages = progress.mark.comm_uplink_messages;
    counters.retransmits = progress.mark.comm_retransmits;
    counters.retransmit_bytes = progress.mark.comm_retransmit_bytes;
    trainer->comm_stats().Merge(CommStats::FromCounters(counters));
  }
  // Leave the model holding the latest recovered global parameters, exactly
  // as a completed pass would.
  {
    const int64_t t = trainer->trained_through();
    const Tensor* global = store.GetGlobalModel(t / e);
    if (global != nullptr) trainer->model()->SetParameters(*global);
  }

  // Re-open the segment for appending, dropping the uncommitted tail.
  FATS_ASSIGN_OR_RETURN(
      session->writer_,
      JournalWriter::OpenForAppend(journal_path, commit_offset));

  // Attach first, then finish any interrupted pass so the re-executed
  // iterations are journaled like the originals.
  trainer->set_event_sink(session.get());
  if (progress.seen && progress.mark.iteration < progress.mark.pass_end) {
    const IterationMark& m = progress.mark;
    trainer->set_recomputation_mode(m.recomputation);
    // A pass resumed mid-round rebuilds the round's prefix, losses included.
    trainer->RunPass(m.iteration + 1, m.pass_end, m.pass);
    trainer->set_recomputation_mode(false);
  }
  FATS_RETURN_NOT_OK(session->status_);
  return session;
}

DurableTrainingSession::~DurableTrainingSession() {
  if (trainer_ != nullptr && trainer_->event_sink() == this) {
    trainer_->set_event_sink(nullptr);
  }
  // Destructor cannot surface the close Status. Nothing acknowledged is
  // lost if Close's sync fails: every closed unlearning bracket and
  // rotation has already fsynced, the training rounds since the last sync
  // are re-computed on recovery, and status() holds the first earlier
  // failure.
  // fats-lint: allow(discarded-status)
  if (writer_ != nullptr) (void)writer_->Close();
}

Status DurableTrainingSession::StartSegment() {
  writer_.reset();
  FATS_RETURN_NOT_OK(JournalWriter::Create(journal_path_));
  FATS_ASSIGN_OR_RETURN(
      JournalScan scan, ScanJournal(journal_path_));
  FATS_ASSIGN_OR_RETURN(
      writer_,
      JournalWriter::OpenForAppend(journal_path_, scan.valid_bytes));
  FATS_RETURN_NOT_OK(
      writer_->Append(BeginPayload(trainer_->config(), epoch_)));
  return writer_->Sync();
}

Status DurableTrainingSession::Checkpoint() {
  if (in_op_) {
    return Status::FailedPrecondition(
        "cannot rotate the journal inside an unlearning operation");
  }
  FATS_RETURN_NOT_OK(status_);
  FATS_RETURN_NOT_OK(writer_->Sync());
  // Order is load-bearing: once the checkpoint at epoch+1 is renamed into
  // place, the current segment (epoch) is stale by the epoch rule, so a
  // crash anywhere in between recovers from the new checkpoint alone.
  FATS_RETURN_NOT_OK(
      SaveTrainerCheckpoint(trainer_, checkpoint_path_, epoch_ + 1));
  ++epoch_;
  Status started = StartSegment();
  if (!started.ok()) status_ = started;
  return started;
}

void DurableTrainingSession::AppendRecord(const std::string& payload) {
  if (!status_.ok() || writer_ == nullptr) return;
  Status appended = writer_->Append(payload);
  if (!appended.ok()) status_ = appended;
}

void DurableTrainingSession::SyncJournal() {
  if (!status_.ok() || writer_ == nullptr) return;
  Status synced = writer_->Sync();
  if (!synced.ok()) status_ = synced;
}

void DurableTrainingSession::OnClientSelection(
    int64_t round, const std::vector<int64_t>& selection) {
  PayloadWriter w;
  w.U8(static_cast<uint8_t>(Tag::kSelection));
  w.I64(round);
  w.I64Vec(selection);
  AppendRecord(w.str());
}

void DurableTrainingSession::OnMinibatch(int64_t iteration, int64_t client,
                                         const std::vector<int64_t>& indices) {
  PayloadWriter w;
  w.U8(static_cast<uint8_t>(Tag::kMinibatch));
  w.I64(iteration);
  w.I64(client);
  w.I64Vec(indices);
  AppendRecord(w.str());
}

// Local models are not journaled: recovery rebuilds them from the
// journaled global models and mini-batches.
void DurableTrainingSession::OnLocalModel(int64_t, int64_t, const Tensor&) {}

void DurableTrainingSession::OnGlobalModel(int64_t round,
                                           const Tensor& params) {
  PayloadWriter w;
  w.U8(static_cast<uint8_t>(Tag::kGlobalModel));
  w.I64(round);
  w.TensorData(params);
  AppendRecord(w.str());
}

void DurableTrainingSession::OnRoundRecord(const RoundRecord& record) {
  PayloadWriter w;
  w.U8(static_cast<uint8_t>(Tag::kRoundRecord));
  w.I64(record.round);
  w.F64(record.test_accuracy);
  w.F64(record.mean_local_loss);
  w.U8(record.recomputation ? 1 : 0);
  AppendRecord(w.str());
}

void DurableTrainingSession::OnIterationComplete(const IterationMark& mark) {
  PayloadWriter w;
  w.U8(static_cast<uint8_t>(Tag::kProgress));
  w.I64(mark.iteration);
  w.I64(mark.pass_end);
  w.I64(mark.trained_through);
  w.U64(mark.generation);
  w.U8(static_cast<uint8_t>(mark.pass));
  w.U8(mark.recomputation ? 1 : 0);
  w.I64(mark.comm_rounds);
  w.I64(mark.comm_uplink_bytes);
  w.I64(mark.comm_downlink_bytes);
  w.I64(mark.comm_downlink_messages);
  w.I64(mark.comm_uplink_messages);
  w.I64(mark.comm_retransmits);
  w.I64(mark.comm_retransmit_bytes);
  AppendRecord(w.str());
  // Inside an unlearning bracket nothing is committed before kOpEnd, whose
  // sync makes the whole operation durable at once. Outside one, a round
  // boundary syncs only a tail of at least kRoundSyncTailBytes.
  if (!in_op_ && mark.iteration % trainer_->config().local_iters_e == 0 &&
      writer_ != nullptr &&
      writer_->unsynced_bytes() >= kRoundSyncTailBytes) {
    SyncJournal();
  }
}

void DurableTrainingSession::OnTruncate(int64_t from_iteration) {
  PayloadWriter w;
  w.U8(static_cast<uint8_t>(Tag::kTruncate));
  w.I64(from_iteration);
  AppendRecord(w.str());
}

void DurableTrainingSession::OnGenerationBump(uint64_t generation) {
  PayloadWriter w;
  w.U8(static_cast<uint8_t>(Tag::kGenerationBump));
  w.U64(generation);
  AppendRecord(w.str());
}

void DurableTrainingSession::OnUnlearnBegin() {
  in_op_ = true;
  PayloadWriter w;
  w.U8(static_cast<uint8_t>(Tag::kOpBegin));
  AppendRecord(w.str());
}

void DurableTrainingSession::OnUnlearnEnd() {
  in_op_ = false;
  PayloadWriter w;
  w.U8(static_cast<uint8_t>(Tag::kOpEnd));
  AppendRecord(w.str());
  SyncJournal();
}

}  // namespace fats
