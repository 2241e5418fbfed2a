#include "io/checkpoint.h"

#include <cmath>
#include <cstdio>

#include "io/journal.h"
#include "state/history_codec.h"
#include "util/failpoint.h"

namespace fats {

namespace {

constexpr char kMagic[] = "FATSCKPT";
// Version 2 appends kFooter so a write torn at a record boundary (which
// would otherwise parse cleanly) is detected on load. Version 3 adds the
// journal epoch after the config echo. Version 5 stores index-list records
// (client selections, mini-batches) as history-codec blobs
// (state/history_codec.h) instead of raw i64 vectors — the same
// bit-specified compression the tiered store uses, so checkpoints shrink
// with the history and decode bit-exactly. Version 6 drops the local-model
// section: the trainer rebuilds local models from the global models and
// mini-batches.
constexpr char kFooter[] = "FATSEND.";
constexpr uint32_t kVersion = 6;

// Upper bound on the element count of any single checkpointed tensor.
// Shapes whose volume exceeds it (or overflows int64_t) are corrupt: the
// largest model in the zoo is far below this, and the guard keeps a bad
// shape from turning into a multi-GB allocation.
constexpr int64_t kMaxTensorVolume = int64_t{1} << 33;

void WriteConfig(const FatsConfig& config, BinaryWriter* writer) {
  writer->WriteI64(config.clients_m);
  writer->WriteI64(config.samples_per_client_n);
  writer->WriteI64(config.rounds_r);
  writer->WriteI64(config.local_iters_e);
  writer->WriteDouble(config.rho_s);
  writer->WriteDouble(config.rho_c);
  writer->WriteDouble(config.learning_rate);
  writer->WriteU64(config.seed);
}

Result<FatsConfig> ReadConfig(BinaryReader* reader) {
  FatsConfig config;
  FATS_ASSIGN_OR_RETURN(config.clients_m, reader->ReadI64());
  FATS_ASSIGN_OR_RETURN(config.samples_per_client_n, reader->ReadI64());
  FATS_ASSIGN_OR_RETURN(config.rounds_r, reader->ReadI64());
  FATS_ASSIGN_OR_RETURN(config.local_iters_e, reader->ReadI64());
  FATS_ASSIGN_OR_RETURN(config.rho_s, reader->ReadDouble());
  FATS_ASSIGN_OR_RETURN(config.rho_c, reader->ReadDouble());
  FATS_ASSIGN_OR_RETURN(config.learning_rate, reader->ReadDouble());
  FATS_ASSIGN_OR_RETURN(config.seed, reader->ReadU64());
  return config;
}

bool ConfigsMatch(const FatsConfig& a, const FatsConfig& b) {
  return a.clients_m == b.clients_m &&
         a.samples_per_client_n == b.samples_per_client_n &&
         a.rounds_r == b.rounds_r && a.local_iters_e == b.local_iters_e &&
         std::fabs(a.rho_s - b.rho_s) < 1e-12 &&
         std::fabs(a.rho_c - b.rho_c) < 1e-12 &&
         std::fabs(a.learning_rate - b.learning_rate) < 1e-12 &&
         a.seed == b.seed;
}

}  // namespace

void WriteTensor(const Tensor& tensor, BinaryWriter* writer) {
  writer->WriteI64Vector(tensor.shape());
  writer->WriteFloatVector(tensor.storage());
}

Result<Tensor> ReadTensor(BinaryReader* reader) {
  FATS_ASSIGN_OR_RETURN(std::vector<int64_t> shape, reader->ReadI64Vector());
  FATS_ASSIGN_OR_RETURN(std::vector<float> data, reader->ReadFloatVector());
  if (shape.empty() && data.empty()) return Tensor();
  int64_t volume = 1;
  for (int64_t d : shape) {
    if (d <= 0) return Status::IoError("corrupt tensor shape");
    if (d > kMaxTensorVolume || volume > kMaxTensorVolume / d) {
      return Status::IoError("tensor shape volume overflows sanity bound");
    }
    volume *= d;
  }
  if (volume != static_cast<int64_t>(data.size())) {
    return Status::IoError("tensor shape/data size mismatch");
  }
  return Tensor(std::move(shape), std::move(data));
}

namespace {

Status WriteCheckpointFile(FatsTrainer* trainer, const std::string& path,
                           uint64_t journal_epoch) {
  BinaryWriter writer(path);
  FATS_RETURN_NOT_OK(writer.status());
  FATS_FAILPOINT_STATUS("checkpoint.write.body");
  writer.WriteString(kMagic);
  writer.WriteU32(kVersion);
  WriteConfig(trainer->config(), &writer);
  writer.WriteU64(journal_epoch);

  // Progress markers and the deployed model.
  writer.WriteU64(trainer->generation());
  writer.WriteI64(trainer->trained_through());
  writer.WriteI64(trainer->local_iterations_executed());
  WriteTensor(trainer->global_params(), &writer);

  // State store.
  const StateStore& store = trainer->store();
  const std::vector<int64_t> selection_rounds = store.SelectionRounds();
  writer.WriteU64(selection_rounds.size());
  for (int64_t round : selection_rounds) {
    writer.WriteI64(round);
    writer.WriteString(
        state::EncodeIndexList(*store.GetClientSelection(round)));
  }
  const std::vector<int64_t> model_rounds = store.GlobalModelRounds();
  writer.WriteU64(model_rounds.size());
  for (int64_t round : model_rounds) {
    writer.WriteI64(round);
    WriteTensor(*store.GetGlobalModel(round), &writer);
  }
  const auto minibatch_keys = store.MinibatchKeys();
  writer.WriteU64(minibatch_keys.size());
  for (const auto& [iter, client] : minibatch_keys) {
    writer.WriteI64(iter);
    writer.WriteI64(client);
    writer.WriteString(state::EncodeIndexList(*store.GetMinibatch(iter,
                                                                  client)));
  }

  // Round log and communication counters.
  const auto& records = trainer->log().records();
  writer.WriteU64(records.size());
  for (const RoundRecord& record : records) {
    writer.WriteI64(record.round);
    writer.WriteDouble(record.test_accuracy);
    writer.WriteDouble(record.mean_local_loss);
    writer.WriteU32(record.recomputation ? 1 : 0);
  }
  const CommCounters& comm = trainer->comm_stats().counters();
  writer.WriteI64(comm.rounds);
  writer.WriteI64(comm.uplink_bytes);
  writer.WriteI64(comm.downlink_bytes);
  writer.WriteI64(comm.downlink_messages);
  writer.WriteI64(comm.uplink_messages);
  writer.WriteI64(comm.retransmits);
  writer.WriteI64(comm.retransmit_bytes);
  writer.WriteString(kFooter);
  return writer.Finish();
}

}  // namespace

Status SaveTrainerCheckpoint(FatsTrainer* trainer, const std::string& path,
                             uint64_t journal_epoch) {
  // Write to a sibling temp file and rename into place, so a crash or a
  // full disk mid-save never leaves a torn file at `path` (the previous
  // checkpoint, if any, survives intact).
  const std::string tmp_path = path + ".tmp";
  Status written = WriteCheckpointFile(trainer, tmp_path, journal_epoch);
  if (!written.ok()) {
    std::remove(tmp_path.c_str());
    return written;
  }
  // Crash here strands the `.tmp`; the loader sweeps it.
  FATS_FAILPOINT("checkpoint.rename");
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IoError("failed to rename checkpoint into place: " + path);
  }
  return Status::OK();
}

Status LoadTrainerCheckpoint(const std::string& path, FatsTrainer* trainer,
                             uint64_t* journal_epoch) {
  // A crash between tmp-write and rename leaves an orphan `<path>.tmp`
  // containing a possibly-torn checkpoint; it is never valid input, so
  // remove it rather than leak it.
  SweepOrphanTmp(path);
  BinaryReader reader(path);
  FATS_RETURN_NOT_OK(reader.status());
  FATS_ASSIGN_OR_RETURN(std::string magic, reader.ReadString());
  if (magic != kMagic) {
    return Status::InvalidArgument("not a FATS checkpoint: " + path);
  }
  FATS_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32());
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported checkpoint version");
  }
  FATS_ASSIGN_OR_RETURN(FatsConfig stored_config, ReadConfig(&reader));
  if (!ConfigsMatch(stored_config, trainer->config())) {
    return Status::InvalidArgument(
        "checkpoint config does not match the trainer's: " +
        stored_config.ToString());
  }
  FATS_ASSIGN_OR_RETURN(uint64_t stored_epoch, reader.ReadU64());

  // Parse everything into staging storage first; the trainer is mutated
  // only after the whole file has validated, so a corrupt checkpoint never
  // leaves a half-restored state behind.
  FATS_ASSIGN_OR_RETURN(uint64_t generation, reader.ReadU64());
  FATS_ASSIGN_OR_RETURN(int64_t trained_through, reader.ReadI64());
  FATS_ASSIGN_OR_RETURN(int64_t local_iters, reader.ReadI64());
  (void)local_iters;  // informational; the counter restarts on restore
  FATS_ASSIGN_OR_RETURN(Tensor params, ReadTensor(&reader));
  if (params.size() != trainer->model()->NumParameters()) {
    return Status::InvalidArgument("checkpoint model size mismatch");
  }

  std::vector<std::pair<int64_t, std::vector<int64_t>>> selections;
  FATS_ASSIGN_OR_RETURN(uint64_t num_selections, reader.ReadU64());
  for (uint64_t i = 0; i < num_selections; ++i) {
    FATS_ASSIGN_OR_RETURN(int64_t round, reader.ReadI64());
    // Record keys feed the tiered store, whose domain is non-negative;
    // a flipped sign bit must be a load error, not a CHECK abort.
    if (round < 0) return Status::IoError("corrupt checkpoint: round < 0");
    FATS_ASSIGN_OR_RETURN(std::string blob, reader.ReadString());
    std::vector<int64_t> selection;
    FATS_RETURN_NOT_OK(state::DecodeIndexList(blob, &selection));
    selections.emplace_back(round, std::move(selection));
  }
  std::vector<std::pair<int64_t, Tensor>> global_models;
  FATS_ASSIGN_OR_RETURN(uint64_t num_models, reader.ReadU64());
  for (uint64_t i = 0; i < num_models; ++i) {
    FATS_ASSIGN_OR_RETURN(int64_t round, reader.ReadI64());
    FATS_ASSIGN_OR_RETURN(Tensor model, ReadTensor(&reader));
    global_models.emplace_back(round, std::move(model));
  }
  struct BatchRecord {
    int64_t iter;
    int64_t client;
    std::vector<int64_t> batch;
  };
  std::vector<BatchRecord> minibatches;
  FATS_ASSIGN_OR_RETURN(uint64_t num_batches, reader.ReadU64());
  for (uint64_t i = 0; i < num_batches; ++i) {
    BatchRecord record;
    FATS_ASSIGN_OR_RETURN(record.iter, reader.ReadI64());
    FATS_ASSIGN_OR_RETURN(record.client, reader.ReadI64());
    if (record.iter < 0) {
      return Status::IoError("corrupt checkpoint: minibatch iter < 0");
    }
    FATS_ASSIGN_OR_RETURN(std::string blob, reader.ReadString());
    FATS_RETURN_NOT_OK(state::DecodeIndexList(blob, &record.batch));
    minibatches.push_back(std::move(record));
  }
  std::vector<RoundRecord> records;
  FATS_ASSIGN_OR_RETURN(uint64_t num_records, reader.ReadU64());
  for (uint64_t i = 0; i < num_records; ++i) {
    RoundRecord record;
    FATS_ASSIGN_OR_RETURN(record.round, reader.ReadI64());
    FATS_ASSIGN_OR_RETURN(record.test_accuracy, reader.ReadDouble());
    FATS_ASSIGN_OR_RETURN(record.mean_local_loss, reader.ReadDouble());
    FATS_ASSIGN_OR_RETURN(uint32_t recompute, reader.ReadU32());
    record.recomputation = recompute != 0;
    records.push_back(record);
  }
  CommCounters comm;
  FATS_ASSIGN_OR_RETURN(comm.rounds, reader.ReadI64());
  FATS_ASSIGN_OR_RETURN(comm.uplink_bytes, reader.ReadI64());
  FATS_ASSIGN_OR_RETURN(comm.downlink_bytes, reader.ReadI64());
  FATS_ASSIGN_OR_RETURN(comm.downlink_messages, reader.ReadI64());
  FATS_ASSIGN_OR_RETURN(comm.uplink_messages, reader.ReadI64());
  FATS_ASSIGN_OR_RETURN(comm.retransmits, reader.ReadI64());
  FATS_ASSIGN_OR_RETURN(comm.retransmit_bytes, reader.ReadI64());

  // The footer catches a write torn at a record boundary, which the
  // length-prefixed records above cannot distinguish from a complete file.
  FATS_ASSIGN_OR_RETURN(std::string footer, reader.ReadString());
  if (footer != kFooter) {
    return Status::IoError("truncated checkpoint (missing footer): " + path);
  }
  if (reader.remaining() != 0) {
    return Status::IoError("trailing bytes after checkpoint footer: " + path);
  }

  // ---- commit ----
  StateStore& store = trainer->store();
  store.Clear();
  for (auto& [round, selection] : selections) {
    store.SaveClientSelection(round, std::move(selection));
  }
  for (auto& [round, model] : global_models) {
    store.SaveGlobalModel(round, std::move(model));
  }
  for (BatchRecord& record : minibatches) {
    store.SaveMinibatch(record.iter, record.client, std::move(record.batch));
  }
  TrainLog* log = trainer->mutable_log();
  log->Clear();
  for (const RoundRecord& record : records) log->Append(record);
  trainer->comm_stats().Reset();
  trainer->comm_stats().Merge(CommStats::FromCounters(comm));
  trainer->set_generation(generation);
  trainer->set_trained_through(trained_through);
  trainer->model()->SetParameters(params);
  if (journal_epoch != nullptr) *journal_epoch = stored_epoch;
  return Status::OK();
}

}  // namespace fats
