// Trainer checkpointing: persist and restore the full FATS algorithmic
// state (model, state store, randomness generation, progress, logs).
//
// The checkpoint captures everything FATS-SU / FATS-CU need, so a server
// can stop, restart from disk, and still serve exact unlearning requests
// against the recorded history. Datasets are NOT part of the checkpoint
// (they live with the clients); the restoring process must reconstruct the
// same FederatedDataset (same profile + seed + prior deletions) and build
// the trainer with the same spec/config before calling Load.
//
// Format (version 6): "FATSCKPT" magic, u32 version, config echo
// (validated on load), u64 journal epoch, progress markers and the model
// parameters, then the store records — client selections and mini-batches
// as history-codec index-list blobs, global models as raw tensors; no local
// models, which the trainer rebuilds from those — the round log, the full
// CommCounters snapshot (per-direction message counts and the retransmit
// ledger), and a trailing "FATSEND." footer. The footer lets the loader
// reject writes torn at a record boundary, which the length-prefixed
// records alone cannot detect. Any other version is rejected with
// InvalidArgument.
//
// The journal epoch ties the checkpoint to its journal segment (see
// io/train_journal.h): a segment whose kBegin epoch is older than the
// checkpoint's is stale and is ignored on recovery. Standalone checkpoints
// use epoch 0.

#ifndef FATS_IO_CHECKPOINT_H_
#define FATS_IO_CHECKPOINT_H_

#include <string>

#include "core/fats_trainer.h"
#include "util/binary_io.h"
#include "util/status.h"

namespace fats {

/// Serializes a bare tensor (shape + data) through `writer`.
void WriteTensor(const Tensor& tensor, BinaryWriter* writer);
/// Reads a tensor written by WriteTensor.
Result<Tensor> ReadTensor(BinaryReader* reader);

/// Writes `trainer`'s full state to `path`. The write goes to a sibling
/// `<path>.tmp` file which is renamed into place only after a successful
/// flush, so a crash or I/O error mid-save never clobbers an existing
/// checkpoint with a torn file; on failure the temp file is removed.
/// `journal_epoch` stamps the checkpoint for journal recovery (0 when the
/// checkpoint is not paired with a journal).
Status SaveTrainerCheckpoint(FatsTrainer* trainer, const std::string& path,
                             uint64_t journal_epoch = 0);

/// Restores state saved by SaveTrainerCheckpoint into `trainer`, which must
/// have been constructed with the same ModelSpec and FatsConfig over an
/// equivalent dataset. Fails with InvalidArgument if the stored config does
/// not match the trainer's. Any stale `<path>.tmp` stranded by a crash
/// mid-save is swept first. `journal_epoch`, when non-null, receives the
/// stored epoch.
Status LoadTrainerCheckpoint(const std::string& path, FatsTrainer* trainer,
                             uint64_t* journal_epoch = nullptr);

}  // namespace fats

#endif  // FATS_IO_CHECKPOINT_H_
