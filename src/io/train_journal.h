// Journaled durable training sessions: crash-exact recovery for FatsTrainer.
//
// A DurableTrainingSession pairs a checkpoint file with an append-only
// journal segment (io/journal.h) and attaches itself to a trainer as its
// TrainEventSink. Every durable state transition — the save(·) calls of
// Algorithm 1, iteration commits, truncations, generation bumps, and
// unlearning-operation brackets — is appended as a typed record. Because
// every random draw in training is a pure function of its Philox stream
// key, the committed journal prefix plus deterministic re-execution of the
// uncommitted tail reconstructs the in-memory state bit for bit: a process
// killed at *any* point recovers to exactly the state an uninterrupted run
// would have reached.
//
// Epoch protocol. Each checkpoint (since format v3) stores a journal epoch and
// each segment's leading kBegin record echoes the config and that epoch.
// Checkpoint() rotates: sync the old segment, save the checkpoint at
// epoch+1, then start a fresh segment at epoch+1. On Open:
//
//   segment epoch == checkpoint epoch  ->  replay the segment on top of
//                                          the checkpoint
//   segment epoch <  checkpoint epoch  ->  stale segment (crash between
//                                          checkpoint rename and segment
//                                          creation); ignore and rotate
//   segment epoch >  checkpoint epoch  ->  the checkpoint was lost; error
//
// Commit points. Replay applies records only up to the last commit point —
// the kBegin record, each iteration-progress record outside an open
// unlearning bracket, and each bracket-closing kOpEnd — and truncates the
// file there. Records past it describe a partially executed iteration or a
// half-done unlearning operation; both are re-executed (or re-requested)
// deterministically, so dropping them is exact. In particular a crash
// inside an unlearning operation rolls the whole operation back, matching
// the not-yet-committed data-side deletion.
//
// Durability cadence: every append is fflush'd (survives process death);
// fsync (survives power loss) happens at each unlearning bracket's closing
// kOpEnd, on rotation (Checkpoint), on close, and at a training round
// boundary outside a bracket only once the tail written since the last sync
// reaches kRoundSyncTailBytes; this cadence is fixed. An unlearning
// operation syncs once: its kOpBegin and the round boundaries of its replay
// are not commit points, so kOpEnd's sync makes the whole operation durable
// at once. A training round acknowledges nothing to anyone: it is a pure
// function of the seed and the committed prefix, so the rounds a power loss
// takes from the unsynced tail cost only their re-computation. A caller
// that wants a durable training point calls Checkpoint().

#ifndef FATS_IO_TRAIN_JOURNAL_H_
#define FATS_IO_TRAIN_JOURNAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fats_trainer.h"
#include "fl/train_events.h"
#include "io/journal.h"
#include "util/status.h"

namespace fats {

// Empty; kept only because the end-to-end benchmark passes one to Open.
struct DurableOptions {};

class DurableTrainingSession : public TrainEventSink {
 public:
  /// Opens (or recovers) a durable session over `trainer`, which must be
  /// freshly constructed with the same spec/config over an equivalent
  /// dataset, exactly as for LoadTrainerCheckpoint. Loads the checkpoint if
  /// one exists, replays the journal's committed prefix, finishes any
  /// interrupted training pass, and attaches itself as the trainer's event
  /// sink. On success the trainer is in the exact state the uninterrupted
  /// run had at its last committed point (or beyond, once the interrupted
  /// pass is finished).
  static Result<std::unique_ptr<DurableTrainingSession>> Open(
      const std::string& checkpoint_path, const std::string& journal_path,
      FatsTrainer* trainer, const DurableOptions& = {});

  ~DurableTrainingSession() override;
  DurableTrainingSession(const DurableTrainingSession&) = delete;
  DurableTrainingSession& operator=(const DurableTrainingSession&) = delete;

  /// A training round boundary syncs once the journal tail written since
  /// the last sync reaches this many bytes. At 1 MiB, unlearn_stream's
  /// ~4.8 KB rounds sync once per 217 rounds (never in its 25), a
  /// model whose round writes >= 1 MiB (d >~ 256k floats at 4 bytes each)
  /// still syncs every round, and a power loss costs at most the rounds
  /// in 1 MiB of journal plus one.
  static constexpr int64_t kRoundSyncTailBytes = int64_t{1} << 20;

  /// Rotates: syncs the journal, saves the checkpoint at epoch+1, and
  /// starts a fresh segment. Refuses mid-unlearning-operation.
  Status Checkpoint();

  /// First journal error, if any. Training continues in memory after a
  /// journal failure, but durability is lost; callers should surface this.
  const Status& status() const { return status_; }

  uint64_t epoch() const { return epoch_; }
  /// True if Open applied any journal records (i.e. recovered state that
  /// the checkpoint alone did not hold).
  bool recovered() const { return replayed_records_ > 0; }
  int64_t replayed_records() const { return replayed_records_; }

  // TrainEventSink:
  void OnClientSelection(int64_t round,
                         const std::vector<int64_t>& selection) override;
  void OnMinibatch(int64_t iteration, int64_t client,
                   const std::vector<int64_t>& indices) override;
  void OnLocalModel(int64_t iteration, int64_t client,
                    const Tensor& params) override;
  void OnGlobalModel(int64_t round, const Tensor& params) override;
  void OnRoundRecord(const RoundRecord& record) override;
  void OnIterationComplete(const IterationMark& mark) override;
  void OnTruncate(int64_t from_iteration) override;
  void OnGenerationBump(uint64_t generation) override;
  void OnUnlearnBegin() override;
  void OnUnlearnEnd() override;

 private:
  DurableTrainingSession(std::string checkpoint_path, std::string journal_path,
                         FatsTrainer* trainer)
      : checkpoint_path_(std::move(checkpoint_path)),
        journal_path_(std::move(journal_path)),
        trainer_(trainer) {}

  /// Starts a fresh segment at `epoch_` (Create + kBegin + sync).
  Status StartSegment();
  /// Appends one record, latching the first failure into status_.
  void AppendRecord(const std::string& payload);
  void SyncJournal();

  std::string checkpoint_path_;
  std::string journal_path_;
  FatsTrainer* trainer_;
  std::unique_ptr<JournalWriter> writer_;
  Status status_;
  uint64_t epoch_ = 0;
  int64_t replayed_records_ = 0;
  bool in_op_ = false;
};

}  // namespace fats

#endif  // FATS_IO_TRAIN_JOURNAL_H_
