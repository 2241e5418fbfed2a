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
// fsync (survives power loss) happens at every round boundary, on
// unlearning brackets, and on rotation; this cadence is fixed.

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
