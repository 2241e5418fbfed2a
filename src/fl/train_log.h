// Per-round training history shared by all trainers.

#ifndef FATS_FL_TRAIN_LOG_H_
#define FATS_FL_TRAIN_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace fats {

struct RoundRecord {
  int64_t round = 0;          // global round counter (1-based)
  /// FedAvg and FR² fill this inside their round loops. FATS leaves it at
  /// 0.0 and readers fill it on read from the stored round model
  /// (FatsTrainer::EvaluateRoundAccuracy).
  double test_accuracy = 0.0;
  double mean_local_loss = 0.0;
  /// True for rounds that were (re-)executed as part of unlearning
  /// re-computation rather than the original training pass.
  bool recomputation = false;
};

class TrainLog {
 public:
  void Append(RoundRecord record) { records_.push_back(record); }
  const std::vector<RoundRecord>& records() const { return records_; }
  bool empty() const { return records_.empty(); }
  void Clear() { records_.clear(); }
  void SetAccuracy(size_t index, double test_accuracy) {
    records_[index].test_accuracy = test_accuracy;
  }

  /// Latest recorded test accuracy (0 if none).
  double LastAccuracy() const {
    return records_.empty() ? 0.0 : records_.back().test_accuracy;
  }

  /// Number of trailing records flagged as re-computation (the unlearning
  /// cost in rounds for the most recent request).
  int64_t TrailingRecomputationRounds() const;

  /// Rounds needed (counting from `from_index` in the record list) until
  /// test accuracy first reaches `target`. Returns -1 if never reached.
  int64_t RoundsToReach(double target, size_t from_index) const;

  std::string ToCsv() const;

  /// Writes the CSV rendering to `path`, propagating write/flush failures
  /// (a full disk surfaces as kIoError, not a silently truncated file).
  Status WriteCsvFile(const std::string& path) const;

 private:
  std::vector<RoundRecord> records_;
};

}  // namespace fats

#endif  // FATS_FL_TRAIN_LOG_H_
