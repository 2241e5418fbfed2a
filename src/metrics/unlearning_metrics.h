// Unlearning-specific evaluation metrics derived from training logs.

#ifndef FATS_METRICS_UNLEARNING_METRICS_H_
#define FATS_METRICS_UNLEARNING_METRICS_H_

#include <cstdint>

#include "fl/train_log.h"

namespace fats {

class FatsTrainer;

struct RecoveryMetrics {
  /// Test accuracy just before the unlearning request.
  double accuracy_before = 0.0;
  /// Test accuracy at the first evaluation after the request.
  double accuracy_after_drop = 0.0;
  /// accuracy_before − accuracy_after_drop (the "utility drop").
  double accuracy_drop = 0.0;
  /// Rounds after the request until accuracy returns to
  /// `recovery_fraction` × accuracy_before; -1 if never within the log.
  int64_t rounds_to_recover = -1;
  /// Final accuracy at the end of the log.
  double final_accuracy = 0.0;
};

/// Analyzes a log whose records up to index `request_index` (exclusive) are
/// pre-unlearning and whose remaining records are post-unlearning. A FATS
/// log carries accuracies only once FillRoundAccuracy has filled them.
RecoveryMetrics AnalyzeRecovery(const TrainLog& log, size_t request_index,
                                double recovery_fraction = 0.98);

/// Sets the test accuracy of records [begin, end) of the trainer's log to
/// that of their stored round models (FatsTrainer::EvaluateRoundAccuracy).
/// A stored model is replaced when unlearning replays its round, so fill
/// the records from before a request before flushing it.
void FillRoundAccuracy(FatsTrainer* trainer, size_t begin, size_t end);

}  // namespace fats

#endif  // FATS_METRICS_UNLEARNING_METRICS_H_
