#include "metrics/unlearning_metrics.h"

#include "core/fats_trainer.h"

namespace fats {

RecoveryMetrics AnalyzeRecovery(const TrainLog& log, size_t request_index,
                                double recovery_fraction) {
  RecoveryMetrics metrics;
  const auto& records = log.records();
  if (records.empty() || request_index == 0 ||
      request_index > records.size()) {
    return metrics;
  }
  metrics.accuracy_before = records[request_index - 1].test_accuracy;
  if (request_index < records.size()) {
    metrics.accuracy_after_drop = records[request_index].test_accuracy;
  } else {
    metrics.accuracy_after_drop = metrics.accuracy_before;
  }
  metrics.accuracy_drop =
      metrics.accuracy_before - metrics.accuracy_after_drop;
  metrics.rounds_to_recover = log.RoundsToReach(
      recovery_fraction * metrics.accuracy_before, request_index);
  metrics.final_accuracy = records.back().test_accuracy;
  return metrics;
}

void FillRoundAccuracy(FatsTrainer* trainer, size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    trainer->mutable_log()->SetAccuracy(
        i, trainer->EvaluateRoundAccuracy(trainer->log().records()[i].round));
  }
}

}  // namespace fats
