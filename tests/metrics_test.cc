#include <gtest/gtest.h>

#include "metrics/unlearning_metrics.h"
#include "test_workloads.h"

namespace fats {
namespace {

TrainLog MakeLog(std::vector<double> accuracies, size_t recompute_from) {
  TrainLog log;
  for (size_t i = 0; i < accuracies.size(); ++i) {
    RoundRecord record;
    record.round = static_cast<int64_t>(i) + 1;
    record.test_accuracy = accuracies[i];
    record.recomputation = i >= recompute_from;
    log.Append(record);
  }
  return log;
}

TEST(RecoveryMetricsTest, ComputesDropAndRecovery) {
  // Accuracy 0.8 before unlearning; drops to 0.4; recovers at record 5.
  TrainLog log = MakeLog({0.5, 0.8, 0.4, 0.6, 0.75, 0.81}, 2);
  RecoveryMetrics metrics = AnalyzeRecovery(log, 2, 0.95);
  EXPECT_DOUBLE_EQ(metrics.accuracy_before, 0.8);
  EXPECT_DOUBLE_EQ(metrics.accuracy_after_drop, 0.4);
  EXPECT_DOUBLE_EQ(metrics.accuracy_drop, 0.4);
  // Target = 0.95*0.8 = 0.76; reached at index 5 -> 4 rounds after request.
  EXPECT_EQ(metrics.rounds_to_recover, 4);
  EXPECT_DOUBLE_EQ(metrics.final_accuracy, 0.81);
}

TEST(RecoveryMetricsTest, NeverRecoversIsMinusOne) {
  TrainLog log = MakeLog({0.8, 0.3, 0.4}, 1);
  RecoveryMetrics metrics = AnalyzeRecovery(log, 1, 0.95);
  EXPECT_EQ(metrics.rounds_to_recover, -1);
}

TEST(RecoveryMetricsTest, RequestAtEndHasNoDrop) {
  TrainLog log = MakeLog({0.5, 0.7}, 2);
  RecoveryMetrics metrics = AnalyzeRecovery(log, 2, 0.95);
  EXPECT_DOUBLE_EQ(metrics.accuracy_drop, 0.0);
}

TEST(RecoveryMetricsTest, DegenerateInputsReturnDefaults) {
  TrainLog empty;
  RecoveryMetrics metrics = AnalyzeRecovery(empty, 0, 0.95);
  EXPECT_EQ(metrics.rounds_to_recover, -1);
  EXPECT_DOUBLE_EQ(metrics.accuracy_before, 0.0);
  TrainLog log = MakeLog({0.5}, 1);
  metrics = AnalyzeRecovery(log, 5, 0.95);  // out of range
  EXPECT_DOUBLE_EQ(metrics.accuracy_before, 0.0);
}

}  // namespace
}  // namespace fats
