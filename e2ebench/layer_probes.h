// Direct, timed calls into single layers' public functions at a workload's
// exact shapes. Each returns the median over many calls, so one slow call
// (or one slow second of the machine) does not move the figure.

#ifndef FATS_E2EBENCH_LAYER_PROBES_H_
#define FATS_E2EBENCH_LAYER_PROBES_H_

#include <cstdint>
#include <vector>

#include "core/fats_trainer.h"
#include "core/unlearning_executor.h"

namespace fats::e2e {

struct ProbeResults {
  double nn_step_us = 0.0;
  double deliver_us = 0.0;
  double crc32_mb_per_s = 0.0;
  double tree_aggregate_us = 0.0;
  double history_scan_ms = 0.0;
  double submit_us = 0.0;
  double triage_ns = 0.0;
  int64_t rejected_submits = 0;
};

double Median(std::vector<double> values);

/// Runs every probe against `trainer`'s current state (its model `spec`).
/// `requests` are valid deletion requests for a probe service that is never
/// flushed, so nothing the trainer or its dataset holds changes.
ProbeResults RunLayerProbes(const ModelSpec& spec, FatsTrainer* trainer,
                            const std::vector<UnlearningRequest>& requests);

}  // namespace fats::e2e

#endif  // FATS_E2EBENCH_LAYER_PROBES_H_
