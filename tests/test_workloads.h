// Shared tiny workloads for trainer / unlearning tests, and an independent
// one-request-at-a-time reference for the unlearning service.

#ifndef FATS_TESTS_TEST_WORKLOADS_H_
#define FATS_TESTS_TEST_WORKLOADS_H_

#include <cstdint>
#include <vector>

#include "core/fats_config.h"
#include "core/fats_trainer.h"
#include "core/unlearning_service.h"
#include "data/federated_dataset.h"
#include "data/paper_configs.h"
#include "data/synthetic_image.h"
#include "nn/model_zoo.h"
#include "util/logging.h"

namespace fats {

/// A tiny separable image workload: `clients` clients with `n` samples each
/// of a `classes`-way Gaussian-cluster task in `dim` dimensions.
inline FederatedDataset TinyImageData(int64_t clients, int64_t n,
                                      int64_t classes = 2, int64_t dim = 4,
                                      uint64_t seed = 17) {
  SyntheticImageConfig config;
  config.num_classes = classes;
  config.feature_dim = dim;
  config.prototype_scale = 2.0;
  config.noise_stddev = 0.4;
  config.seed = seed;
  SyntheticImageGenerator gen(config);
  std::vector<InMemoryDataset> shards;
  for (int64_t k = 0; k < clients; ++k) {
    shards.push_back(
        gen.Generate(n, {}, -1, static_cast<uint64_t>(k) + 100));
  }
  InMemoryDataset test = gen.Generate(60, {}, -1, 999);
  return FederatedDataset(std::move(shards), std::move(test));
}

inline ModelSpec TinyModelSpec(int64_t classes = 2, int64_t dim = 4) {
  ModelSpec spec;
  spec.kind = ModelKind::kLogReg;
  spec.input_dim = dim;
  spec.num_classes = classes;
  return spec;
}

/// FatsConfig sized for the TinyImageData workload. rho values are chosen
/// so K and b derive to small integers.
inline FatsConfig TinyFatsConfig(int64_t clients, int64_t n,
                                 int64_t rounds = 4, int64_t e = 3,
                                 double rho_s = 0.5, double rho_c = 0.5,
                                 uint64_t seed = 7) {
  FatsConfig config;
  config.clients_m = clients;
  config.samples_per_client_n = n;
  config.rounds_r = rounds;
  config.local_iters_e = e;
  config.rho_s = rho_s;
  config.rho_c = rho_c;
  config.learning_rate = 0.1;
  config.seed = seed;
  return config;
}

/// Applies valid `requests` one at a time through the trainer's public API,
/// one replay per affected request — Algorithms 2 and 3 written out
/// directly, independent of UnlearningService. A sample deletion substitutes
/// every recorded batch that used the sample and replays from its first use;
/// a client removal truncates from its first round and re-runs from there.
/// A coalesced Flush of the same requests must match the result bit for bit.
inline void ApplySequentially(FatsTrainer* trainer,
                              const std::vector<UnlearningRequest>& requests) {
  const int64_t t_max = trainer->trained_through();
  const int64_t e = trainer->config().local_iters_e;
  trainer->set_recomputation_mode(true);
  for (const UnlearningRequest& request : requests) {
    if (request.kind == UnlearningRequest::Kind::kSample) {
      FATS_CHECK_OK(trainer->data()->RemoveSample(request.sample));
      const std::vector<int64_t>* posted =
          trainer->store().SampleUses(request.sample);
      const std::vector<int64_t> uses =
          posted == nullptr ? std::vector<int64_t>{} : *posted;
      trainer->BumpGeneration();
      for (int64_t t : uses) {
        FATS_CHECK_OK(trainer->RedrawMinibatch(t, request.sample.client));
      }
      if (!uses.empty()) trainer->ReplayFrom(uses.front());
    } else {
      const int64_t round = trainer->store().EarliestClientRound(request.client);
      FATS_CHECK_OK(trainer->data()->RemoveClient(request.client));
      if (round == -1) continue;
      const int64_t t_c = (round - 1) * e + 1;
      trainer->TruncateStoreFromIteration(t_c);
      trainer->BumpGeneration();
      trainer->Run(t_c, t_max);
    }
  }
  trainer->set_recomputation_mode(false);
}

}  // namespace fats

#endif  // FATS_TESTS_TEST_WORKLOADS_H_
