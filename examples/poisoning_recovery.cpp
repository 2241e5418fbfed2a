// Scenario: countering data poisoning (the paper's §1 motivation beyond
// privacy). A malicious client joins the federation with label-flipped
// data, dragging the global model down. Once detected, FATS-CU removes the
// attacker *exactly* — the recovered model is distributed as if the
// attacker had never enrolled, a guarantee no gradient-surgery defence
// offers — at a fraction of the cost of retraining from scratch.

#include <algorithm>
#include <cstdio>

#include "core/fats_trainer.h"
#include "core/unlearning_service.h"
#include "data/paper_configs.h"

using namespace fats;  // NOLINT: example brevity

namespace {

/// Rebuilds the federation with the `attackers` coalition's labels flipped
/// (y -> (y+1) mod classes): a classic availability poisoning.
FederatedDataset PoisonedFederation(const DatasetProfile& profile,
                                    uint64_t seed,
                                    const std::vector<int64_t>& attackers) {
  FederatedDataset clean = BuildFederatedData(profile, seed);
  std::vector<InMemoryDataset> shards;
  for (int64_t k = 0; k < clean.num_clients(); ++k) {
    const InMemoryDataset& shard = clean.client_data(k);
    const bool poisoned =
        std::find(attackers.begin(), attackers.end(), k) != attackers.end();
    if (!poisoned) {
      shards.push_back(shard);
      continue;
    }
    std::vector<int64_t> flipped = shard.labels();
    for (int64_t& y : flipped) y = (y + 1) % shard.num_classes();
    shards.emplace_back(shard.features(), std::move(flipped),
                        shard.num_classes());
  }
  return FederatedDataset(std::move(shards), clean.global_test());
}

}  // namespace

int main() {
  DatasetProfile profile = ScaledProfile("mnist").value();
  profile.clients_m = 36;
  profile.rounds_r = 12;
  profile.test_size = 240;
  // A 19% coalition: enough weight to visibly poison the global model.
  const std::vector<int64_t> attackers = {2, 5, 8, 13, 21, 27, 33};

  FatsConfig config = FatsConfig::FromProfile(profile);
  config.rho_c = 1.0;  // K = ρ_C·M/R = 3 clients per round
  config.seed = 7;

  // ---- clean reference ----
  FederatedDataset clean_data = BuildFederatedData(profile, 7);
  FatsTrainer clean(profile.model, config, &clean_data);
  clean.Train();
  std::printf("clean federation    : accuracy %.3f\n",
              clean.EvaluateTestAccuracy());

  // ---- poisoned run ----
  FederatedDataset poisoned_data = PoisonedFederation(profile, 7, attackers);
  FatsTrainer trainer(profile.model, config, &poisoned_data);
  trainer.Train();
  std::printf("with 7 poisoned clts: accuracy %.3f\n",
              trainer.EvaluateTestAccuracy());

  // ---- detection is out of scope; removal is exact ----
  // The coalition is removed as one simultaneous batch: one flush, one
  // replay.
  std::vector<UnlearningRequest> requests;
  for (int64_t attacker : attackers) {
    requests.push_back({.kind = UnlearningRequest::Kind::kClient,
                        .client = attacker,
                        .request_iter = config.total_iters_t()});
  }
  UnlearningService service(&trainer);
  const ServiceFlushStats stats = service.ExecuteStream(requests).value();
  std::printf("FATS-CU removal     : recomputed %lld/%lld rounds\n",
              static_cast<long long>(stats.replayed_rounds),
              static_cast<long long>(profile.rounds_r));
  std::printf("after exact removal : accuracy %.3f  (federation: %lld of "
              "%lld clients remain)\n",
              trainer.EvaluateTestAccuracy(),
              static_cast<long long>(poisoned_data.num_active_clients()),
              static_cast<long long>(poisoned_data.num_clients()));
  std::printf("\nThe coalition's influence is *provably* gone (Theorem 1): "
              "the recovered model's\ndistribution equals training without "
              "the attackers — compare the clean run above.\nFRS would have "
              "paid %lld rounds per request for the same guarantee.\n",
              static_cast<long long>(profile.rounds_r));
  return 0;
}
