// Scenario: a production FL deployment receives a *stream* of GDPR
// deletion requests - some for single records, some for whole users - and
// must honour each one exactly, while continuing to serve the model.
//
// Demonstrates UnlearningService::ExecuteStream on a mixed request
// sequence (the Appendix A.5 streaming setting) and prints the accuracy
// trajectory across requests plus the aggregate unlearning bill.

#include <cstdio>

#include "core/tv_stability.h"
#include "core/unlearning_service.h"
#include "data/paper_configs.h"

using namespace fats;  // NOLINT: example brevity

int main() {
  DatasetProfile profile = ScaledProfile("fashion").value();
  profile.clients_m = 40;
  profile.rounds_r = 10;
  profile.test_size = 240;
  std::printf("Deployment workload: %s\n\n", profile.ToString().c_str());

  FederatedDataset data = BuildFederatedData(profile, 5);
  FatsConfig config = FatsConfig::FromProfile(profile);
  config.seed = 99;
  FatsTrainer trainer(profile.model, config, &data);
  trainer.Train();
  std::printf("deployed model accuracy: %.3f\n\n",
              trainer.EvaluateTestAccuracy());

  // Build a stream of 8 requests: samples and clients interleaved.
  StreamId id;
  id.purpose = RngPurpose::kGeneric;
  RngStream rng(123, id);
  std::vector<UnlearningRequest> stream;
  std::vector<SampleRef> samples = PickRandomActiveSamples(data, 5, &rng);
  std::vector<int64_t> clients = PickRandomActiveClients(data, 3, &rng);
  for (size_t i = 0; i < samples.size(); ++i) {
    // Skip samples owned by a departing client (they vanish with it).
    bool owned = false;
    for (int64_t k : clients) owned = owned || samples[i].client == k;
    if (owned) continue;
    stream.push_back({.kind = UnlearningRequest::Kind::kSample,
                      .sample = samples[i],
                      .request_iter = config.total_iters_t()});
  }
  for (int64_t k : clients) {
    stream.push_back({.kind = UnlearningRequest::Kind::kClient,
                      .client = k,
                      .request_iter = config.total_iters_t()});
  }

  std::printf("processing %zu streaming requests...\n\n", stream.size());
  UnlearningService service(&trainer);
  std::printf("%6s %8s %10s %10s %10s\n", "req", "kind", "recompute",
              "rounds", "accuracy");
  ServiceFlushStats total;
  for (size_t i = 0; i < stream.size(); ++i) {
    const ServiceFlushStats one =
        service.ExecuteStream({stream[i]}, /*coalesce_window=*/1).value();
    total.Accumulate(one);
    std::printf("%6zu %8s %10s %10lld %10.3f\n", i + 1,
                stream[i].kind == UnlearningRequest::Kind::kSample
                    ? "sample"
                    : "client",
                one.triggered_requests > 0 ? "yes" : "no",
                static_cast<long long>(one.recomputed_rounds),
                trainer.EvaluateTestAccuracy());
  }

  const double rho_s = SampleLevelStabilityBound(config);
  const double rho_c = ClientLevelStabilityBound(config);
  std::printf("\nsummary: %lld/%lld requests needed re-computation "
              "(theory: <= rho per request, rho_s=%.2f rho_c=%.2f)\n",
              static_cast<long long>(total.triggered_requests),
              static_cast<long long>(total.requests), rho_s, rho_c);
  std::printf("total re-computed rounds: %lld (FRS would pay %lld)\n",
              static_cast<long long>(total.recomputed_rounds),
              static_cast<long long>(profile.rounds_r *
                                     static_cast<int64_t>(stream.size())));
  std::printf("final accuracy: %.3f with %lld of %lld clients remaining\n",
              trainer.EvaluateTestAccuracy(),
              static_cast<long long>(data.num_active_clients()),
              static_cast<long long>(data.num_clients()));
  return 0;
}
