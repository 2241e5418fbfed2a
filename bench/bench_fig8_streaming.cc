// Figure 8 (Appendix A.5): streaming unlearning — sequential deletion
// requests arriving one at a time — on the MNIST-like and FEMNIST-like
// profiles, for FATS, FRS, and FR².
//
// Expected shape: FATS's accuracy stays nearly flat across the stream (most
// requests need little or no re-computation and the recovered model is
// exact); FRS dips to scratch on every request; FR² stays up but drifts /
// fluctuates because the deletions are only approximately absorbed.

#include <cstdio>
#include <iostream>

#include "baselines/fr2.h"
#include "baselines/frs.h"
#include "bench_util.h"
#include "core/unlearning_service.h"
#include "util/flags.h"

namespace fats {
namespace {

using bench::FedAvgOptionsFromProfile;

struct StreamPlan {
  std::vector<SampleRef> samples;
  std::vector<int64_t> clients;
};

/// An alternating stream: sample, client, sample, client, ...
StreamPlan MakePlan(const FederatedDataset& data, int64_t pairs,
                    uint64_t seed) {
  StreamPlan plan;
  StreamId id;
  id.purpose = RngPurpose::kGeneric;
  RngStream rng(seed, id);
  plan.clients = PickRandomActiveClients(data, pairs, &rng);
  // Samples owned by surviving clients only.
  while (static_cast<int64_t>(plan.samples.size()) < pairs) {
    SampleRef ref = PickRandomActiveSamples(data, 1, &rng)[0];
    bool owned_by_departing = false;
    for (int64_t k : plan.clients) {
      owned_by_departing = owned_by_departing || ref.client == k;
    }
    bool duplicate = false;
    for (const SampleRef& existing : plan.samples) {
      duplicate = duplicate || existing == ref;
    }
    if (!owned_by_departing && !duplicate) plan.samples.push_back(ref);
  }
  return plan;
}

}  // namespace
}  // namespace fats

int main(int argc, char** argv) {
  using namespace fats;  // NOLINT
  FlagParser flags;
  int64_t* pairs = flags.AddInt("pairs", 3,
                                "number of (sample, client) request pairs");
  int64_t* seed = flags.AddInt("seed", 4, "workload seed");
  Status status = flags.Parse(argc, argv);
  if (status.code() == StatusCode::kNotFound) return 0;
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  CsvWriter csv(&std::cout, "# CSV,");
  csv.WriteHeader({"dataset", "method", "request_index", "request_kind",
                   "accuracy_after", "recompute_rounds"});

  for (const std::string name : {"mnist", "femnist"}) {
    DatasetProfile profile = ScaledProfile(name).value();
    profile = bench::ShrinkProfile(profile, 2);
    bench::PrintHeader("Figure 8 - " + name + " streaming requests (" +
                       std::to_string(2 * *pairs) + " alternating)");

    // The request plan is fixed across methods for comparability.
    FederatedDataset plan_data =
        BuildFederatedData(profile, static_cast<uint64_t>(*seed));
    StreamPlan plan = MakePlan(plan_data, *pairs,
                               static_cast<uint64_t>(*seed) + 7);

    // ---------------- FATS ----------------
    {
      FederatedDataset data =
          BuildFederatedData(profile, static_cast<uint64_t>(*seed));
      FatsConfig config = FatsConfig::FromProfile(profile);
      config.seed = static_cast<uint64_t>(*seed);
      FatsTrainer trainer(profile.model, config, &data);
      trainer.Train();
      UnlearningService service(&trainer);
      int64_t total_rounds = 0;
      std::string line =
          StrFormat("  FATS: start %.3f |", trainer.EvaluateTestAccuracy());
      for (int64_t i = 0; i < *pairs; ++i) {
        const ServiceFlushStats s1 =
            service
                .ExecuteStream(
                    {{.kind = UnlearningRequest::Kind::kSample,
                      .sample = plan.samples[static_cast<size_t>(i)],
                      .request_iter = config.total_iters_t()}},
                    /*coalesce_window=*/1)
                .value();
        total_rounds += s1.recomputed_rounds;
        line += StrFormat(" s:%.3f", trainer.EvaluateTestAccuracy());
        csv.WriteRow({name, "FATS", std::to_string(2 * i), "sample",
                      FormatDouble(trainer.EvaluateTestAccuracy(), 4),
                      std::to_string(s1.recomputed_rounds)});
        const ServiceFlushStats s2 =
            service
                .ExecuteStream(
                    {{.kind = UnlearningRequest::Kind::kClient,
                      .client = plan.clients[static_cast<size_t>(i)],
                      .request_iter = config.total_iters_t()}},
                    /*coalesce_window=*/1)
                .value();
        total_rounds += s2.recomputed_rounds;
        line += StrFormat(" c:%.3f", trainer.EvaluateTestAccuracy());
        csv.WriteRow({name, "FATS", std::to_string(2 * i + 1), "client",
                      FormatDouble(trainer.EvaluateTestAccuracy(), 4),
                      std::to_string(s2.recomputed_rounds)});
      }
      std::printf("%s | recomputed %lld rounds total\n", line.c_str(),
                  static_cast<long long>(total_rounds));
    }

    // ---------------- FRS ----------------
    {
      FederatedDataset data =
          BuildFederatedData(profile, static_cast<uint64_t>(*seed));
      FedAvgTrainer trainer(
          profile.model,
          FedAvgOptionsFromProfile(profile, static_cast<uint64_t>(*seed)),
          &data);
      trainer.RunRounds(profile.rounds_r);
      FrsUnlearner unlearner(&trainer, &data);
      std::string line =
          StrFormat("  FRS : start %.3f |", trainer.EvaluateTestAccuracy());
      for (int64_t i = 0; i < *pairs; ++i) {
        FATS_CHECK(unlearner
                       .UnlearnSamples({plan.samples[static_cast<size_t>(i)]},
                                       profile.rounds_r)
                       .ok());
        line += StrFormat(" s:%.3f", trainer.EvaluateTestAccuracy());
        csv.WriteRow({name, "FRS", std::to_string(2 * i), "sample",
                      FormatDouble(trainer.EvaluateTestAccuracy(), 4),
                      std::to_string(profile.rounds_r)});
        FATS_CHECK(unlearner
                       .UnlearnClients({plan.clients[static_cast<size_t>(i)]},
                                       profile.rounds_r)
                       .ok());
        line += StrFormat(" c:%.3f", trainer.EvaluateTestAccuracy());
        csv.WriteRow({name, "FRS", std::to_string(2 * i + 1), "client",
                      FormatDouble(trainer.EvaluateTestAccuracy(), 4),
                      std::to_string(profile.rounds_r)});
      }
      std::printf("%s | recomputed %lld rounds total\n", line.c_str(),
                  static_cast<long long>(2 * *pairs * profile.rounds_r));
    }

    // ---------------- FR2 ----------------
    {
      FederatedDataset data =
          BuildFederatedData(profile, static_cast<uint64_t>(*seed));
      FedAvgTrainer trainer(
          profile.model,
          FedAvgOptionsFromProfile(profile, static_cast<uint64_t>(*seed)),
          &data);
      trainer.RunRounds(profile.rounds_r);
      Fr2Options options;
      options.recovery_rounds = std::max<int64_t>(2, profile.rounds_r / 4);
      Fr2Unlearner unlearner(&trainer, &data, options);
      std::string line =
          StrFormat("  FR2 : start %.3f |", trainer.EvaluateTestAccuracy());
      for (int64_t i = 0; i < *pairs; ++i) {
        FATS_CHECK(
            unlearner.UnlearnSamples({plan.samples[static_cast<size_t>(i)]})
                .ok());
        line += StrFormat(" s:%.3f", trainer.EvaluateTestAccuracy());
        csv.WriteRow({name, "FR2", std::to_string(2 * i), "sample",
                      FormatDouble(trainer.EvaluateTestAccuracy(), 4),
                      std::to_string(options.recovery_rounds)});
        FATS_CHECK(
            unlearner.UnlearnClients({plan.clients[static_cast<size_t>(i)]})
                .ok());
        line += StrFormat(" c:%.3f", trainer.EvaluateTestAccuracy());
        csv.WriteRow({name, "FR2", std::to_string(2 * i + 1), "client",
                      FormatDouble(trainer.EvaluateTestAccuracy(), 4),
                      std::to_string(options.recovery_rounds)});
      }
      std::printf("%s | recovery %lld rounds total (approximate)\n",
                  line.c_str(),
                  static_cast<long long>(2 * *pairs *
                                         options.recovery_rounds));
    }
  }
  return 0;
}
