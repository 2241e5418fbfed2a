// Figure 1 (+ Figure 5): test-accuracy trajectories of FRS, FR², and FATS
// before and after a batch of unlearning requests, for both sample-level
// and client-level unlearning, on all six dataset profiles.
//
// Paper protocol (§6.2.1): train to a stable accuracy, then issue 10
// simultaneous requests for MNIST/FEMNIST and 5 for the others; plot the
// accuracy trajectory through the recovery phase.
//
// Expected shape: all methods reach similar pre-unlearning accuracy; after
// the request FRS drops to scratch and needs the most rounds to recover;
// FR² keeps accuracy but fluctuates; FATS recovers fastest with the
// smallest drop.

#include <cstdio>
#include <iostream>

#include "baselines/fr2.h"
#include "baselines/frs.h"
#include "bench_util.h"
#include "core/unlearning_service.h"
#include "metrics/unlearning_metrics.h"
#include "util/flags.h"

namespace fats {
namespace {

using bench::FedAvgOptionsFromProfile;

struct ScenarioResult {
  TrainLog log;
  size_t request_index = 0;  // first post-unlearning record
  int64_t replayed_rounds = 0;
};

/// The round at which the unlearning request is issued: ~60% into
/// training, where accuracy has stabilized (the paper's protocol).
int64_t IssueRound(const DatasetProfile& profile) {
  return std::max<int64_t>(1, profile.rounds_r * 3 / 5);
}

ScenarioResult RunFats(const DatasetProfile& profile, bool client_level,
                       int64_t num_requests, uint64_t seed) {
  FederatedDataset data = BuildFederatedData(profile, seed);
  FatsConfig config = FatsConfig::FromProfile(profile);
  config.seed = seed;
  FatsTrainer trainer(profile.model, config, &data);
  // Train to the issue point, serve the request batch exactly, continue.
  const int64_t t_issue = IssueRound(profile) * profile.local_iters_e;
  trainer.TrainUntil(t_issue);
  ScenarioResult result;
  result.request_index = trainer.log().records().size();
  StreamId id;
  id.purpose = RngPurpose::kGeneric;
  RngStream rng(seed + 500, id);
  // The batch is simultaneous: one flush, one replay.
  std::vector<UnlearningRequest> requests;
  if (client_level) {
    for (int64_t client : PickRandomActiveClients(data, num_requests, &rng)) {
      requests.push_back({.kind = UnlearningRequest::Kind::kClient,
                          .client = client,
                          .request_iter = t_issue});
    }
  } else {
    for (const SampleRef& sample :
         PickRandomActiveSamples(data, num_requests, &rng)) {
      requests.push_back({.kind = UnlearningRequest::Kind::kSample,
                          .sample = sample,
                          .request_iter = t_issue});
    }
  }
  // The flush replaces the stored models of the rounds it replays, so the
  // pre-request curve is read now.
  FillRoundAccuracy(&trainer, 0, result.request_index);
  UnlearningService service(&trainer);
  const ServiceFlushStats stats = service.ExecuteStream(requests).value();
  trainer.TrainUntil(config.total_iters_t());
  FillRoundAccuracy(&trainer, result.request_index,
                    trainer.log().records().size());
  result.replayed_rounds = stats.replayed_rounds;
  result.log = trainer.log();
  return result;
}

ScenarioResult RunFrs(const DatasetProfile& profile, bool client_level,
                      int64_t num_requests, uint64_t seed) {
  FederatedDataset data = BuildFederatedData(profile, seed);
  FedAvgTrainer trainer(profile.model,
                        FedAvgOptionsFromProfile(profile, seed), &data);
  trainer.RunRounds(IssueRound(profile));
  ScenarioResult result;
  result.request_index = trainer.log().records().size();
  StreamId id;
  id.purpose = RngPurpose::kGeneric;
  RngStream rng(seed + 500, id);
  FrsUnlearner unlearner(&trainer, &data);
  const ServiceFlushStats stats =
      client_level
          ? unlearner
                .UnlearnClients(PickRandomActiveClients(data, num_requests,
                                                        &rng),
                                profile.rounds_r)
                .value()
          : unlearner
                .UnlearnSamples(PickRandomActiveSamples(data, num_requests,
                                                        &rng),
                                profile.rounds_r)
                .value();
  result.replayed_rounds = stats.replayed_rounds;
  result.log = trainer.log();
  return result;
}

ScenarioResult RunFr2(const DatasetProfile& profile, bool client_level,
                      int64_t num_requests, uint64_t seed) {
  FederatedDataset data = BuildFederatedData(profile, seed);
  FedAvgTrainer trainer(profile.model,
                        FedAvgOptionsFromProfile(profile, seed), &data);
  trainer.RunRounds(IssueRound(profile));
  ScenarioResult result;
  result.request_index = trainer.log().records().size();
  StreamId id;
  id.purpose = RngPurpose::kGeneric;
  RngStream rng(seed + 500, id);
  Fr2Options options;
  options.recovery_rounds = std::max<int64_t>(2, profile.rounds_r / 4);
  Fr2Unlearner unlearner(&trainer, &data, options);
  const ServiceFlushStats stats =
      client_level
          ? unlearner
                .UnlearnClients(
                    PickRandomActiveClients(data, num_requests, &rng))
                .value()
          : unlearner
                .UnlearnSamples(
                    PickRandomActiveSamples(data, num_requests, &rng))
                .value();
  result.replayed_rounds = stats.replayed_rounds;
  // After the approximate recovery, FR2 resumes normal training for the
  // remaining budget.
  trainer.RunRounds(profile.rounds_r - IssueRound(profile));
  result.log = trainer.log();
  return result;
}

void EmitScenario(CsvWriter* csv, const std::string& dataset,
                  const std::string& scenario, const std::string& method,
                  const ScenarioResult& result) {
  RecoveryMetrics recovery =
      AnalyzeRecovery(result.log, result.request_index);
  std::printf(
      "  %-6s %-7s: acc %.3f -> %.3f (drop %.3f), recomputed %lld rounds, "
      "recover in %lld, final %.3f\n",
      method.c_str(), scenario.c_str(), recovery.accuracy_before,
      recovery.accuracy_after_drop, recovery.accuracy_drop,
      static_cast<long long>(result.replayed_rounds),
      static_cast<long long>(recovery.rounds_to_recover),
      recovery.final_accuracy);
  const auto& records = result.log.records();
  for (size_t i = 0; i < records.size(); ++i) {
    csv->WriteRow({dataset, scenario, method, std::to_string(i),
                   std::to_string(records[i].round),
                   FormatDouble(records[i].test_accuracy, 4),
                   records[i].recomputation ? "post" : "pre"});
  }
}

}  // namespace
}  // namespace fats

int main(int argc, char** argv) {
  using namespace fats;  // NOLINT
  FlagParser flags;
  std::string* datasets =
      flags.AddString("datasets", "all", "comma list of profiles or 'all'");
  int64_t* seed = flags.AddInt("seed", 1, "workload / algorithm seed");
  bool* print_configs =
      flags.AddBool("print_configs", true, "print Table 2 first");
  Status status = flags.Parse(argc, argv);
  if (status.code() == StatusCode::kNotFound) return 0;  // --help
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  if (*print_configs) bench::PrintPaperTable2();

  std::vector<std::string> names = *datasets == "all"
                                       ? ScaledProfileNames()
                                       : StrSplit(*datasets, ',');
  CsvWriter csv(&std::cout, "# CSV,");
  csv.WriteHeader({"dataset", "scenario", "method", "record", "round",
                   "accuracy", "phase"});

  for (const std::string& name : names) {
    Result<DatasetProfile> profile = ScaledProfile(name);
    if (!profile.ok()) {
      std::fprintf(stderr, "skipping %s: %s\n", name.c_str(),
                   profile.status().ToString().c_str());
      continue;
    }
    const int64_t requests =
        (name == "mnist" || name == "femnist") ? 10 : 5;
    bench::PrintHeader("Figure 1 - " + name + " (" +
                       std::to_string(requests) + " simultaneous requests)");
    for (bool client_level : {false, true}) {
      const std::string scenario = client_level ? "client" : "sample";
      EmitScenario(&csv, name, scenario, "FATS",
                   RunFats(*profile, client_level, requests,
                           static_cast<uint64_t>(*seed)));
      EmitScenario(&csv, name, scenario, "FRS",
                   RunFrs(*profile, client_level, requests,
                          static_cast<uint64_t>(*seed)));
      EmitScenario(&csv, name, scenario, "FR2",
                   RunFr2(*profile, client_level, requests,
                          static_cast<uint64_t>(*seed)));
    }
  }
  return 0;
}
