// Table 1: membership-inference attack (MIA) on the final unlearned models
// of FRS, FR², and FATS across the six dataset profiles.
//
// Protocol: train, delete a batch of samples with each method, then attack
// the unlearned model with the deleted samples as the "member" pool and a
// fresh holdout as the "non-member" pool; 100 attack repetitions, mean±std.
//
// Expected shape: FATS and FRS (both exact) hover at ≈50% accuracy and
// precision — the attack cannot beat coin flipping. FR² (approximate) may
// deviate and show unstable precision, as the paper reports on FEMNIST.

#include <cmath>
#include <cstdio>
#include <map>
#include <iostream>

#include "attack/mia.h"
#include "baselines/fr2.h"
#include "baselines/frs.h"
#include "bench_util.h"
#include "core/unlearning_service.h"
#include "util/flags.h"

namespace fats {
namespace {

using bench::FedAvgOptionsFromProfile;

Batch GatherSamples(const FederatedDataset& data,
                    const std::vector<SampleRef>& refs) {
  InMemoryDataset pool;
  for (const SampleRef& ref : refs) {
    Batch one = data.client_data(ref.client).GatherBatch({ref.index});
    pool.Append(InMemoryDataset(one.inputs, one.labels, data.num_classes()));
  }
  return pool.AsBatch();
}

/// Fresh never-trained examples drawn from the *same clients* as the
/// deleted targets, so the member and non-member pools are identically
/// distributed and the attack can only exploit genuine memorization.
Batch HoldoutPool(const DatasetProfile& profile,
                  const std::vector<SampleRef>& targets, uint64_t seed) {
  InMemoryDataset pool;
  for (const SampleRef& ref : targets) {
    pool.Append(GenerateClientHoldout(profile, seed, ref.client, 1));
  }
  return pool.AsBatch();
}

struct AttackRow {
  MiaResult result;
  double final_accuracy = 0.0;
};

AttackRow AttackFats(const DatasetProfile& profile,
                     const std::vector<SampleRef>& targets,
                     const Batch& member_pool, const Batch& nonmember_pool,
                     const MiaOptions& mia, uint64_t seed) {
  FederatedDataset data = BuildFederatedData(profile, seed);
  FatsConfig config = FatsConfig::FromProfile(profile);
  config.seed = seed;
  FatsTrainer trainer(profile.model, config, &data);
  trainer.Train();
  // The targets are deleted simultaneously: one flush, one replay.
  std::vector<UnlearningRequest> requests;
  for (const SampleRef& target : targets) {
    requests.push_back({.kind = UnlearningRequest::Kind::kSample,
                        .sample = target,
                        .request_iter = config.total_iters_t()});
  }
  UnlearningService service(&trainer);
  FATS_CHECK(service.ExecuteStream(requests).ok());
  AttackRow row;
  row.result = RunMembershipInference(trainer.model(), member_pool,
                                      nonmember_pool, mia)
                   .value();
  row.final_accuracy = trainer.EvaluateTestAccuracy();
  return row;
}

AttackRow AttackFrs(const DatasetProfile& profile,
                    const std::vector<SampleRef>& targets,
                    const Batch& member_pool, const Batch& nonmember_pool,
                    const MiaOptions& mia, uint64_t seed) {
  FederatedDataset data = BuildFederatedData(profile, seed);
  FedAvgTrainer trainer(profile.model,
                        FedAvgOptionsFromProfile(profile, seed), &data);
  trainer.RunRounds(profile.rounds_r);
  FrsUnlearner unlearner(&trainer, &data);
  FATS_CHECK(unlearner.UnlearnSamples(targets, profile.rounds_r).ok());
  AttackRow row;
  row.result = RunMembershipInference(trainer.model(), member_pool,
                                      nonmember_pool, mia)
                   .value();
  row.final_accuracy = trainer.EvaluateTestAccuracy();
  return row;
}

AttackRow AttackFr2(const DatasetProfile& profile,
                    const std::vector<SampleRef>& targets,
                    const Batch& member_pool, const Batch& nonmember_pool,
                    const MiaOptions& mia, uint64_t seed) {
  FederatedDataset data = BuildFederatedData(profile, seed);
  FedAvgTrainer trainer(profile.model,
                        FedAvgOptionsFromProfile(profile, seed), &data);
  trainer.RunRounds(profile.rounds_r);
  Fr2Options options;
  options.recovery_rounds = std::max<int64_t>(2, profile.rounds_r / 4);
  Fr2Unlearner unlearner(&trainer, &data, options);
  FATS_CHECK(unlearner.UnlearnSamples(targets).ok());
  AttackRow row;
  row.result = RunMembershipInference(trainer.model(), member_pool,
                                      nonmember_pool, mia)
                   .value();
  row.final_accuracy = trainer.EvaluateTestAccuracy();
  return row;
}

}  // namespace
}  // namespace fats

int main(int argc, char** argv) {
  using namespace fats;  // NOLINT
  FlagParser flags;
  int64_t* trials = flags.AddInt("trials", 100, "MIA repetitions");
  int64_t* num_targets = flags.AddInt("targets", 16,
                                      "deleted samples per run");
  int64_t* seed = flags.AddInt("seed", 3, "base workload seed");
  int64_t* workloads =
      flags.AddInt("workloads", 5, "independent workloads averaged per cell");
  Status status = flags.Parse(argc, argv);
  if (status.code() == StatusCode::kNotFound) return 0;
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  CsvWriter csv(&std::cout, "# CSV,");
  csv.WriteHeader({"dataset", "method", "mia_accuracy_mean",
                   "mia_accuracy_std", "mia_precision_mean",
                   "mia_precision_std", "model_accuracy"});

  bench::PrintHeader(
      "Table 1 - MIA on unlearned models (50% = perfect erasure)");
  std::printf("%-12s %-5s %20s %22s %10s\n", "dataset", "meth",
              "accuracy (mean±std)", "precision (mean±std)", "model acc");

  for (const std::string& name : ScaledProfileNames()) {
    DatasetProfile profile = ScaledProfile(name).value();
    // Keep each run snappy: trim the two largest profiles.
    profile = bench::ShrinkProfile(profile, name == "femnist" ? 2 : 1);

    struct Aggregate {
      double accuracy_sum = 0.0;
      double accuracy_var_sum = 0.0;
      double precision_sum = 0.0;
      double precision_var_sum = 0.0;
      double model_accuracy_sum = 0.0;
    };
    std::map<std::string, Aggregate> per_method;

    for (int64_t w = 0; w < *workloads; ++w) {
      const uint64_t workload_seed = static_cast<uint64_t>(*seed) + 1000 * w;
      FederatedDataset probe = BuildFederatedData(profile, workload_seed);
      StreamId id;
      id.purpose = RngPurpose::kGeneric;
      RngStream rng(workload_seed + 9, id);
      std::vector<SampleRef> targets =
          PickRandomActiveSamples(probe, *num_targets, &rng);
      Batch member_pool = GatherSamples(probe, targets);
      Batch nonmember_pool = HoldoutPool(profile, targets, workload_seed);
      MiaOptions mia;
      mia.trials = (*trials + *workloads - 1) / *workloads;
      mia.seed = workload_seed + 100;

      struct MethodRun {
        const char* method;
        AttackRow row;
      };
      std::vector<MethodRun> runs;
      runs.push_back({"FRS", AttackFrs(profile, targets, member_pool,
                                       nonmember_pool, mia, workload_seed)});
      runs.push_back({"FR2", AttackFr2(profile, targets, member_pool,
                                       nonmember_pool, mia, workload_seed)});
      runs.push_back({"FATS", AttackFats(profile, targets, member_pool,
                                         nonmember_pool, mia,
                                         workload_seed)});
      for (const MethodRun& run : runs) {
        Aggregate& agg = per_method[run.method];
        agg.accuracy_sum += run.row.result.accuracy_mean;
        agg.accuracy_var_sum +=
            run.row.result.accuracy_std * run.row.result.accuracy_std;
        agg.precision_sum += run.row.result.precision_mean;
        agg.precision_var_sum +=
            run.row.result.precision_std * run.row.result.precision_std;
        agg.model_accuracy_sum += run.row.final_accuracy;
      }
    }

    for (const char* method : {"FRS", "FR2", "FATS"}) {
      const Aggregate& agg = per_method[method];
      const double n = static_cast<double>(*workloads);
      const double acc = agg.accuracy_sum / n;
      const double acc_std = std::sqrt(agg.accuracy_var_sum / n);
      const double prec = agg.precision_sum / n;
      const double prec_std = std::sqrt(agg.precision_var_sum / n);
      const double model_acc = agg.model_accuracy_sum / n;
      std::printf("%-12s %-5s %9.2f%% ± %5.2f%% %11.2f%% ± %5.2f%% %9.3f\n",
                  name.c_str(), method, 100 * acc, 100 * acc_std, 100 * prec,
                  100 * prec_std, model_acc);
      csv.WriteRow({name, method, FormatDouble(acc, 4),
                    FormatDouble(acc_std, 4), FormatDouble(prec, 4),
                    FormatDouble(prec_std, 4), FormatDouble(model_acc, 4)});
    }
  }
  return 0;
}
