// Scenario: a consortium of clinics trains a diagnostic model with
// federated learning. A patient at one clinic withdraws consent for a
// single health record (GDPR right to erasure). The clinic must prove the
// record's influence is gone - without forcing every clinic to retrain.
//
// This example compares three ways to honour the request:
//   FATS-SU  - exact unlearning with selective re-computation,
//   FRS      - exact unlearning by retraining from scratch,
//   FR2      - approximate rapid retraining (cheap but not exact),
// and runs a membership-inference attack against each resulting model.

#include <cstdio>

#include "attack/mia.h"
#include "baselines/fr2.h"
#include "baselines/frs.h"
#include "core/unlearning_service.h"
#include "data/paper_configs.h"

using namespace fats;  // NOLINT: example brevity

namespace {

// The femnist-like profile: each "writer" is one clinic with its own data
// distribution (natural non-IID).
DatasetProfile ClinicProfile() {
  DatasetProfile profile = ScaledProfile("femnist").value();
  profile.clients_m = 40;
  profile.rounds_r = 12;
  profile.test_size = 240;
  return profile;
}

// Patient records the attacker probes: all deleted samples.
Batch GatherTargets(const FederatedDataset& data,
                    const std::vector<SampleRef>& targets) {
  InMemoryDataset pool;
  for (const SampleRef& ref : targets) {
    Batch one = data.client_data(ref.client).GatherBatch({ref.index});
    pool.Append(InMemoryDataset(one.inputs, one.labels, data.num_classes()));
  }
  return pool.AsBatch();
}

}  // namespace

int main() {
  DatasetProfile profile = ClinicProfile();
  std::printf("Clinic consortium workload: %s\n\n", profile.ToString().c_str());

  // Patient records to erase: a handful of samples at clinic 2.
  std::vector<SampleRef> withdrawals = {{2, 0}, {2, 1}, {2, 2}, {2, 3},
                                        {2, 4}, {2, 5}, {2, 6}, {2, 7}};

  // ---------------- FATS ----------------
  FederatedDataset fats_data = BuildFederatedData(profile, 7);
  FatsConfig config = FatsConfig::FromProfile(profile);
  config.seed = 77;
  FatsTrainer fats(profile.model, config, &fats_data);
  fats.Train();
  const double fats_acc_before = fats.EvaluateTestAccuracy();
  Batch member_pool = GatherTargets(fats_data, withdrawals);
  // The withdrawals arrive together: one flush, one replay.
  std::vector<UnlearningRequest> requests;
  for (const SampleRef& withdrawal : withdrawals) {
    requests.push_back({.kind = UnlearningRequest::Kind::kSample,
                        .sample = withdrawal,
                        .request_iter = config.total_iters_t()});
  }
  UnlearningService service(&fats);
  const ServiceFlushStats fats_cost = service.ExecuteStream(requests).value();
  std::printf("FATS-SU : acc %.3f -> %.3f | recomputed %lld/%lld rounds\n",
              fats_acc_before, fats.EvaluateTestAccuracy(),
              static_cast<long long>(fats_cost.replayed_rounds),
              static_cast<long long>(profile.rounds_r));

  // ---------------- FRS ----------------
  FederatedDataset frs_data = BuildFederatedData(profile, 7);
  FedAvgOptions options;
  options.clients_per_round_k = profile.clients_per_round_k;
  options.local_iters_e = profile.local_iters_e;
  options.batch_b = profile.batch_b;
  options.learning_rate = profile.learning_rate;
  options.seed = 77;
  FedAvgTrainer frs_trainer(profile.model, options, &frs_data);
  frs_trainer.RunRounds(profile.rounds_r);
  const double frs_acc_before = frs_trainer.EvaluateTestAccuracy();
  FrsUnlearner frs(&frs_trainer, &frs_data);
  const ServiceFlushStats frs_cost =
      frs.UnlearnSamples(withdrawals, profile.rounds_r).value();
  std::printf("FRS     : acc %.3f -> %.3f | recomputed %lld/%lld rounds\n",
              frs_acc_before, frs_trainer.EvaluateTestAccuracy(),
              static_cast<long long>(frs_cost.replayed_rounds),
              static_cast<long long>(profile.rounds_r));

  // ---------------- FR2 ----------------
  FederatedDataset fr2_data = BuildFederatedData(profile, 7);
  FedAvgTrainer fr2_trainer(profile.model, options, &fr2_data);
  fr2_trainer.RunRounds(profile.rounds_r);
  const double fr2_acc_before = fr2_trainer.EvaluateTestAccuracy();
  Fr2Options fr2_options;
  fr2_options.recovery_rounds = 3;
  Fr2Unlearner fr2(&fr2_trainer, &fr2_data, fr2_options);
  const ServiceFlushStats fr2_cost = fr2.UnlearnSamples(withdrawals).value();
  std::printf("FR2     : acc %.3f -> %.3f | recovery %lld rounds (approx.)\n",
              fr2_acc_before, fr2_trainer.EvaluateTestAccuracy(),
              static_cast<long long>(fr2_cost.replayed_rounds));

  // ---------------- Audit: membership inference ----------------
  // Fresh never-seen records from the same clinic's distribution, so the
  // attack can only succeed through genuine memorization.
  Batch nonmember_pool =
      GenerateClientHoldout(profile, 7, /*client=*/2,
                            static_cast<int64_t>(withdrawals.size()))
          .AsBatch();
  MiaOptions mia;
  mia.trials = 50;
  mia.seed = 5;
  std::printf("\nMembership-inference audit on the erased records "
              "(50%% = perfect erasure):\n");
  MiaResult fats_mia =
      RunMembershipInference(fats.model(), member_pool, nonmember_pool, mia)
          .value();
  std::printf("  FATS: %s\n", fats_mia.ToString().c_str());
  MiaResult frs_mia = RunMembershipInference(frs_trainer.model(), member_pool,
                                             nonmember_pool, mia)
                          .value();
  std::printf("  FRS : %s\n", frs_mia.ToString().c_str());
  MiaResult fr2_mia = RunMembershipInference(fr2_trainer.model(), member_pool,
                                             nonmember_pool, mia)
                          .value();
  std::printf("  FR2 : %s\n", fr2_mia.ToString().c_str());

  std::printf("\nFATS matches FRS's exact erasure at a fraction of the "
              "re-computation cost;\nFR2 is cheapest but only approximate "
              "(its unlearning leaves no formal guarantee).\n");
  return 0;
}
