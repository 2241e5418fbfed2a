// Figure 4 (+ Figure 7): learning utility vs unlearning efficiency on the
// MNIST-like and Fashion-MNIST-like profiles.
//
// Row 1: sweep ρ_S (0.125 -> 1) at fixed ρ_C: accuracy rises then plateaus;
// average sample-unlearning time rises with ρ_S.
// Row 2: sweep ρ_C (0.2/0.33 -> 1) at fixed ρ_S: accuracy rises then
// flattens past ~0.5 while client-unlearning time keeps rising — an optimal
// trade-off around ρ_C ≈ 0.5.

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "core/unlearning_service.h"
#include "util/flags.h"

namespace fats {
namespace {

DatasetProfile SweepProfile(const std::string& name) {
  DatasetProfile profile = ScaledProfile(name).value();
  profile.clients_m = 48;
  profile.rounds_r = 8;
  profile.local_iters_e = 3;
  profile.test_size = 200;
  return profile;
}

struct TradeoffPoint {
  double accuracy = 0.0;
  double unlearning_steps = 0.0;
};

TradeoffPoint MeasurePoint(const DatasetProfile& profile, double rho_s,
                           double rho_c, bool client_level, int trials) {
  TradeoffPoint point;
  for (int trial = 0; trial < trials; ++trial) {
    FederatedDataset data =
        BuildFederatedData(profile, 40 + static_cast<uint64_t>(trial));
    FatsConfig config = FatsConfig::FromProfile(profile);
    config.rho_s = rho_s;
    config.rho_c = rho_c;
    config.seed = 40 + static_cast<uint64_t>(trial);
    FATS_CHECK_OK(config.Validate());
    FatsTrainer trainer(profile.model, config, &data);
    trainer.Train();
    point.accuracy += trainer.EvaluateTestAccuracy();
    StreamId id;
    id.purpose = RngPurpose::kGeneric;
    id.iteration = static_cast<uint64_t>(trial);
    RngStream rng(33, id);
    const UnlearningRequest request =
        client_level
            ? UnlearningRequest{.kind = UnlearningRequest::Kind::kClient,
                                .client = PickRandomActiveClients(data, 1,
                                                                  &rng)[0],
                                .request_iter = config.total_iters_t()}
            : UnlearningRequest{.kind = UnlearningRequest::Kind::kSample,
                                .sample = PickRandomActiveSamples(data, 1,
                                                                  &rng)[0],
                                .request_iter = config.total_iters_t()};
    UnlearningService service(&trainer);
    point.unlearning_steps += static_cast<double>(
        service.ExecuteStream({request}).value().recomputed_iterations);
  }
  point.accuracy /= trials;
  point.unlearning_steps /= trials;
  return point;
}

}  // namespace
}  // namespace fats

int main(int argc, char** argv) {
  using namespace fats;  // NOLINT
  FlagParser flags;
  int64_t* trials = flags.AddInt("trials", 12, "trials per sweep point");
  Status status = flags.Parse(argc, argv);
  if (status.code() == StatusCode::kNotFound) return 0;
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  CsvWriter csv(&std::cout, "# CSV,");
  csv.WriteHeader({"dataset", "sweep", "rho_s", "rho_c", "accuracy",
                   "mean_unlearning_steps"});

  for (const std::string name : {"mnist", "fashion"}) {
    DatasetProfile profile = SweepProfile(name);
    bench::PrintHeader("Figure 4 - " + name +
                       ": accuracy & unlearning time vs rho_S (rho_C=0.5)");
    for (double rho_s : {0.125, 0.25, 0.5, 0.75, 1.0}) {
      TradeoffPoint point = MeasurePoint(profile, rho_s, 0.5,
                                         /*client_level=*/false,
                                         static_cast<int>(*trials));
      std::printf("  rho_s=%.3f: accuracy %.3f, unlearning %.1f steps\n",
                  rho_s, point.accuracy, point.unlearning_steps);
      csv.WriteRow({name, "rho_s", FormatDouble(rho_s, 3), "0.5",
                    FormatDouble(point.accuracy, 4),
                    FormatDouble(point.unlearning_steps, 2)});
    }
    bench::PrintHeader("Figure 4 - " + name +
                       ": accuracy & unlearning time vs rho_C (rho_S=0.25)");
    for (double rho_c : {0.2, 0.33, 0.5, 0.75, 1.0}) {
      TradeoffPoint point = MeasurePoint(profile, 0.25, rho_c,
                                         /*client_level=*/true,
                                         static_cast<int>(*trials));
      std::printf("  rho_c=%.3f: accuracy %.3f, unlearning %.1f steps\n",
                  rho_c, point.accuracy, point.unlearning_steps);
      csv.WriteRow({name, "rho_c", "0.25", FormatDouble(rho_c, 3),
                    FormatDouble(point.accuracy, 4),
                    FormatDouble(point.unlearning_steps, 2)});
    }
  }
  return 0;
}
