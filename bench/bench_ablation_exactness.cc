// Ablation: which sample-level unlearning transports are actually exact?
//
// Three implementations of FATS-SU are compared against fresh retraining on
// the reduced dataset, by two-sample chi-square over the full discrete
// sampling-history distribution in a tiny instance (M=3, N=3, K=1, b=1,
// R=2, E=1):
//
//   replay  — this library's UnlearningService: keep the client-selection
//             history, substitute only the target client's offending
//             mini-batches with fresh draws from ξ(N−1,b), deterministically
//             replay the models. This is the SU_r transport from the
//             paper's Theorem 1 proof. EXACT.
//   rerun   — re-run Algorithm 1 from t_S with fresh randomness (a literal
//             reading of Algorithm 2's "FATS(t_S, ...)"): re-draws the
//             client selections of later rounds. BIASED: keeping the prefix
//             conditions the joint (selection, batch) law on "target not
//             used", which deflates the target client's selection marginal
//             (e.g. M=3,K=1,b=1,N=3,R=1: kept+resampled mass on (k=0,{0})
//             is 1/9 + 1/9·1/6 = 7/54 ≠ μ'((0,{0})) = 1/6).
//   scratch — the §5.3.2 compact scheme: full fresh retrain on a hit.
//             Same conditioning on the no-hit path ⇒ biased at second order
//             in ρ_S (client-level scratch IS exact — see DESIGN.md §4).
//
// Expected output: replay accepts H0 (chi2 below the 99.9% critical value);
// rerun and scratch reject with room to spare at these trial counts.

#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>

#include "bench_util.h"
#include "core/compact_unlearner.h"
#include "core/unlearning_service.h"
#include "util/flags.h"

namespace fats {
namespace {

constexpr int64_t kClients = 3;
constexpr int64_t kSamples = 3;
constexpr int64_t kRounds = 2;

FatsConfig TinyDiscreteConfig(uint64_t seed) {
  FatsConfig config;
  config.clients_m = kClients;
  config.samples_per_client_n = kSamples;
  config.rounds_r = kRounds;
  config.local_iters_e = 1;
  config.rho_c = 2.0 / 3.0;  // K = 1
  config.rho_s = 2.0 / 9.0;  // b = 1
  config.learning_rate = 0.1;
  config.seed = seed;
  return config;
}

FederatedDataset TinyData() {
  SyntheticImageConfig config;
  config.num_classes = 2;
  config.feature_dim = 4;
  config.seed = 17;
  SyntheticImageGenerator gen(config);
  std::vector<InMemoryDataset> shards;
  for (int64_t k = 0; k < kClients; ++k) {
    shards.push_back(gen.Generate(kSamples, {}, -1,
                                  static_cast<uint64_t>(k) + 100));
  }
  return FederatedDataset(std::move(shards), gen.Generate(20, {}, -1, 999));
}

ModelSpec TinyModel() {
  ModelSpec spec;
  spec.kind = ModelKind::kLogReg;
  spec.input_dim = 4;
  spec.num_classes = 2;
  return spec;
}

std::string EncodeHistory(const FatsTrainer& trainer) {
  std::string out;
  for (int64_t r = 1; r <= kRounds; ++r) {
    const std::vector<int64_t>* selection =
        trainer.store().GetClientSelection(r);
    if (selection == nullptr) continue;
    out += "R[";
    // Sequential appends: `"B" + std::to_string(k) + ...` trips GCC 12's
    // -Wrestrict false positive (PR 105651) at -O3 under -Werror.
    for (int64_t k : *selection) {
      out += std::to_string(k);
      out += ",";
    }
    out += "]";
    for (int64_t k = 0; k < kClients; ++k) {
      const std::vector<int64_t>* batch = trainer.store().GetMinibatch(r, k);
      if (batch == nullptr) continue;
      out += "B";
      out += std::to_string(k);
      out += "(";
      for (int64_t i : *batch) {
        out += std::to_string(i);
        out += ",";
      }
      out += ")";
    }
  }
  return out;
}

double ChiSquareCritical999(int dof) {
  const double z = 3.0902;
  const double d = static_cast<double>(dof);
  const double term = 1.0 - 2.0 / (9.0 * d) + z * std::sqrt(2.0 / (9.0 * d));
  return d * term * term * term;
}

struct ChiSquareResult {
  double statistic = 0.0;
  int dof = 0;
  double critical = 0.0;
};

ChiSquareResult TwoSample(const std::map<std::string, int>& a,
                          const std::map<std::string, int>& b) {
  std::map<std::string, std::pair<int, int>> merged;
  for (const auto& [key, count] : a) merged[key].first = count;
  for (const auto& [key, count] : b) merged[key].second = count;
  ChiSquareResult result;
  result.dof = -1;
  double rare_a = 0.0;
  double rare_b = 0.0;
  for (const auto& [key, pair] : merged) {
    const double total = pair.first + pair.second;
    if (total < 20.0) {
      rare_a += pair.first;
      rare_b += pair.second;
      continue;
    }
    const double expected = total / 2.0;
    result.statistic +=
        (pair.first - expected) * (pair.first - expected) / expected;
    result.statistic +=
        (pair.second - expected) * (pair.second - expected) / expected;
    ++result.dof;
  }
  if (rare_a + rare_b >= 20.0) {
    const double expected = (rare_a + rare_b) / 2.0;
    result.statistic += (rare_a - expected) * (rare_a - expected) / expected;
    result.statistic += (rare_b - expected) * (rare_b - expected) / expected;
    ++result.dof;
  }
  result.critical = ChiSquareCritical999(std::max(result.dof, 1));
  return result;
}

enum class Transport { kReplay, kRerun, kScratch };

std::string RunUnlearn(Transport transport, uint64_t seed,
                       const SampleRef& target) {
  FederatedDataset data = TinyData();
  FatsConfig config = TinyDiscreteConfig(seed);
  FatsTrainer trainer(TinyModel(), config, &data);
  trainer.Train();
  switch (transport) {
    case Transport::kReplay: {
      UnlearningService service(&trainer);
      FATS_CHECK(service
                     .ExecuteStream({{.kind = UnlearningRequest::Kind::kSample,
                                      .sample = target,
                                      .request_iter = config.total_iters_t()}})
                     .ok());
      break;
    }
    case Transport::kRerun: {
      // The naive reading of Algorithm 2: recompute from the first use with
      // entirely fresh randomness (including client selections).
      const int64_t t_s = trainer.store().EarliestSampleUse(target);
      FATS_CHECK(data.RemoveSample(target).ok());
      if (t_s >= 1) {
        trainer.store().TruncateFromIteration(t_s, config.local_iters_e);
        trainer.BumpGeneration();
        trainer.Run(t_s);
      }
      break;
    }
    case Transport::kScratch: {
      CompactUnlearner unlearner(&trainer);
      FATS_CHECK(
          unlearner.UnlearnSample(target, config.total_iters_t()).ok());
      break;
    }
  }
  return EncodeHistory(trainer);
}

}  // namespace
}  // namespace fats

int main(int argc, char** argv) {
  using namespace fats;  // NOLINT
  FlagParser flags;
  int64_t* trials = flags.AddInt("trials", 20000,
                                 "trials per arm (more = sharper test)");
  Status status = flags.Parse(argc, argv);
  if (status.code() == StatusCode::kNotFound) return 0;
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  const SampleRef target{0, 1};

  // Reference arm: fresh training on the reduced dataset.
  std::map<std::string, int> reference;
  for (int64_t trial = 0; trial < *trials; ++trial) {
    FederatedDataset data = TinyData();
    FATS_CHECK(data.RemoveSample(target).ok());
    FatsTrainer trainer(TinyModel(),
                        TinyDiscreteConfig(777000 + trial), &data);
    trainer.Train();
    reference[EncodeHistory(trainer)]++;
  }

  CsvWriter csv(&std::cout, "# CSV,");
  csv.WriteHeader({"transport", "chi_square", "dof", "critical_999",
                   "verdict"});
  bench::PrintHeader(
      "Ablation: exactness of sample-level unlearning transports "
      "(two-sample chi-square vs fresh retrain, alpha = 0.001)");

  struct Arm {
    Transport transport;
    const char* name;
  };
  for (const Arm& arm : {Arm{Transport::kReplay, "replay (this library)"},
                         Arm{Transport::kRerun, "rerun-from-t_S (naive)"},
                         Arm{Transport::kScratch, "scratch-on-hit (5.3.2)"}}) {
    std::map<std::string, int> counts;
    for (int64_t trial = 0; trial < *trials; ++trial) {
      counts[RunUnlearn(arm.transport, 555000 + trial, target)]++;
    }
    ChiSquareResult result = TwoSample(reference, counts);
    const bool exact = result.statistic < result.critical;
    std::printf("  %-24s chi2 = %8.1f (dof %d, crit %6.1f) -> %s\n",
                arm.name, result.statistic, result.dof, result.critical,
                exact ? "EXACT (H0 accepted)" : "BIASED (H0 rejected)");
    csv.WriteRow({arm.name, FormatDouble(result.statistic, 2),
                  std::to_string(result.dof),
                  FormatDouble(result.critical, 2),
                  exact ? "exact" : "biased"});
  }
  std::printf(
      "\nOnly the per-batch transport (keep selections, substitute offending"
      "\nbatches, replay) realizes the coupling in Theorem 1's proof; the "
      "naive\nre-run and the compact scratch retrain both condition the "
      "selection\nhistory and are measurably biased at the sample level.\n");
  return 0;
}
