// Empirical checks of the convergence behaviour predicted by Theorem 2 /
// Corollary 1 and Remark 4 (utility of unlearned models).

#include <gtest/gtest.h>

#include <cmath>

#include "core/unlearning_service.h"
#include "core/tv_stability.h"
#include "test_workloads.h"

namespace fats {
namespace {

/// ||∇F(θ)||² of the global empirical risk at the trainer's current model,
/// computed over all active data (the quantity bounded by Theorem 2).
double GlobalSquaredGradNorm(FatsTrainer* trainer) {
  FederatedDataset* data = trainer->data();
  Model* model = trainer->model();
  Tensor sum({model->NumParameters()});
  int64_t clients = 0;
  for (int64_t k : data->active_clients()) {
    Batch batch = data->MakeBatch(k, data->active_sample_indices(k));
    model->ComputeLossAndGradients(batch.inputs, batch.labels);
    sum += model->GetGradients();
    ++clients;
  }
  sum *= 1.0f / static_cast<float>(clients);
  return sum.SquaredNorm();
}

double MeanFinalGradNorm(double rho_s, int64_t clients, int64_t n,
                         int seeds) {
  double total = 0.0;
  for (int seed = 0; seed < seeds; ++seed) {
    FederatedDataset data = TinyImageData(clients, n);
    FatsConfig config = TinyFatsConfig(clients, n, /*rounds=*/8,
                                       /*e=*/2, rho_s, 0.5,
                                       100 + static_cast<uint64_t>(seed));
    FatsTrainer trainer(TinyModelSpec(), config, &data);
    trainer.Train();
    total += GlobalSquaredGradNorm(&trainer);
  }
  return total / seeds;
}

TEST(ConvergenceTest, TrainingDrivesGradientNormDown) {
  FederatedDataset data = TinyImageData(8, 12);
  FatsConfig config = TinyFatsConfig(8, 12, 10, 3);
  FatsTrainer trainer(TinyModelSpec(), config, &data);
  // Gradient norm at initialization.
  const double initial = GlobalSquaredGradNorm(&trainer);
  trainer.Train();
  const double trained = GlobalSquaredGradNorm(&trainer);
  EXPECT_LT(trained, initial);
}

TEST(ConvergenceTest, LargerRhoSGivesLowerStationarityError) {
  // Theorem 2: error ~ O(1/sqrt(ρ_S·M·N)). Averaged over seeds, a 8x larger
  // ρ_S (larger mini-batches) should not be worse by more than noise.
  const double high_rho = MeanFinalGradNorm(1.0, 8, 16, 5);
  const double low_rho = MeanFinalGradNorm(0.125, 8, 16, 5);
  EXPECT_LT(high_rho, low_rho * 1.5)
      << "high=" << high_rho << " low=" << low_rho;
}

TEST(ConvergenceTest, AccuracyImprovesWithRhoS) {
  // The Figure 4 trend: utility rises with ρ_S.
  auto mean_accuracy = [](double rho_s) {
    double total = 0.0;
    const int seeds = 4;
    for (int seed = 0; seed < seeds; ++seed) {
      FederatedDataset data = TinyImageData(8, 16);
      FatsConfig config = TinyFatsConfig(8, 16, 6, 2, rho_s, 0.5,
                                         300 + static_cast<uint64_t>(seed));
      FatsTrainer trainer(TinyModelSpec(), config, &data);
      trainer.Train();
      total += trainer.EvaluateTestAccuracy();
    }
    return total / seeds;
  };
  EXPECT_GE(mean_accuracy(1.0) + 0.1, mean_accuracy(0.125));
}

TEST(ConvergenceTest, ConditionSevenLearningRateIsPositiveAndScales) {
  // The theoretical learning-rate machinery produces usable values for the
  // tiny workload's scale.
  ConvergenceConstants c;
  c.smoothness_l = 1.0;
  c.gradient_variance_g2 = 1.0;
  c.heterogeneity_lambda = 2.0;
  c.initial_gap = 1.0;
  const double eta_max = MaxStableLearningRate(c, 3);
  EXPECT_GT(eta_max, 0.0);
  EXPECT_TRUE(LearningRateConditionHolds(eta_max * 0.5, c, 3));
  const double eta_theory = TheoreticalLearningRate(c, 0.5, 8, 12, 24);
  EXPECT_GT(eta_theory, 0.0);
  EXPECT_LT(eta_theory, 10.0);
}

TEST(ConvergenceTest, UnlearnedModelPreservesErrorRegime) {
  // Remark 4: with O(MN) samples remaining, the unlearned model keeps the
  // same convergence regime — compare gradient norms before/after a
  // deletion + re-computation.
  FederatedDataset data = TinyImageData(8, 16);
  FatsConfig config = TinyFatsConfig(8, 16, 8, 2);
  FatsTrainer trainer(TinyModelSpec(), config, &data);
  trainer.Train();
  const double before = GlobalSquaredGradNorm(&trainer);
  // Find a used sample to force an actual re-computation.
  SampleRef target{-1, -1};
  for (int64_t k = 0; k < data.num_clients() && target.client < 0; ++k) {
    for (int64_t i = 0; i < data.samples_of(k); ++i) {
      if (trainer.store().EarliestSampleUse({k, i}) >= 1) {
        target = {k, i};
        break;
      }
    }
  }
  ASSERT_GE(target.client, 0);
  UnlearningService service(&trainer);
  ASSERT_TRUE(service
                  .ExecuteStream({{.kind = UnlearningRequest::Kind::kSample,
                                   .sample = target,
                                   .request_iter = config.total_iters_t()}})
                  .ok());
  const double after = GlobalSquaredGradNorm(&trainer);
  EXPECT_LT(after, 10.0 * before + 0.5);
}

}  // namespace
}  // namespace fats
