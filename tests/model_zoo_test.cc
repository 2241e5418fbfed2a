#include "nn/model_zoo.h"

#include <gtest/gtest.h>

#include <cstring>

#include "nn/loss.h"
#include "rng/rng_stream.h"
#include "util/thread_pool.h"

namespace fats {
namespace {

ModelSpec LogRegSpec() {
  ModelSpec spec;
  spec.kind = ModelKind::kLogReg;
  spec.input_dim = 8;
  spec.num_classes = 3;
  return spec;
}

ModelSpec MlpSpec() {
  ModelSpec spec;
  spec.kind = ModelKind::kMlp;
  spec.input_dim = 8;
  spec.hidden_dims = {6, 4};
  spec.num_classes = 3;
  return spec;
}

ModelSpec CnnSpec() {
  ModelSpec spec;
  spec.kind = ModelKind::kSmallCnn;
  spec.image_channels = 1;
  spec.image_height = 6;
  spec.image_width = 6;
  spec.conv_channels = 4;
  spec.kernel_size = 3;
  spec.num_classes = 5;
  return spec;
}

ModelSpec LstmSpec() {
  ModelSpec spec;
  spec.kind = ModelKind::kCharLstm;
  spec.vocab_size = 12;
  spec.embed_dim = 4;
  spec.lstm_hidden = 6;
  spec.seq_len = 5;
  spec.num_classes = 12;
  return spec;
}

Tensor RandomInputs(const ModelSpec& spec, int64_t batch, uint64_t seed) {
  RngStream rng(seed);
  Tensor x({batch, spec.InputFeatures()});
  if (spec.kind == ModelKind::kCharLstm) {
    for (int64_t i = 0; i < x.size(); ++i) {
      x[i] = static_cast<float>(rng.UniformInt(spec.vocab_size));
    }
  } else {
    for (int64_t i = 0; i < x.size(); ++i) {
      x[i] = static_cast<float>(rng.NextGaussian());
    }
  }
  return x;
}

std::vector<int64_t> RandomLabels(const ModelSpec& spec, int64_t batch,
                                  uint64_t seed) {
  RngStream rng(seed + 1);
  std::vector<int64_t> y(static_cast<size_t>(batch));
  for (int64_t& v : y) {
    v = static_cast<int64_t>(rng.UniformInt(spec.num_classes));
  }
  return y;
}

class ModelZooAllKindsTest : public testing::TestWithParam<ModelSpec> {};

TEST_P(ModelZooAllKindsTest, ForwardShapeIsBatchByClasses) {
  Model model(GetParam(), 7);
  Tensor x = RandomInputs(GetParam(), 3, 10);
  Tensor logits = model.Predict(x);
  EXPECT_EQ(logits.dim(0), 3);
  EXPECT_EQ(logits.dim(1), GetParam().num_classes);
}

TEST_P(ModelZooAllKindsTest, InitializationIsDeterministicInSeed) {
  Model a(GetParam(), 7);
  Model b(GetParam(), 7);
  Model c(GetParam(), 8);
  EXPECT_TRUE(a.GetParameters().BitwiseEquals(b.GetParameters()));
  EXPECT_FALSE(a.GetParameters().BitwiseEquals(c.GetParameters()));
}

TEST_P(ModelZooAllKindsTest, ParameterRoundTrip) {
  Model model(GetParam(), 7);
  Tensor params = model.GetParameters();
  EXPECT_EQ(params.size(), model.NumParameters());
  Tensor shifted = params;
  for (int64_t i = 0; i < shifted.size(); ++i) shifted[i] += 0.25f;
  model.SetParameters(shifted);
  EXPECT_TRUE(model.GetParameters().BitwiseEquals(shifted));
}

TEST_P(ModelZooAllKindsTest, SgdStepsReduceTrainingLoss) {
  const ModelSpec spec = GetParam();
  Model model(spec, 7);
  Tensor x = RandomInputs(spec, 12, 20);
  std::vector<int64_t> y = RandomLabels(spec, 12, 20);
  const double initial = model.ComputeLoss(x, y);
  double lr = spec.kind == ModelKind::kCharLstm ? 0.5 : 0.1;
  for (int step = 0; step < 60; ++step) {
    model.ComputeLossAndGradients(x, y);
    model.SgdStep(lr);
  }
  const double final_loss = model.ComputeLoss(x, y);
  EXPECT_LT(final_loss, initial) << "training diverged for "
                                 << spec.ToString();
}

TEST_P(ModelZooAllKindsTest, PerExampleLossSizeMatchesBatch) {
  Model model(GetParam(), 7);
  Tensor x = RandomInputs(GetParam(), 4, 30);
  std::vector<int64_t> y = RandomLabels(GetParam(), 4, 30);
  EXPECT_EQ(model.PerExampleLoss(x, y).size(), 4u);
}

INSTANTIATE_TEST_SUITE_P(
    AllModelKinds, ModelZooAllKindsTest,
    testing::Values(LogRegSpec(), MlpSpec(), CnnSpec(), LstmSpec()),
    [](const testing::TestParamInfo<ModelSpec>& param_info) {
      switch (param_info.param.kind) {
        case ModelKind::kLogReg:
          return std::string("LogReg");
        case ModelKind::kMlp:
          return std::string("Mlp");
        case ModelKind::kSmallCnn:
          return std::string("SmallCnn");
        case ModelKind::kCharLstm:
          return std::string("CharLstm");
      }
      return std::string("Unknown");
    });

TEST(ModelSpecTest, InputFeaturesPerKind) {
  EXPECT_EQ(LogRegSpec().InputFeatures(), 8);
  EXPECT_EQ(MlpSpec().InputFeatures(), 8);
  EXPECT_EQ(CnnSpec().InputFeatures(), 36);
  EXPECT_EQ(LstmSpec().InputFeatures(), 5);
}

TEST(ModelSpecTest, ToStringMentionsKind) {
  EXPECT_NE(MlpSpec().ToString().find("Mlp"), std::string::npos);
  EXPECT_NE(CnnSpec().ToString().find("SmallCnn"), std::string::npos);
  EXPECT_NE(LstmSpec().ToString().find("CharLstm"), std::string::npos);
}

TEST(ModelTest, EvaluateAccuracyPerfectOnSeparableToy) {
  ModelSpec spec = LogRegSpec();
  spec.input_dim = 2;
  spec.num_classes = 2;
  Model model(spec, 3);
  // Two well-separated clusters.
  Tensor x({8, 2}, {3, 3, 4, 3, 3, 4, 4, 4, -3, -3, -4, -3, -3, -4, -4, -4});
  std::vector<int64_t> y = {0, 0, 0, 0, 1, 1, 1, 1};
  for (int step = 0; step < 200; ++step) {
    model.ComputeLossAndGradients(x, y);
    model.SgdStep(0.2);
  }
  EXPECT_DOUBLE_EQ(model.EvaluateAccuracy(x, y), 1.0);
}

TEST(ModelTest, GradientsAreZeroBeforeBackward) {
  Model model(LogRegSpec(), 7);
  Tensor grads = model.GetGradients();
  EXPECT_DOUBLE_EQ(grads.SquaredNorm(), 0.0);
}

// --- Parameters-only backward -------------------------------------------
//
// Model::ComputeLossAndGradients runs Sequential::BackwardParameters, which
// skips the first layer's input gradient. Its loss and every parameter
// gradient must equal, bit for bit, a step through the full
// Sequential::Backward, over several SGD steps (so later steps start from
// weights the earlier gradients produced).

ModelSpec TwoBlockCnnSpec() {
  ModelSpec spec = CnnSpec();
  spec.image_height = 8;
  spec.image_width = 8;
  spec.conv_blocks = 2;
  return spec;
}

ModelSpec TwoLayerLstmSpec() {
  ModelSpec spec = LstmSpec();
  spec.lstm_layers = 2;
  return spec;
}

// The train_cnn benchmark's CNN: one 6-channel ConvBlock on 8x8 images,
// fused on AVX-512F hosts.
ModelSpec ZooCnnSpec() {
  ModelSpec spec = CnnSpec();
  spec.image_height = 8;
  spec.image_width = 8;
  spec.conv_channels = 6;
  return spec;
}

std::vector<ModelSpec> EveryModelKind() {
  return {LogRegSpec(),     MlpSpec(),         ZooCnnSpec(), CnnSpec(),
          TwoBlockCnnSpec(), LstmSpec(), TwoLayerLstmSpec()};
}

// Empty when both paths agree; otherwise what differed first.
std::string ParametersOnlyMismatch(const ModelSpec& spec) {
  Model fast(spec, 7);
  Model full(spec, 7);
  SoftmaxCrossEntropy loss;
  Tensor grad_logits;
  for (int step = 0; step < 3; ++step) {
    const Tensor x = RandomInputs(spec, 5, 40 + step);
    const std::vector<int64_t> y = RandomLabels(spec, 5, 40 + step);
    const double fast_loss = fast.ComputeLossAndGradients(x, y);

    Sequential* net = full.network();
    net->ZeroGrad();
    const Tensor& logits = net->Forward(x, full.workspace());
    const double full_loss = loss.Compute(logits, y, &grad_logits);
    net->Backward(grad_logits, full.workspace());

    const std::string where =
        spec.ToString() + " step " + std::to_string(step);
    if (std::memcmp(&fast_loss, &full_loss, sizeof(double)) != 0) {
      return where + ": loss";
    }
    const std::vector<Parameter*> a = fast.network()->Parameters();
    const std::vector<Parameter*> b = net->Parameters();
    if (a.size() != b.size()) return where + ": parameter count";
    for (size_t i = 0; i < a.size(); ++i) {
      if (!a[i]->grad.BitwiseEquals(b[i]->grad)) {
        return where + ": " + a[i]->name + " (#" + std::to_string(i) + ")";
      }
    }
    fast.SgdStep(0.1);
    full.SgdStep(0.1);
  }
  return "";
}

TEST(ParametersOnlyBackwardTest, MatchesFullBackwardSerial) {
  for (const ModelSpec& spec : EveryModelKind()) {
    EXPECT_EQ(ParametersOnlyMismatch(spec), "");
  }
}

TEST(ParametersOnlyBackwardTest, MatchesFullBackwardOnFourThreads) {
  const std::vector<ModelSpec> specs = EveryModelKind();
  std::vector<std::string> mismatch(specs.size());
  ThreadPool pool(4);
  pool.ParallelFor(static_cast<int64_t>(specs.size()),
                   [&](int64_t i, int64_t /*worker*/) {
                     const size_t k = static_cast<size_t>(i);
                     mismatch[k] = ParametersOnlyMismatch(specs[k]);
                   });
  for (const std::string& m : mismatch) EXPECT_EQ(m, "");
}

}  // namespace
}  // namespace fats
