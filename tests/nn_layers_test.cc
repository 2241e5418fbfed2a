#include <gtest/gtest.h>

#include <cmath>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/lstm.h"
#include "nn/optimizer.h"
#include "nn/parameter_vector.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "rng/rng_stream.h"

namespace fats {
namespace {

RngStream MakeRng() { return RngStream(uint64_t{42}); }

TEST(LinearTest, OutputShapeAndBiasApplied) {
  RngStream rng = MakeRng();
  Linear layer(3, 2, &rng);
  layer.Parameters()[1]->value.Fill(1.5f);  // bias
  Tensor x({2, 3});                          // zeros
  Tensor y = layer.Forward(x);
  ASSERT_EQ(y.dim(0), 2);
  ASSERT_EQ(y.dim(1), 2);
  // Zero input -> output equals bias.
  EXPECT_FLOAT_EQ(y.at(0, 0), 1.5f);
  EXPECT_FLOAT_EQ(y.at(1, 1), 1.5f);
}

TEST(LinearTest, KnownMatrixProduct) {
  RngStream rng = MakeRng();
  Linear layer(2, 2, &rng);
  // W = [[1, 2], [3, 4]] (out x in); b = [0, 0].
  layer.Parameters()[0]->value = Tensor({2, 2}, {1, 2, 3, 4});
  layer.Parameters()[1]->value = Tensor({2});
  Tensor x({1, 2}, {5, 6});
  Tensor y = layer.Forward(x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 17);  // 5*1 + 6*2
  EXPECT_FLOAT_EQ(y.at(0, 1), 39);  // 5*3 + 6*4
}

TEST(LinearTest, ParametersReported) {
  RngStream rng = MakeRng();
  Linear layer(4, 3, &rng);
  auto params = layer.Parameters();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0]->value.size(), 12);
  EXPECT_EQ(params[1]->value.size(), 3);
  EXPECT_EQ(layer.OutputFeatures(4), 3);
}

TEST(ReLUTest, ClampsNegative) {
  ReLU relu;
  Tensor x({1, 4}, {-1, 0, 2, -3});
  Tensor y = relu.Forward(x);
  EXPECT_FLOAT_EQ(y[0], 0);
  EXPECT_FLOAT_EQ(y[1], 0);
  EXPECT_FLOAT_EQ(y[2], 2);
  EXPECT_FLOAT_EQ(y[3], 0);
}

TEST(ReLUTest, BackwardMasksGradient) {
  ReLU relu;
  Tensor x({1, 3}, {-1, 0.5f, 2});
  relu.Forward(x);
  Tensor g({1, 3}, {10, 10, 10});
  Tensor gx = relu.Backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0);
  EXPECT_FLOAT_EQ(gx[1], 10);
  EXPECT_FLOAT_EQ(gx[2], 10);
}

TEST(TanhTest, MatchesStdTanh) {
  Tanh layer;
  Tensor x({1, 2}, {0.5f, -1.0f});
  Tensor y = layer.Forward(x);
  EXPECT_NEAR(y[0], std::tanh(0.5), 1e-6);
  EXPECT_NEAR(y[1], std::tanh(-1.0), 1e-6);
}

TEST(SigmoidTest, RangeAndMidpoint) {
  Sigmoid layer;
  Tensor x({1, 3}, {0.0f, 10.0f, -10.0f});
  Tensor y = layer.Forward(x);
  EXPECT_NEAR(y[0], 0.5, 1e-6);
  EXPECT_GT(y[1], 0.999);
  EXPECT_LT(y[2], 0.001);
}

TEST(Conv2dTest, OutputGeometry) {
  RngStream rng = MakeRng();
  Conv2d conv(1, 4, 8, 8, 3, 1, &rng);  // same padding
  EXPECT_EQ(conv.out_height(), 8);
  EXPECT_EQ(conv.out_width(), 8);
  Tensor x({2, 64});
  Tensor y = conv.Forward(x);
  EXPECT_EQ(y.dim(1), 4 * 8 * 8);
  EXPECT_EQ(conv.OutputFeatures(64), 256);
}

TEST(Conv2dTest, IdentityKernelReproducesInput) {
  RngStream rng = MakeRng();
  Conv2d conv(1, 1, 4, 4, 3, 1, &rng);
  // Kernel = delta at center, bias = 0 -> identity map.
  Tensor w({1, 9});
  w[4] = 1.0f;
  conv.Parameters()[0]->value = w;
  conv.Parameters()[1]->value = Tensor({1});
  Tensor x({1, 16}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
  Tensor y = conv.Forward(x);
  EXPECT_TRUE(y.AllClose(x, 1e-6f));
}

TEST(Conv2dTest, ValidConvolutionShrinksOutput) {
  RngStream rng = MakeRng();
  Conv2d conv(2, 3, 6, 5, 3, 0, &rng);
  EXPECT_EQ(conv.out_height(), 4);
  EXPECT_EQ(conv.out_width(), 3);
}

TEST(MaxPool2dTest, PicksWindowMaximum) {
  MaxPool2d pool(1, 4, 4);
  Tensor x({1, 16}, {1, 2, 5, 6,
                     3, 4, 7, 8,
                     9, 10, 13, 14,
                     11, 12, 15, 16});
  Tensor y = pool.Forward(x);
  ASSERT_EQ(y.dim(1), 4);
  EXPECT_FLOAT_EQ(y[0], 4);
  EXPECT_FLOAT_EQ(y[1], 8);
  EXPECT_FLOAT_EQ(y[2], 12);
  EXPECT_FLOAT_EQ(y[3], 16);
}

TEST(MaxPool2dTest, BackwardRoutesToArgmax) {
  MaxPool2d pool(1, 2, 2);
  Tensor x({1, 4}, {1, 7, 3, 2});
  pool.Forward(x);
  Tensor g({1, 1}, {5});
  Tensor gx = pool.Backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0);
  EXPECT_FLOAT_EQ(gx[1], 5);
  EXPECT_FLOAT_EQ(gx[2], 0);
  EXPECT_FLOAT_EQ(gx[3], 0);
}

TEST(EmbeddingTest, LooksUpRows) {
  RngStream rng = MakeRng();
  Embedding embed(5, 3, 2, &rng);
  Tensor ids({1, 2}, {4, 0});
  Tensor y = embed.Forward(ids);
  ASSERT_EQ(y.dim(1), 6);
  const Tensor& table = embed.Parameters()[0]->value;
  for (int64_t d = 0; d < 3; ++d) {
    EXPECT_FLOAT_EQ(y[d], table.at(4, d));
    EXPECT_FLOAT_EQ(y[3 + d], table.at(0, d));
  }
}

TEST(EmbeddingTest, BackwardAccumulatesPerId) {
  RngStream rng = MakeRng();
  Embedding embed(4, 2, 2, &rng);
  Tensor ids({1, 2}, {1, 1});  // same id twice
  embed.Forward(ids);
  Tensor g({1, 4}, {1, 2, 3, 4});
  embed.Backward(g);
  const Tensor& grad = embed.Parameters()[0]->grad;
  EXPECT_FLOAT_EQ(grad.at(1, 0), 4);  // 1 + 3
  EXPECT_FLOAT_EQ(grad.at(1, 1), 6);  // 2 + 4
  EXPECT_FLOAT_EQ(grad.at(0, 0), 0);
}

TEST(LstmTest, OutputShapeAndDeterminism) {
  RngStream rng = MakeRng();
  Lstm lstm(3, 5, 4, &rng);
  Tensor x({2, 12});
  for (int64_t i = 0; i < x.size(); ++i) x[i] = 0.1f * static_cast<float>(i);
  Tensor y1 = lstm.Forward(x);
  Tensor y2 = lstm.Forward(x);
  ASSERT_EQ(y1.dim(0), 2);
  ASSERT_EQ(y1.dim(1), 5);
  EXPECT_TRUE(y1.BitwiseEquals(y2));
}

TEST(LstmTest, ZeroInputGivesBoundedOutput) {
  RngStream rng = MakeRng();
  Lstm lstm(2, 3, 3, &rng);
  Tensor x({1, 6});
  Tensor y = lstm.Forward(x);
  for (int64_t i = 0; i < y.size(); ++i) {
    EXPECT_LE(std::fabs(y[i]), 1.0f);  // h = o * tanh(c) is in (-1, 1)
  }
}

TEST(SequentialTest, ChainsLayersAndCollectsParams) {
  RngStream rng = MakeRng();
  auto seq = std::make_unique<Sequential>();
  seq->Add(std::make_unique<Linear>(4, 3, &rng));
  seq->Add(std::make_unique<ReLU>());
  seq->Add(std::make_unique<Linear>(3, 2, &rng));
  EXPECT_EQ(seq->Parameters().size(), 4u);
  EXPECT_EQ(seq->OutputFeatures(4), 2);
  Tensor x({5, 4});
  Tensor y = seq->Forward(x);
  EXPECT_EQ(y.dim(0), 5);
  EXPECT_EQ(y.dim(1), 2);
  EXPECT_EQ(seq->num_layers(), 3u);
}

TEST(LossTest, UniformLogitsGiveLogC) {
  SoftmaxCrossEntropy loss;
  Tensor logits({2, 4});
  double l = loss.Compute(logits, {0, 3}, nullptr);
  EXPECT_NEAR(l, std::log(4.0), 1e-6);
}

TEST(LossTest, GradientIsSoftmaxMinusOneHotOverBatch) {
  SoftmaxCrossEntropy loss;
  Tensor logits({1, 2}, {0.0f, 0.0f});
  Tensor grad;
  loss.Compute(logits, {1}, &grad);
  EXPECT_NEAR(grad.at(0, 0), 0.5, 1e-6);
  EXPECT_NEAR(grad.at(0, 1), -0.5, 1e-6);
}

TEST(LossTest, PerExampleLossMatchesBatchMean) {
  SoftmaxCrossEntropy loss;
  Tensor logits({3, 4});
  for (int64_t i = 0; i < logits.size(); ++i) {
    logits[i] = 0.1f * static_cast<float>(i % 7);
  }
  std::vector<int64_t> labels = {1, 0, 3};
  std::vector<double> per = loss.PerExampleLoss(logits, labels);
  double mean = (per[0] + per[1] + per[2]) / 3.0;
  EXPECT_NEAR(mean, loss.Compute(logits, labels, nullptr), 1e-9);
}

TEST(AccuracyTest, CountsArgmaxMatches) {
  Tensor logits({3, 2}, {1, 0, 0, 1, 1, 0});
  EXPECT_DOUBLE_EQ(Accuracy(logits, {0, 1, 1}), 2.0 / 3.0);
}

TEST(ParameterVectorTest, RoundTripFlattenUnflatten) {
  RngStream rng = MakeRng();
  auto seq = std::make_unique<Sequential>();
  seq->Add(std::make_unique<Linear>(3, 2, &rng));
  seq->Add(std::make_unique<Linear>(2, 2, &rng));
  Tensor flat = FlattenParameters(seq.get());
  EXPECT_EQ(flat.size(), ParameterCount(seq.get()));
  Tensor modified = flat;
  for (int64_t i = 0; i < modified.size(); ++i) modified[i] += 1.0f;
  UnflattenParameters(modified, seq.get());
  Tensor back = FlattenParameters(seq.get());
  EXPECT_TRUE(back.BitwiseEquals(modified));
}

TEST(ParameterVectorTest, SgdStepMovesAgainstGradient) {
  RngStream rng = MakeRng();
  Linear layer(2, 1, &rng);
  layer.Parameters()[0]->value = Tensor({1, 2}, {1.0f, 1.0f});
  layer.Parameters()[0]->grad = Tensor({1, 2}, {0.5f, -0.5f});
  layer.Parameters()[1]->grad = Tensor({1}, {1.0f});
  ApplySgdStep(&layer, 0.1);
  EXPECT_FLOAT_EQ(layer.Parameters()[0]->value.at(0, 0), 0.95f);
  EXPECT_FLOAT_EQ(layer.Parameters()[0]->value.at(0, 1), 1.05f);
  EXPECT_FLOAT_EQ(layer.Parameters()[1]->value[0], -0.1f);
}

TEST(OptimizerTest, MomentumAcceleratesRepeatedGradients) {
  RngStream rng = MakeRng();
  Linear plain_layer(1, 1, &rng);
  RngStream rng2 = MakeRng();
  Linear momentum_layer(1, 1, &rng2);
  plain_layer.Parameters()[0]->value.Fill(0.0f);
  momentum_layer.Parameters()[0]->value.Fill(0.0f);
  SgdOptimizer plain(0.1, 0.0);
  SgdOptimizer momentum(0.1, 0.9);
  for (int step = 0; step < 5; ++step) {
    plain_layer.Parameters()[0]->grad.Fill(1.0f);
    momentum_layer.Parameters()[0]->grad.Fill(1.0f);
    plain.Step(&plain_layer);
    momentum.Step(&momentum_layer);
  }
  // With momentum the weight has moved strictly further.
  EXPECT_LT(momentum_layer.Parameters()[0]->value[0],
            plain_layer.Parameters()[0]->value[0]);
}

TEST(OptimizerTest, ZeroGradClearsAccumulators) {
  RngStream rng = MakeRng();
  Linear layer(2, 2, &rng);
  layer.Parameters()[0]->grad.Fill(3.0f);
  layer.ZeroGrad();
  EXPECT_DOUBLE_EQ(layer.Parameters()[0]->grad.Sum(), 0.0);
}

}  // namespace
}  // namespace fats
