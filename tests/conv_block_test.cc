// ConvBlock contract (nn/conv2d.h, DESIGN.md §7.2).
//
// Whichever path a block runs — the fused AVX-512F kernels or the Conv2d,
// ReLU and MaxPool2d layers in order — its pooled output, its parameter
// gradients and its input gradient must equal, bit for bit, those of the
// unfused triple run as three separate layers. The fused weight gradient
// sums only each live window's winner when every input is finite and no
// starting dW lane is −0.0, and the dense conv-output gradient otherwise;
// both must give the triple's bits.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/pooling.h"
#include "rng/rng_stream.h"

namespace fats {
namespace {

struct BlockShape {
  int64_t in_ch, out_ch, height, width;
};

// The x86 default NaN (sign bit set), the one that Inf·0 and Inf − Inf
// produce, so every NaN has the same bits whatever an add's operand order.
const float kNaN = std::bit_cast<float>(uint32_t{0xFFC00000u});
constexpr float kInf = std::numeric_limits<float>::infinity();

enum class Fill {
  kGaussian,       // Gaussian, with +0.0 and −0.0 among the inputs
  kZeroWeights,    // all-zero weights: ±0 ties, dead and live windows
  kAllNegative,    // every conv output < 0: every window dead
  kNaNInput,       // one NaN input, position set by the case
  kNaNWeight,      // one NaN weight, tap set by the case
  kInfWeight,      // one +Inf and one −Inf weight, taps set by the case
  kNegZeroGrad,    // every upstream and starting gradient −0.0
  kNegZeroLane,    // one −0.0 starting dW lane, every window dead
  kInfInput,       // one +Inf and one −Inf input, positions set by the case
  kAlternating,    // winners alternate between bottom and top rows
  kNegZeroLive,    // −0.0 gradients, every window live, every input < 0
};

struct Data {
  std::vector<float> x, w, b, gp, wgrad0, bgrad0;
};

std::vector<float> Gaussian(int64_t n, RngStream* rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& f : v) f = static_cast<float>(rng->NextGaussian());
  return v;
}

Data MakeData(const BlockShape& s, int64_t batch, Fill fill, int64_t where,
              RngStream* rng) {
  const int64_t k = s.in_ch * 9;
  const int64_t plane = s.height * s.width;
  const int64_t pooled = s.out_ch * (s.height / 2) * (s.width / 2);
  Data d;
  d.x = Gaussian(batch * s.in_ch * s.height * s.width, rng);
  for (size_t i = 0; i < d.x.size(); ++i) {
    if (i % 7 == 3) d.x[i] = rng->UniformInt(2) == 0 ? 0.0f : -0.0f;
  }
  d.w = Gaussian(s.out_ch * k, rng);
  d.b = Gaussian(s.out_ch, rng);
  d.gp = Gaussian(batch * pooled, rng);
  for (size_t i = 0; i < d.gp.size(); ++i) {
    if (i % 5 == 0) d.gp[i] = -0.0f;
  }
  d.wgrad0 = Gaussian(s.out_ch * k, rng);
  d.bgrad0 = Gaussian(s.out_ch, rng);
  auto at = [where](const std::vector<float>& v) {
    return static_cast<size_t>(where % static_cast<int64_t>(v.size()));
  };
  switch (fill) {
    case Fill::kZeroWeights: {
      // Bias +0.0, −0.0, negative or positive per channel: all-+0.0
      // (dead) windows, all-negative (dead) windows and live ties.
      const float biases[] = {0.0f, -0.0f, -0.5f, 0.5f};
      for (float& f : d.w) f = 0.0f;
      for (size_t oc = 0; oc < d.b.size(); ++oc) d.b[oc] = biases[oc % 4];
      break;
    }
    case Fill::kAllNegative:
      for (float& f : d.b) f = -1e4f;
      break;
    case Fill::kNaNInput:
      d.x[at(d.x)] = kNaN;
      break;
    case Fill::kNaNWeight:
      d.w[at(d.w)] = kNaN;
      break;
    case Fill::kInfWeight:
      d.w[at(d.w)] = kInf;
      d.w[static_cast<size_t>((where + k + 4) %
                              static_cast<int64_t>(d.w.size()))] = -kInf;
      break;
    case Fill::kNegZeroGrad:
      // A −0.0 upstream gradient reaches the conv-output gradient as +0.0;
      // from −0.0 starting sums, dW then shows the sign of every product.
      for (float& f : d.gp) f = -0.0f;
      for (float& f : d.wgrad0) f = -0.0f;
      for (float& f : d.bgrad0) f = -0.0f;
      break;
    case Fill::kNegZeroLane:
      // The centre-tap lane of channel `where`'s first input channel starts
      // at −0.0 and every window is dead. The dense chain meets +0.0·x at a
      // positive input and leaves −0.0; the winners alone add no term, or
      // +0.0·x at position 0, where every sample's input is negative.
      for (float& f : d.b) f = -1e4f;
      d.wgrad0[static_cast<size_t>(where % s.out_ch * k + 4)] = -0.0f;
      for (int64_t n = 0; n < batch; ++n) {
        d.x[static_cast<size_t>(n * s.in_ch * plane)] = -1.0f;
      }
      break;
    case Fill::kInfInput:
      d.x[at(d.x)] = kInf;
      d.x[static_cast<size_t>((where + plane / 2 + 1) %
                              static_cast<int64_t>(d.x.size()))] = -kInf;
      break;
    case Fill::kAlternating: {
      // Only the centre tap of input channel 0 is nonzero, so each conv
      // output is its input there, scaled per channel. Each window's
      // largest input sits in the bottom row when ph + pw is odd and in
      // the top row otherwise, so within a pooled row pair the ascending
      // position order differs from window order.
      for (float& f : d.w) f = 0.0f;
      for (int64_t oc = 0; oc < s.out_ch; ++oc) {
        d.w[static_cast<size_t>(oc * k + 4)] = 1.0f + 0.25f * oc;
      }
      for (float& f : d.b) f = 0.0f;
      for (int64_t n = 0; n < batch; ++n) {
        float* xc = d.x.data() + n * s.in_ch * plane;
        for (int64_t h = 0; h < s.height; ++h) {
          for (int64_t w = 0; w < s.width; ++w) {
            const int64_t ph = h / 2;
            const int64_t pw = w / 2;
            const bool winner = h % 2 == (ph + pw) % 2 && w % 2 == ph % 2;
            const float v = std::fabs(xc[h * s.width + w]);
            xc[h * s.width + w] = winner ? 4.0f + v : std::min(v, 1.0f);
          }
        }
      }
      break;
    }
    case Fill::kNegZeroLive:
      // Zero weights and positive biases: every window live, its winner
      // top-left. Every input negative and every gradient −0.0, so each
      // centre-tap chain adds only fl(+0.0·x) = −0.0 terms and stays −0.0,
      // but one fl(−0.0·x) = +0.0 would end at +0.0: the conv-output
      // gradient at a winner must be 0.0f + g, never g.
      for (float& f : d.w) f = 0.0f;
      for (float& f : d.b) f = 0.5f;
      for (float& f : d.x) f = -1.0f - std::fabs(f);
      for (float& f : d.gp) f = -0.0f;
      for (float& f : d.wgrad0) f = -0.0f;
      break;
    default:
      break;
  }
  return d;
}

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

void SetParameters(const std::vector<Parameter*>& params, const Data& d) {
  params[0]->value = Tensor(params[0]->value.shape(), d.w);
  params[1]->value = Tensor(params[1]->value.shape(), d.b);
}

void ResetGrads(const std::vector<Parameter*>& params, const Data& d) {
  params[0]->grad = Tensor(params[0]->grad.shape(), d.wgrad0);
  params[1]->grad = Tensor(params[1]->grad.shape(), d.bgrad0);
}

// Which code computed BackwardParameters' weight gradient.
enum class Path {
  kLayers,        // Conv2d, ReLU and MaxPool2d in order
  kFusedDense,    // fused, dW over the dense conv-output gradient
  kFusedWinners,  // fused, dW over each live window's winner only
};

// The winners-only dW's guards: every input finite, no −0.0 starting lane.
bool WinnersGuardsHold(const Data& d) {
  for (float f : d.x) {
    if (!std::isfinite(f)) return false;
  }
  for (float f : d.wgrad0) {
    if (f == 0.0f && std::signbit(f)) return false;
  }
  return true;
}

// Runs the block and the triple on the same data: Forward, then
// BackwardParameters, then Forward and Backward, comparing everything.
// Returns the path BackwardParameters took. A fused Forward creates one
// workspace slot (the pooled output), the layers in order at least three
// (one output per layer); a fused BackwardParameters adds the conv-output
// gradient's slot unless it sums winners only.
Path CheckBlock(const BlockShape& s, int64_t batch, const Data& d,
                const std::string& where) {
  RngStream init(uint64_t{7});
  ConvBlock block(s.in_ch, s.out_ch, s.height, s.width, 3, 1, &init);
  Conv2d conv(s.in_ch, s.out_ch, s.height, s.width, 3, 1, &init);
  ReLU relu;
  MaxPool2d pool(s.out_ch, s.height, s.width);
  const std::vector<Parameter*> bp = block.Parameters();
  const std::vector<Parameter*> tp = conv.Parameters();
  EXPECT_EQ(bp.size(), 2u);
  SetParameters(bp, d);
  SetParameters(tp, d);
  const Tensor x({batch, s.in_ch * s.height * s.width}, d.x);
  const Tensor gp({batch, static_cast<int64_t>(d.gp.size()) / batch}, d.gp);

  Workspace bws;
  Workspace tws;
  // A first pass creates the output slot; poisoning it shows any position
  // the second pass fails to write.
  const_cast<Tensor&>(block.Forward(x, &bws)).Fill(7.0f);
  const bool fused = bws.slot_count() == 1;
  const Tensor& by = block.Forward(x, &bws);
  const Tensor& ty =
      pool.Forward(relu.Forward(conv.Forward(x, &tws), &tws), &tws);
  EXPECT_TRUE(BitwiseEqual(by, ty)) << "Forward, " << where;

  ResetGrads(bp, d);
  ResetGrads(tp, d);
  block.BackwardParameters(gp, &bws);
  const Path path = !fused                   ? Path::kLayers
                    : bws.slot_count() == 1 ? Path::kFusedWinners
                                            : Path::kFusedDense;
  conv.BackwardParameters(relu.Backward(pool.Backward(gp, &tws), &tws),
                          &tws);
  EXPECT_TRUE(BitwiseEqual(bp[0]->grad, tp[0]->grad))
      << "BackwardParameters dW, " << where;
  EXPECT_TRUE(BitwiseEqual(bp[1]->grad, tp[1]->grad))
      << "BackwardParameters db, " << where;

  ResetGrads(bp, d);
  ResetGrads(tp, d);
  block.Forward(x, &bws);
  const Tensor& bgx = block.Backward(gp, &bws);
  const Tensor& tgx =
      conv.Backward(relu.Backward(pool.Backward(gp, &tws), &tws), &tws);
  EXPECT_TRUE(BitwiseEqual(bp[0]->grad, tp[0]->grad))
      << "Backward dW, " << where;
  EXPECT_TRUE(BitwiseEqual(bp[1]->grad, tp[1]->grad))
      << "Backward db, " << where;
  EXPECT_TRUE(BitwiseEqual(bgx, tgx)) << "Backward dx, " << where;
  return path;
}

// Every fill at every batch in [1, 16]; a NaN input at each position of a
// sample plane (cycling through channels and samples); a non-finite weight
// at each tap of the first input channel. The fills added with the winners
// path (a −0.0 starting lane, ±Inf inputs, alternating winners, −0.0
// gradients through live windows) run at batches 1, 3 and 16.
void CheckAllFills(const BlockShape& s, bool want_fused) {
  RngStream rng(uint64_t{2027});
  const int64_t plane = s.height * s.width;
  const int64_t k = s.in_ch * 9;
  for (int64_t batch = 1; batch <= 16; ++batch) {
    auto check = [&](Fill fill, int64_t where) {
      const Data d = MakeData(s, batch, fill, where, &rng);
      const std::string desc =
          "ConvBlock(" + std::to_string(s.in_ch) + ", " +
          std::to_string(s.out_ch) + ", " + std::to_string(s.height) + "x" +
          std::to_string(s.width) + ") batch " + std::to_string(batch) +
          " fill " + std::to_string(static_cast<int>(fill)) + " at " +
          std::to_string(where);
      const Path want = !want_fused             ? Path::kLayers
                        : WinnersGuardsHold(d) ? Path::kFusedWinners
                                               : Path::kFusedDense;
      EXPECT_EQ(CheckBlock(s, batch, d, desc), want) << desc;
    };
    check(Fill::kGaussian, 0);
    check(Fill::kZeroWeights, 0);
    check(Fill::kAllNegative, 0);
    check(Fill::kNegZeroGrad, 0);
    for (int64_t q = 0; q < plane; ++q) {
      const int64_t ic = q % s.in_ch;
      const int64_t n = q % batch;
      check(Fill::kNaNInput, (n * s.in_ch + ic) * plane + q);
    }
    if (batch == 1 || batch == 3 || batch == 16) {
      for (int64_t oc = 0; oc < s.out_ch; ++oc) check(Fill::kNegZeroLane, oc);
      for (int64_t q = 0; q < plane; ++q) {
        const int64_t ic = q % s.in_ch;
        const int64_t n = q % batch;
        check(Fill::kInfInput, (n * s.in_ch + ic) * plane + q);
      }
      check(Fill::kAlternating, 0);
      check(Fill::kNegZeroLive, 0);
    }
    for (int64_t t = 0; t < 9; ++t) {
      const int64_t oc = t % s.out_ch;
      check(Fill::kNaNWeight, oc * k + t);
      check(Fill::kInfWeight, oc * k + t);
    }
  }
}

// Widths 8 and 4 run fused on AVX-512F hosts: the zoo's two blocks, plus
// channel counts that leave a partial register block (5 at 8x8) and a
// partial pool step (6 at 4x4).
const BlockShape kFused[] = {
    {1, 6, 8, 8},
    {6, 12, 4, 4},
    {2, 5, 8, 8},
    {3, 6, 4, 4},
};

// Width 6, and width 8 on a 6-row plane: always the layers in order.
const BlockShape kUnfused[] = {
    {1, 4, 6, 6},
    {2, 3, 6, 8},
};

TEST(ConvBlockTest, FusedShapesMatchTripleBitwise) {
  for (const BlockShape& s : kFused) {
    CheckAllFills(s, internal::ConvBlockUsesAvx512());
  }
}

TEST(ConvBlockTest, UnfusedShapesMatchTripleBitwise) {
  for (const BlockShape& s : kUnfused) CheckAllFills(s, false);
}

// ReLU passes a −0.0 conv output unchanged and a NaN through; the pool
// keeps the first maximum. A window whose maximum is <= 0 passes no
// gradient, so its whole 2x2 block of the conv-output gradient is +0.0 and
// the bias gradient stays at its starting value.
TEST(ConvBlockTest, DeadWindowsPassNoGradient) {
  RngStream init(uint64_t{7});
  ConvBlock block(1, 1, 4, 4, 3, 1, &init);
  const std::vector<Parameter*> params = block.Parameters();
  params[0]->value = Tensor({1, 9});  // zero weights: output = bias
  params[1]->value = Tensor({1}, {-1.0f});
  Workspace ws;
  const Tensor x({1, 16});  // cached by reference until Backward
  const Tensor& y = block.Forward(x, &ws);
  for (int64_t i = 0; i < y.size(); ++i) {
    EXPECT_EQ(y[i], 0.0f) << i;
    EXPECT_FALSE(std::signbit(y[i])) << i;
  }
  block.ZeroGrad();
  block.Backward(Tensor({1, 4}, {1.0f, 2.0f, 3.0f, 4.0f}), &ws);
  EXPECT_EQ(params[1]->grad[0], 0.0f);
  for (int64_t i = 0; i < 9; ++i) EXPECT_EQ(params[0]->grad[i], 0.0f) << i;
}

TEST(ConvBlockTest, ParametersAreTheConvs) {
  RngStream a(uint64_t{11});
  RngStream b(uint64_t{11});
  ConvBlock block(2, 4, 8, 8, 3, 1, &a);
  Conv2d conv(2, 4, 8, 8, 3, 1, &b);
  const std::vector<Parameter*> bp = block.Parameters();
  const std::vector<Parameter*> cp = conv.Parameters();
  ASSERT_EQ(bp.size(), cp.size());
  for (size_t i = 0; i < bp.size(); ++i) {
    EXPECT_EQ(bp[i]->name, cp[i]->name);
    EXPECT_TRUE(BitwiseEqual(bp[i]->value, cp[i]->value)) << i;
  }
  EXPECT_EQ(block.OutputFeatures(2 * 64), 4 * 16);
}

}  // namespace
}  // namespace fats
