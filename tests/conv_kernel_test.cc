// Conv2d kernel contract (nn/conv2d.h, DESIGN.md §7.2).
//
// A layer's Forward, BackwardParameters and Backward (im2col + the pinned
// GEMMs, on every host) must reproduce, bit for bit, the column-matrix
// formulation spelled out here with the canonical ReferenceSgemm{NN,NT,TN}
// loops: per sample,
// y = W @ col + b, dW += gy @ colᵀ, db += the striped row sums of gy, and
// dcol = Wᵀ @ gy scattered back onto the input gradient.

#include "nn/conv2d.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "rng/rng_stream.h"
#include "tensor/gemm.h"

namespace fats {
namespace {

struct ConvShape {
  int64_t in_ch, out_ch, height, width, kernel, pad;
};

std::string Describe(const ConvShape& s, int64_t batch) {
  return "Conv2d(" + std::to_string(s.in_ch) + ", " +
         std::to_string(s.out_ch) + ", " + std::to_string(s.height) + ", " +
         std::to_string(s.width) + ", k " + std::to_string(s.kernel) +
         ", pad " + std::to_string(s.pad) + ") batch " +
         std::to_string(batch);
}

struct Data {
  std::vector<float> x, w, b, gy, wgrad0, bgrad0;
};

struct Oracle {
  std::vector<float> y, wgrad, bgrad, gx;
};

// The column matrix of one sample: row (ic, kh, kw), column p = oh·ow + ow.
std::vector<float> Im2Col(const ConvShape& s, const float* x) {
  const int64_t oh_n = s.height + 2 * s.pad - s.kernel + 1;
  const int64_t ow_n = s.width + 2 * s.pad - s.kernel + 1;
  std::vector<float> col;
  for (int64_t ic = 0; ic < s.in_ch; ++ic) {
    for (int64_t kh = 0; kh < s.kernel; ++kh) {
      for (int64_t kw = 0; kw < s.kernel; ++kw) {
        for (int64_t oh = 0; oh < oh_n; ++oh) {
          for (int64_t ow = 0; ow < ow_n; ++ow) {
            const int64_t ih = oh + kh - s.pad;
            const int64_t iw = ow + kw - s.pad;
            const bool inside =
                ih >= 0 && ih < s.height && iw >= 0 && iw < s.width;
            col.push_back(inside ? x[(ic * s.height + ih) * s.width + iw]
                                 : 0.0f);
          }
        }
      }
    }
  }
  return col;
}

Oracle Reference(const ConvShape& s, int64_t batch, const Data& d) {
  const int64_t oh_n = s.height + 2 * s.pad - s.kernel + 1;
  const int64_t ow_n = s.width + 2 * s.pad - s.kernel + 1;
  const int64_t k = s.in_ch * s.kernel * s.kernel;
  const int64_t p_n = oh_n * ow_n;
  const int64_t in_n = s.in_ch * s.height * s.width;
  Oracle o;
  o.y.assign(static_cast<size_t>(batch * s.out_ch * p_n), 0.0f);
  o.wgrad = d.wgrad0;
  o.bgrad = d.bgrad0;
  o.gx.assign(static_cast<size_t>(batch * in_n), 0.0f);
  std::vector<float> dcol(static_cast<size_t>(k * p_n));
  for (int64_t n = 0; n < batch; ++n) {
    const std::vector<float> col = Im2Col(s, d.x.data() + n * in_n);
    float* y = o.y.data() + n * s.out_ch * p_n;
    const float* gy = d.gy.data() + n * s.out_ch * p_n;
    gemm::ReferenceSgemmNN(s.out_ch, p_n, k, d.w.data(), k, col.data(), p_n,
                           y, p_n, /*accumulate=*/false);
    for (int64_t oc = 0; oc < s.out_ch; ++oc) {
      for (int64_t p = 0; p < p_n; ++p) y[oc * p_n + p] += d.b[oc];
      // The layer's bias sum: four stripes by p mod 4, combined pairwise,
      // then the tail.
      float stripe[4] = {0.0f, 0.0f, 0.0f, 0.0f};
      int64_t p = 0;
      for (; p + 4 <= p_n; p += 4) {
        for (int j = 0; j < 4; ++j) stripe[j] += gy[oc * p_n + p + j];
      }
      float sum = (stripe[0] + stripe[1]) + (stripe[2] + stripe[3]);
      for (; p < p_n; ++p) sum += gy[oc * p_n + p];
      o.bgrad[oc] += sum;
    }
    gemm::ReferenceSgemmNT(s.out_ch, k, p_n, gy, p_n, col.data(), p_n,
                           o.wgrad.data(), k, /*accumulate=*/true);
    gemm::ReferenceSgemmTN(k, p_n, s.out_ch, d.w.data(), k, gy, p_n,
                           dcol.data(), p_n, /*accumulate=*/false);
    float* gx = o.gx.data() + n * in_n;
    const float* src = dcol.data();
    for (int64_t ic = 0; ic < s.in_ch; ++ic) {
      for (int64_t kh = 0; kh < s.kernel; ++kh) {
        for (int64_t kw = 0; kw < s.kernel; ++kw) {
          for (int64_t oh = 0; oh < oh_n; ++oh) {
            for (int64_t ow = 0; ow < ow_n; ++ow, ++src) {
              const int64_t ih = oh + kh - s.pad;
              const int64_t iw = ow + kw - s.pad;
              if (ih >= 0 && ih < s.height && iw >= 0 && iw < s.width) {
                gx[(ic * s.height + ih) * s.width + iw] += *src;
              }
            }
          }
        }
      }
    }
  }
  return o;
}

bool BitwiseEqual(const float* a, const std::vector<float>& b) {
  return std::memcmp(a, b.data(), b.size() * sizeof(float)) == 0;
}

// The x86 default NaN (sign bit set), the one that Inf·0 and Inf − Inf
// produce. When both operands of an add are NaN, x86 returns the first
// one's payload, and the scalar reference's operand order is the
// compiler's choice; with one NaN pattern everywhere every NaN has the same
// bits whatever the order.
const float kNaN = std::bit_cast<float>(uint32_t{0xFFC00000u});
constexpr float kInf = std::numeric_limits<float>::infinity();

enum class Fill {
  kGaussian,     // Gaussian, with +0.0 and −0.0 among the inputs
  kSignedZero,   // inputs only +0.0 and −0.0
  kNaNInput,     // one NaN input, position set by the case
  kNaNWeight,    // one NaN weight, tap set by the case
  kInfWeight,    // one +Inf and one −Inf weight, taps set by the case
};

std::vector<float> Gaussian(int64_t n, RngStream* rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& f : v) f = static_cast<float>(rng->NextGaussian());
  return v;
}

Data MakeData(const ConvShape& s, int64_t batch, Fill fill, int64_t where,
              RngStream* rng) {
  const int64_t oh_n = s.height + 2 * s.pad - s.kernel + 1;
  const int64_t ow_n = s.width + 2 * s.pad - s.kernel + 1;
  const int64_t k = s.in_ch * s.kernel * s.kernel;
  Data d;
  d.x = Gaussian(batch * s.in_ch * s.height * s.width, rng);
  for (size_t i = 0; i < d.x.size(); ++i) {
    if (fill == Fill::kSignedZero || i % 7 == 3) {
      d.x[i] = rng->UniformInt(2) == 0 ? 0.0f : -0.0f;
    }
  }
  d.w = Gaussian(s.out_ch * k, rng);
  d.b = Gaussian(s.out_ch, rng);
  d.gy = Gaussian(batch * s.out_ch * oh_n * ow_n, rng);
  d.wgrad0 = Gaussian(s.out_ch * k, rng);
  d.bgrad0 = Gaussian(s.out_ch, rng);
  switch (fill) {
    case Fill::kNaNInput:
      d.x[static_cast<size_t>(where % static_cast<int64_t>(d.x.size()))] =
          kNaN;
      break;
    case Fill::kNaNWeight:
      d.w[static_cast<size_t>(where % static_cast<int64_t>(d.w.size()))] =
          kNaN;
      break;
    case Fill::kInfWeight:
      d.w[static_cast<size_t>(where % static_cast<int64_t>(d.w.size()))] =
          kInf;
      d.w[static_cast<size_t>((where + k + 4) %
                              static_cast<int64_t>(d.w.size()))] = -kInf;
      break;
    default:
      break;
  }
  return d;
}

// Runs Forward, BackwardParameters and Backward on a fresh layer and checks
// each against the oracle bitwise. Returns the number of workspace slots
// Forward creates: the output and the column matrix.
size_t CheckLayer(const ConvShape& s, int64_t batch, const Data& d,
                  const std::string& where) {
  RngStream init(uint64_t{7});
  Conv2d conv(s.in_ch, s.out_ch, s.height, s.width, s.kernel, s.pad, &init);
  std::vector<Parameter*> params = conv.Parameters();  // weight, bias
  params[0]->value = Tensor(params[0]->value.shape(), d.w);
  params[1]->value = Tensor(params[1]->value.shape(), d.b);
  const Oracle want = Reference(s, batch, d);
  const Tensor x({batch, s.in_ch * s.height * s.width}, d.x);
  const Tensor gy({batch, static_cast<int64_t>(d.gy.size()) / batch}, d.gy);
  auto reset_grads = [&] {
    params[0]->grad = Tensor(params[0]->grad.shape(), d.wgrad0);
    params[1]->grad = Tensor(params[1]->grad.shape(), d.bgrad0);
  };

  Workspace ws;
  // A first pass creates the output slot; poisoning it shows any position
  // the second pass fails to write.
  const_cast<Tensor&>(conv.Forward(x, &ws)).Fill(7.0f);
  const size_t slots = ws.slot_count();
  const Tensor& y = conv.Forward(x, &ws);
  EXPECT_TRUE(BitwiseEqual(y.data(), want.y)) << "Forward, " << where;

  reset_grads();
  conv.BackwardParameters(gy, &ws);
  EXPECT_TRUE(BitwiseEqual(params[0]->grad.data(), want.wgrad))
      << "BackwardParameters dW, " << where;
  EXPECT_TRUE(BitwiseEqual(params[1]->grad.data(), want.bgrad))
      << "BackwardParameters db, " << where;

  reset_grads();
  conv.Forward(x, &ws);
  const Tensor& gx = conv.Backward(gy, &ws);
  EXPECT_TRUE(BitwiseEqual(params[0]->grad.data(), want.wgrad))
      << "Backward dW, " << where;
  EXPECT_TRUE(BitwiseEqual(params[1]->grad.data(), want.bgrad))
      << "Backward db, " << where;
  EXPECT_TRUE(BitwiseEqual(gx.data(), want.gx)) << "Backward dx, " << where;
  return slots;
}

// Every fill; a NaN input at each position of a sample plane (and so next
// to every edge of the halo), cycling through channels and samples; a
// non-finite weight at each tap of the first input channel.
void CheckAllFills(const ConvShape& s, int64_t batch) {
  RngStream rng(uint64_t{2026});
  const int64_t plane = s.height * s.width;
  const int64_t taps = s.kernel * s.kernel;
  const int64_t k = s.in_ch * taps;
  auto check = [&](Fill fill, int64_t where) {
    const Data d = MakeData(s, batch, fill, where, &rng);
    const std::string desc = Describe(s, batch) + " fill " +
                             std::to_string(static_cast<int>(fill)) +
                             " at " + std::to_string(where);
    EXPECT_EQ(CheckLayer(s, batch, d, desc), 2u) << desc;
  };
  check(Fill::kGaussian, 0);
  check(Fill::kSignedZero, 0);
  for (int64_t q = 0; q < plane; ++q) {
    const int64_t ic = q % s.in_ch;
    const int64_t n = q % batch;
    check(Fill::kNaNInput, (n * s.in_ch + ic) * plane + q);
  }
  for (int64_t t = 0; t < taps; ++t) {
    const int64_t oc = t % s.out_ch;
    check(Fill::kNaNWeight, oc * k + t);
    check(Fill::kInfWeight, oc * k + t);
  }
}

const int64_t kBatches[] = {1, 3, 16};

// 3x3, padding 1, widths 8 and 4: the zoo's two convs, a 5x8 plane (40
// outputs, not a multiple of 16) and a 3x4 plane (fewer than 16 outputs).
const ConvShape kEligible[] = {
    {1, 6, 8, 8, 3, 1},
    {6, 12, 4, 4, 3, 1},
    {2, 3, 5, 8, 3, 1},
    {3, 2, 3, 4, 3, 1},
};

// Width 5, a 5x5 kernel, padding 0 and width 16: shapes outside the zoo's
// 3x3 convs, on the same im2col + GEMM path.
const ConvShape kIneligible[] = {
    {2, 3, 5, 5, 3, 1},
    {1, 4, 8, 8, 5, 2},
    {2, 3, 6, 8, 3, 0},
    {1, 6, 4, 16, 3, 1},
};

TEST(Conv2dKernelTest, EligibleShapesMatchReferenceBitwise) {
  for (const ConvShape& s : kEligible) {
    for (int64_t batch : kBatches) CheckAllFills(s, batch);
  }
}

TEST(Conv2dKernelTest, IneligibleShapesTakeGenericPathAndMatch) {
  for (const ConvShape& s : kIneligible) {
    for (int64_t batch : kBatches) CheckAllFills(s, batch);
  }
}

// A halo tap adds fl(w · +0.0), so an Inf weight turns exactly the outputs
// whose tap falls in the halo into NaN (Inf · 0) and the rest into Inf.
TEST(Conv2dKernelTest, HaloTapsAddZeroProducts) {
  RngStream init(uint64_t{7});
  Conv2d conv(1, 1, 4, 4, 3, 1, &init);
  std::vector<Parameter*> params = conv.Parameters();
  params[0]->value = Tensor({1, 9});
  params[0]->value[0] = kInf;  // tap (0, 0): the halo for row 0 and column 0
  params[1]->value = Tensor({1});
  Tensor x({1, 16});
  for (int64_t i = 0; i < 16; ++i) x[i] = 1.0f;
  Workspace ws;
  const Tensor& y = conv.Forward(x, &ws);
  for (int64_t p = 0; p < 16; ++p) {
    if (p / 4 == 0 || p % 4 == 0) {
      EXPECT_TRUE(std::isnan(y[p])) << p;
    } else {
      EXPECT_EQ(y[p], kInf) << p;
    }
  }
}

}  // namespace
}  // namespace fats
