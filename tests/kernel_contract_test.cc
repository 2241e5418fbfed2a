// Deterministic-kernel contract tests (tensor/gemm.h, DESIGN.md §7.2).
//
// The blocked kernels are free to tile, pack, and vectorise however they
// like, but every output element must be the bitwise result of the canonical
// chain: acc starts at C[i][j] (accumulate) or 0, and the products are added
// in ascending-k order, each product and each add rounded individually.
// ReferenceSgemm{NN,NT,TN} spell that chain out as naive triple loops; these
// tests pin the blocked kernels to them bit-for-bit across shapes that cover
// all tile-edge cases (sub-tile, exact-tile, prime tails, multi-panel), both
// accumulate modes, strided destinations, and non-finite inputs.

#include "tensor/gemm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "nn/conv2d.h"
#include "rng/philox.h"
#include "rng/rng_stream.h"
#include "util/thread_pool.h"

namespace fats {
namespace {

std::vector<float> RandomVec(int64_t n, RngStream* rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) {
    x = static_cast<float>(rng->NextDouble() * 2.0 - 1.0);
  }
  return v;
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Shapes chosen to hit: tiny (single partial micro-tile), exact micro-tile
// multiples (6, 16), one past a register-block boundary, primes (no
// alignment anywhere), and a k large enough to span multiple kKc panels
// would be slow here — k=257 crosses the 256-wide k-block boundary instead.
struct Shape {
  int64_t m, n, k;
};

const Shape kShapes[] = {
    {1, 1, 1},   {2, 3, 4},    {6, 16, 8},  {7, 17, 5},   {12, 32, 16},
    {13, 37, 7}, {5, 97, 11},  {37, 5, 64}, {19, 23, 29}, {6, 16, 257},
    {97, 3, 2},  {31, 64, 33},
    // Above the small-GEMM threshold with partial row/column edge tiles, so
    // the packed/blocked path keeps full edge coverage on every host.
    {40, 50, 30}, {70, 40, 20}, {64, 23, 48},
};

TEST(KernelContract, SgemmNNBitwiseMatchesReference) {
  RngStream rng(uint64_t{101});
  for (const Shape& s : kShapes) {
    for (bool accumulate : {false, true}) {
      const std::vector<float> a = RandomVec(s.m * s.k, &rng);
      const std::vector<float> b = RandomVec(s.k * s.n, &rng);
      std::vector<float> c_ref = RandomVec(s.m * s.n, &rng);
      std::vector<float> c_blk = c_ref;
      gemm::ReferenceSgemmNN(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n,
                             c_ref.data(), s.n, accumulate);
      gemm::SgemmNN(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n, c_blk.data(),
                    s.n, accumulate);
      EXPECT_TRUE(BitwiseEqual(c_ref, c_blk))
          << "m=" << s.m << " n=" << s.n << " k=" << s.k
          << " accumulate=" << accumulate;
    }
  }
}

TEST(KernelContract, SgemmNTBitwiseMatchesReference) {
  RngStream rng(uint64_t{102});
  for (const Shape& s : kShapes) {
    for (bool accumulate : {false, true}) {
      const std::vector<float> a = RandomVec(s.m * s.k, &rng);
      const std::vector<float> b = RandomVec(s.n * s.k, &rng);  // (n x k)
      std::vector<float> c_ref = RandomVec(s.m * s.n, &rng);
      std::vector<float> c_blk = c_ref;
      gemm::ReferenceSgemmNT(s.m, s.n, s.k, a.data(), s.k, b.data(), s.k,
                             c_ref.data(), s.n, accumulate);
      gemm::SgemmNT(s.m, s.n, s.k, a.data(), s.k, b.data(), s.k, c_blk.data(),
                    s.n, accumulate);
      EXPECT_TRUE(BitwiseEqual(c_ref, c_blk))
          << "m=" << s.m << " n=" << s.n << " k=" << s.k
          << " accumulate=" << accumulate;
    }
  }
}

TEST(KernelContract, SgemmTNBitwiseMatchesReference) {
  RngStream rng(uint64_t{103});
  for (const Shape& s : kShapes) {
    for (bool accumulate : {false, true}) {
      const std::vector<float> a = RandomVec(s.k * s.m, &rng);  // (k x m)
      const std::vector<float> b = RandomVec(s.k * s.n, &rng);
      std::vector<float> c_ref = RandomVec(s.m * s.n, &rng);
      std::vector<float> c_blk = c_ref;
      gemm::ReferenceSgemmTN(s.m, s.n, s.k, a.data(), s.m, b.data(), s.n,
                             c_ref.data(), s.n, accumulate);
      gemm::SgemmTN(s.m, s.n, s.k, a.data(), s.m, b.data(), s.n, c_blk.data(),
                    s.n, accumulate);
      EXPECT_TRUE(BitwiseEqual(c_ref, c_blk))
          << "m=" << s.m << " n=" << s.n << " k=" << s.k
          << " accumulate=" << accumulate;
    }
  }
}

// Strided destination: the LSTM backward writes each step's dx directly into
// the packed (batch, seq*input_dim) gradient with ldc = seq*input_dim.
TEST(KernelContract, StridedDestinationMatchesReference) {
  RngStream rng(uint64_t{104});
  const int64_t m = 9, n = 13, k = 21, ldc = 40;
  const std::vector<float> a = RandomVec(m * k, &rng);
  const std::vector<float> b = RandomVec(k * n, &rng);
  std::vector<float> c_ref = RandomVec(m * ldc, &rng);
  std::vector<float> c_blk = c_ref;
  gemm::ReferenceSgemmNN(m, n, k, a.data(), k, b.data(), n, c_ref.data(), ldc,
                         /*accumulate=*/true);
  gemm::SgemmNN(m, n, k, a.data(), k, b.data(), n, c_blk.data(), ldc,
                /*accumulate=*/true);
  EXPECT_TRUE(BitwiseEqual(c_ref, c_blk));
  // Columns n..ldc of every row are untouched by both kernels by
  // construction of the reference; bitwise equality above already covers it.
}

// Regression for the removed data-dependent skip (`if (aik == 0) continue;`):
// a zero in A multiplied by a NaN/Inf in B must produce NaN, exactly as the
// reference chain does.  The old skip silently blocked NaN/Inf propagation,
// hiding divergence bugs that exactness tests rely on to surface.
TEST(KernelContract, ZeroTimesNaNPropagates) {
  const int64_t m = 3, n = 5, k = 4;
  std::vector<float> a(m * k, 0.0f);  // all zeros: the old skip always fired
  std::vector<float> b(k * n, 1.0f);
  b[7] = std::nanf("");
  b[11] = INFINITY;
  std::vector<float> c_ref(m * n, 0.0f);
  std::vector<float> c_blk(m * n, 0.0f);
  gemm::ReferenceSgemmNN(m, n, k, a.data(), k, b.data(), n, c_ref.data(), n,
                         false);
  gemm::SgemmNN(m, n, k, a.data(), k, b.data(), n, c_blk.data(), n, false);
  EXPECT_TRUE(BitwiseEqual(c_ref, c_blk));
  // 0 * NaN = NaN and 0 * Inf = NaN must reach the output.
  bool saw_nan = false;
  for (float x : c_blk) saw_nan |= std::isnan(x);
  EXPECT_TRUE(saw_nan) << "NaN/Inf in B was not propagated through a zero A";
}

TEST(KernelContract, NaNInAPropagates) {
  RngStream rng(uint64_t{105});
  const int64_t m = 7, n = 18, k = 12;
  std::vector<float> a = RandomVec(m * k, &rng);
  a[5] = std::nanf("");
  const std::vector<float> b = RandomVec(k * n, &rng);
  std::vector<float> c_ref(m * n, 0.0f);
  std::vector<float> c_blk(m * n, 0.0f);
  gemm::ReferenceSgemmNN(m, n, k, a.data(), k, b.data(), n, c_ref.data(), n,
                         false);
  gemm::SgemmNN(m, n, k, a.data(), k, b.data(), n, c_blk.data(), n, false);
  EXPECT_TRUE(BitwiseEqual(c_ref, c_blk));
  bool saw_nan = false;
  for (float x : c_blk) saw_nan |= std::isnan(x);
  EXPECT_TRUE(saw_nan);
}

// k == 0 zeroes (or preserves, when accumulating) the destination.
TEST(KernelContract, EmptyKDimension) {
  std::vector<float> a;
  std::vector<float> b;
  std::vector<float> c = {1.0f, 2.0f, 3.0f, 4.0f};
  gemm::SgemmNN(2, 2, 0, a.data(), 0, b.data(), 2, c.data(), 2,
                /*accumulate=*/true);
  EXPECT_EQ(c[0], 1.0f);
  EXPECT_EQ(c[3], 4.0f);
  gemm::SgemmNN(2, 2, 0, a.data(), 0, b.data(), 2, c.data(), 2,
                /*accumulate=*/false);
  for (float x : c) EXPECT_EQ(x, 0.0f);
}

// --- Concurrent callers (DESIGN.md §7) -------------------------------------
//
// FATS runs in parallel across clients, not inside a GEMM:
// ParallelClientRunner trains the sampled clients of a round on pool
// workers, and every worker calls the serial kernels on its own operands.
// The contract is that a call made on a worker, while the other workers
// make theirs, is bitwise the single-threaded call. Packing scratch is
// thread_local, so no worker sees another's buffers; each task below writes
// only its own output. Under tsan these tests also race-check that scratch.

// Both sides of the small-GEMM threshold, prime tails, and row counts that
// leave a partial macro-kernel row block.
const Shape kConcurrentShapes[] = {
    {6, 16, 8},    {13, 37, 7},   {64, 23, 48},  {128, 64, 48}, {97, 128, 33},
    {256, 16, 64}, {300, 40, 25}, {256, 256, 17}, {48, 96, 130},
};

struct ConcurrentCase {
  Shape s;
  bool accumulate;
  std::vector<float> a, b, bt, at, c0;  // bt is (n x k), at is (k x m)
};

std::vector<ConcurrentCase> MakeConcurrentCases(RngStream* rng) {
  std::vector<ConcurrentCase> cases;
  for (const Shape& s : kConcurrentShapes) {
    for (bool accumulate : {false, true}) {
      ConcurrentCase cc;
      cc.s = s;
      cc.accumulate = accumulate;
      cc.a = RandomVec(s.m * s.k, rng);
      cc.b = RandomVec(s.k * s.n, rng);
      cc.bt = RandomVec(s.n * s.k, rng);
      cc.at = RandomVec(s.k * s.m, rng);
      cc.c0 = RandomVec(s.m * s.n, rng);
      cases.push_back(std::move(cc));
    }
  }
  return cases;
}

struct VariantOutputs {
  std::vector<float> nn, nt, tn;
};

VariantOutputs RunAllVariants(const ConcurrentCase& cc) {
  const Shape& s = cc.s;
  VariantOutputs out{cc.c0, cc.c0, cc.c0};
  gemm::SgemmNN(s.m, s.n, s.k, cc.a.data(), s.k, cc.b.data(), s.n,
                out.nn.data(), s.n, cc.accumulate);
  gemm::SgemmNT(s.m, s.n, s.k, cc.a.data(), s.k, cc.bt.data(), s.k,
                out.nt.data(), s.n, cc.accumulate);
  gemm::SgemmTN(s.m, s.n, s.k, cc.at.data(), s.m, cc.b.data(), s.n,
                out.tn.data(), s.n, cc.accumulate);
  return out;
}

class ParallelKernelContract : public ::testing::TestWithParam<int64_t> {};

// One task per worker; each task walks every case, so workers sit in
// different shapes (and resize their scratch) at the same time.
TEST_P(ParallelKernelContract, AllVariantsBitwiseMatchSerial) {
  const int64_t threads = GetParam();
  ThreadPool pool(threads);
  RngStream rng(uint64_t{200} + static_cast<uint64_t>(threads));
  const std::vector<ConcurrentCase> cases = MakeConcurrentCases(&rng);
  std::vector<VariantOutputs> serial;
  for (const ConcurrentCase& cc : cases) serial.push_back(RunAllVariants(cc));

  std::vector<std::vector<VariantOutputs>> per_task(
      static_cast<size_t>(threads));
  pool.ParallelFor(threads, [&](int64_t task, int64_t /*worker*/) {
    for (const ConcurrentCase& cc : cases) {
      per_task[static_cast<size_t>(task)].push_back(RunAllVariants(cc));
    }
  });

  for (int64_t task = 0; task < threads; ++task) {
    for (size_t i = 0; i < cases.size(); ++i) {
      const Shape& s = cases[i].s;
      const VariantOutputs& got = per_task[static_cast<size_t>(task)][i];
      EXPECT_TRUE(BitwiseEqual(serial[i].nn, got.nn))
          << "NN threads=" << threads << " task=" << task << " m=" << s.m
          << " n=" << s.n << " k=" << s.k
          << " accumulate=" << cases[i].accumulate;
      EXPECT_TRUE(BitwiseEqual(serial[i].nt, got.nt))
          << "NT threads=" << threads << " task=" << task << " m=" << s.m
          << " n=" << s.n << " k=" << s.k
          << " accumulate=" << cases[i].accumulate;
      EXPECT_TRUE(BitwiseEqual(serial[i].tn, got.tn))
          << "TN threads=" << threads << " task=" << task << " m=" << s.m
          << " n=" << s.n << " k=" << s.k
          << " accumulate=" << cases[i].accumulate;
    }
  }
}

// NaN/Inf must propagate identically on every worker: concurrency must not
// introduce (or mask) any data-dependent skip.
TEST_P(ParallelKernelContract, NonFinitePropagationMatchesSerial) {
  const int64_t threads = GetParam();
  ThreadPool pool(threads);
  RngStream rng(uint64_t{300} + static_cast<uint64_t>(threads));
  const int64_t m = 128, n = 64, k = 48;  // blocked (packing) path
  std::vector<float> a = RandomVec(m * k, &rng);
  std::vector<float> b = RandomVec(k * n, &rng);
  a[5] = std::nanf("");
  a[static_cast<size_t>((m - 1) * k)] = INFINITY;  // last row block too
  b[11] = -INFINITY;
  std::vector<float> c_serial(static_cast<size_t>(m * n), 0.0f);
  gemm::SgemmNN(m, n, k, a.data(), k, b.data(), n, c_serial.data(), n, false);

  std::vector<std::vector<float>> c_par(static_cast<size_t>(threads),
                                        std::vector<float>(c_serial.size()));
  pool.ParallelFor(threads, [&](int64_t task, int64_t /*worker*/) {
    gemm::SgemmNN(m, n, k, a.data(), k, b.data(), n,
                  c_par[static_cast<size_t>(task)].data(), n, false);
  });
  for (int64_t task = 0; task < threads; ++task) {
    const std::vector<float>& c = c_par[static_cast<size_t>(task)];
    EXPECT_TRUE(BitwiseEqual(c_serial, c))
        << "threads=" << threads << " task=" << task;
    bool saw_nan = false;
    for (float x : c) saw_nan |= std::isnan(x);
    EXPECT_TRUE(saw_nan) << "task=" << task;
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelKernelContract,
                         ::testing::Values<int64_t>(1, 2, 4, 7));

// Smoke: the dispatch decision is observable.  On x86 the AVX-512 or AVX2
// micro-kernel is active; either way the bitwise tests above pin the
// result, so this just documents which path ran in the test log.
TEST(KernelContract, ReportsDispatchPath) {
  const bool avx2 = gemm::UsingAvx2Kernels();
  const bool avx512 = gemm::UsingAvx512Kernels();
  if (avx512) {
    EXPECT_TRUE(avx2);  // avx512f implies avx2 on every real CPU
  }
  // The bulk Philox and the fused conv block dispatch on the same CPU
  // feature.
  EXPECT_EQ(internal::PhiloxFillUsesAvx512(), avx512);
  EXPECT_EQ(internal::ConvBlockUsesAvx512(), avx512);
  SUCCEED() << "micro-kernel: "
            << (avx512 ? "AVX-512" : (avx2 ? "AVX2" : "generic"))
            << "; Philox bulk and fused conv block: "
            << (avx512 ? "AVX-512" : "portable");
}

}  // namespace
}  // namespace fats
