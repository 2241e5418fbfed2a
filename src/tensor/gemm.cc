#include "tensor/gemm.h"

#include <algorithm>
#include <vector>

#include "util/logging.h"
#include "util/with_rows.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FATS_GEMM_X86 1
#include <immintrin.h>
#endif

namespace fats {
namespace gemm {
namespace {

// Register micro-tile: MR rows of A by NR columns of B. NR is two AVX2
// vectors wide; the generic micro-kernel uses the same geometry so packed
// panel layouts are identical on every path.
constexpr int64_t kMr = 6;
constexpr int64_t kNr = 16;
// Cache blocks (multiples of the micro-tile). Small relative to typical
// L1/L2 so a packed B panel and an A block stay resident.
constexpr int64_t kMc = 96;
constexpr int64_t kKc = 256;
constexpr int64_t kNc = 1024;

inline int64_t RoundUp(int64_t v, int64_t to) { return (v + to - 1) / to * to; }

// Packs the (mc x kc) block of A starting at logical row `ic`, column `pc`
// into kMr-row panels: element (r, kk) of panel p lands at
// ap[(p * kc + kk) * kMr + r]. Rows past mc are zero-padded; their products
// land in micro-tile lanes that are never stored. `trans` reads A stored as
// (k x m), i.e. logical A[i][k] = a[k * lda + i].
void PackA(const float* a, int64_t lda, bool trans, int64_t ic, int64_t pc,
           int64_t mc, int64_t kc, float* ap) {
  for (int64_t p = 0; p < mc; p += kMr) {
    const int64_t mr = std::min(kMr, mc - p);
    for (int64_t kk = 0; kk < kc; ++kk) {
      for (int64_t r = 0; r < mr; ++r) {
        const int64_t row = ic + p + r;
        const int64_t col = pc + kk;
        *ap++ = trans ? a[col * lda + row] : a[row * lda + col];
      }
      for (int64_t r = mr; r < kMr; ++r) *ap++ = 0.0f;
    }
  }
}

// Packs the (kc x nc) block of B starting at logical row `pc`, column `jc`
// into kNr-column panels: element (kk, c) of panel q lands at
// bp[(q * kc + kk) * kNr + c]. Columns past nc are zero-padded (lanes never
// stored). `trans` reads B stored as (n x k), i.e. logical
// B[k][j] = b[j * ldb + k].
void PackB(const float* b, int64_t ldb, bool trans, int64_t pc, int64_t jc,
           int64_t kc, int64_t nc, float* bp) {
  for (int64_t q = 0; q < nc; q += kNr) {
    const int64_t nr = std::min(kNr, nc - q);
    for (int64_t kk = 0; kk < kc; ++kk) {
      for (int64_t c = 0; c < nr; ++c) {
        const int64_t row = pc + kk;
        const int64_t col = jc + q + c;
        *bp++ = trans ? b[col * ldb + row] : b[row * ldb + col];
      }
      for (int64_t c = nr; c < kNr; ++c) *bp++ = 0.0f;
    }
  }
}

// Generic micro-kernel: a full kMr x kNr accumulator block in locals. The
// inner c-loop carries no dependence, so the compiler vectorizes across
// output columns — which never reorders any per-element accumulation chain.
// `first` starts accumulators at +0.0f (the canonical chain head); otherwise
// they continue from C. Only the mr x nr live corner is loaded/stored; the
// padded lanes accumulate pack-padding products that are discarded.
void MicroKernelGeneric(int64_t kc, const float* ap, const float* bp, float* c,
                        int64_t ldc, int64_t mr, int64_t nr, bool first) {
  float acc[kMr][kNr];
  for (int64_t r = 0; r < kMr; ++r) {
    for (int64_t j = 0; j < kNr; ++j) acc[r][j] = 0.0f;
  }
  if (!first) {
    for (int64_t r = 0; r < mr; ++r) {
      for (int64_t j = 0; j < nr; ++j) acc[r][j] = c[r * ldc + j];
    }
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* arow = ap + kk * kMr;
    const float* brow = bp + kk * kNr;
    for (int64_t r = 0; r < kMr; ++r) {
      const float av = arow[r];
      for (int64_t j = 0; j < kNr; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (int64_t r = 0; r < mr; ++r) {
    for (int64_t j = 0; j < nr; ++j) c[r * ldc + j] = acc[r][j];
  }
}

#if defined(FATS_GEMM_X86)
// AVX2 micro-kernel for full kMr x kNr tiles: 12 accumulator registers, two
// B vectors, one A broadcast. Deliberately mul+add (no FMA): FMA's single
// rounding would diverge from the reference chain. Edge tiles fall back to
// the generic kernel — same chain, same bits.
__attribute__((target("avx2"))) void MicroKernelAvx2Full(int64_t kc,
                                                         const float* ap,
                                                         const float* bp,
                                                         float* c, int64_t ldc,
                                                         bool first) {
  __m256 acc[kMr][2];
  if (first) {
    for (int64_t r = 0; r < kMr; ++r) {
      acc[r][0] = _mm256_setzero_ps();
      acc[r][1] = _mm256_setzero_ps();
    }
  } else {
    for (int64_t r = 0; r < kMr; ++r) {
      acc[r][0] = _mm256_loadu_ps(c + r * ldc);
      acc[r][1] = _mm256_loadu_ps(c + r * ldc + 8);
    }
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* arow = ap + kk * kMr;
    const __m256 b0 = _mm256_loadu_ps(bp + kk * kNr);
    const __m256 b1 = _mm256_loadu_ps(bp + kk * kNr + 8);
    for (int64_t r = 0; r < kMr; ++r) {
      const __m256 av = _mm256_set1_ps(arow[r]);
      acc[r][0] = _mm256_add_ps(acc[r][0], _mm256_mul_ps(av, b0));
      acc[r][1] = _mm256_add_ps(acc[r][1], _mm256_mul_ps(av, b1));
    }
  }
  for (int64_t r = 0; r < kMr; ++r) {
    _mm256_storeu_ps(c + r * ldc, acc[r][0]);
    _mm256_storeu_ps(c + r * ldc + 8, acc[r][1]);
  }
}

// AVX-512 variant of the full-tile kernel: kNr == 16 is exactly one zmm
// register, so each of the kMr rows keeps a single 16-lane accumulator and
// each k step issues one mul + one add per row (half the FP uops of the
// AVX2 version). The lane layout is identical — lane j of acc[r] is the
// C[r][j] chain, products rounded by _mm512_mul_ps and added in ascending-k
// order — so the result is bit-identical to the generic and AVX2 paths.
__attribute__((target("avx512f"))) void MicroKernelAvx512Full(
    int64_t kc, const float* ap, const float* bp, float* c, int64_t ldc,
    bool first) {
  static_assert(kNr == 16, "one zmm register per row");
  __m512 acc[kMr];
  if (first) {
    for (int64_t r = 0; r < kMr; ++r) {
      acc[r] = _mm512_setzero_ps();
    }
  } else {
    for (int64_t r = 0; r < kMr; ++r) {
      acc[r] = _mm512_loadu_ps(c + r * ldc);
    }
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* arow = ap + kk * kMr;
    const __m512 b0 = _mm512_loadu_ps(bp + kk * kNr);
    for (int64_t r = 0; r < kMr; ++r) {
      const __m512 av = _mm512_set1_ps(arow[r]);
      acc[r] = _mm512_add_ps(acc[r], _mm512_mul_ps(av, b0));
    }
  }
  for (int64_t r = 0; r < kMr; ++r) {
    _mm512_storeu_ps(c + r * ldc, acc[r]);
  }
}

// Edge-tile variant: kRows = mr <= kMr rows, any nr <= kNr. B panels are
// zero-padded to kNr so the full 16-lane load is safe and the padded lanes
// just compute zeros; C is touched only through an nr-wide mask, so lanes
// past the tile are neither read (the maskz load zero-fills them) nor
// written. Active lanes run the identical mul-then-add chain, so edge tiles
// stay bit-identical to the generic path too.
template <int kRows>
__attribute__((target("avx512f"))) void MicroKernelAvx512Edge(
    int64_t kc, const float* ap, const float* bp, float* c, int64_t ldc,
    int64_t nr, bool first) {
  const __mmask16 mask = static_cast<__mmask16>((1u << nr) - 1u);
  __m512 acc[kRows];
  for (int r = 0; r < kRows; ++r) {
    acc[r] = first ? _mm512_setzero_ps()
                   : _mm512_maskz_loadu_ps(mask, c + r * ldc);
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* arow = ap + kk * kMr;
    const __m512 b0 = _mm512_loadu_ps(bp + kk * kNr);
    for (int r = 0; r < kRows; ++r) {
      const __m512 av = _mm512_set1_ps(arow[r]);
      acc[r] = _mm512_add_ps(acc[r], _mm512_mul_ps(av, b0));
    }
  }
  for (int r = 0; r < kRows; ++r) {
    _mm512_mask_storeu_ps(c + r * ldc, mask, acc[r]);
  }
}

// AVX2 edge variant for short row tiles (kRows = mr < kMr) at full panel
// width. Narrow-nr edges fall back to the generic kernel on AVX2-only hosts.
template <int kRows>
__attribute__((target("avx2"))) void MicroKernelAvx2PartialM(
    int64_t kc, const float* ap, const float* bp, float* c, int64_t ldc,
    bool first) {
  __m256 acc[kRows][2];
  for (int r = 0; r < kRows; ++r) {
    if (first) {
      acc[r][0] = _mm256_setzero_ps();
      acc[r][1] = _mm256_setzero_ps();
    } else {
      acc[r][0] = _mm256_loadu_ps(c + r * ldc);
      acc[r][1] = _mm256_loadu_ps(c + r * ldc + 8);
    }
  }
  for (int64_t kk = 0; kk < kc; ++kk) {
    const float* arow = ap + kk * kMr;
    const __m256 b0 = _mm256_loadu_ps(bp + kk * kNr);
    const __m256 b1 = _mm256_loadu_ps(bp + kk * kNr + 8);
    for (int r = 0; r < kRows; ++r) {
      const __m256 av = _mm256_set1_ps(arow[r]);
      acc[r][0] = _mm256_add_ps(acc[r][0], _mm256_mul_ps(av, b0));
      acc[r][1] = _mm256_add_ps(acc[r][1], _mm256_mul_ps(av, b1));
    }
  }
  for (int r = 0; r < kRows; ++r) {
    _mm256_storeu_ps(c + r * ldc, acc[r][0]);
    _mm256_storeu_ps(c + r * ldc + 8, acc[r][1]);
  }
}

bool DetectAvx2() { return __builtin_cpu_supports("avx2") != 0; }
bool DetectAvx512() { return __builtin_cpu_supports("avx512f") != 0; }
#else
bool DetectAvx2() { return false; }
bool DetectAvx512() { return false; }
#endif

// Resolved once at static-init time; a pure function of the host CPU, never
// of the data, so dispatch cannot introduce nondeterminism.
const bool kUseAvx2 = DetectAvx2();
const bool kUseAvx512 = DetectAvx512();

inline void MicroKernel(int64_t kc, const float* ap, const float* bp, float* c,
                        int64_t ldc, int64_t mr, int64_t nr, bool first) {
#if defined(FATS_GEMM_X86)
  if (kUseAvx512) {
    if (mr == kMr && nr == kNr) {
      MicroKernelAvx512Full(kc, ap, bp, c, ldc, first);
    } else {
      WithRows<kMr>(mr, [&](auto rows) {
        MicroKernelAvx512Edge<decltype(rows)::value>(kc, ap, bp, c, ldc, nr,
                                                     first);
      });
    }
    return;
  }
  if (kUseAvx2 && nr == kNr) {
    if (mr == kMr) {
      MicroKernelAvx2Full(kc, ap, bp, c, ldc, first);
    } else {
      WithRows<kMr>(mr, [&](auto rows) {
        MicroKernelAvx2PartialM<decltype(rows)::value>(kc, ap, bp, c, ldc,
                                                       first);
      });
    }
    return;
  }
#endif
  MicroKernelGeneric(kc, ap, bp, c, ldc, mr, nr, first);
}

// Macro-kernel over one (ic, mc) row band of a (jc, pc) cache block: packs
// the A band into per-thread scratch and runs the micro-tile loops. Writes
// only C rows [ic, ic + mc).
void MacroKernelRowBand(int64_t ic, int64_t mc, int64_t jc, int64_t nc,
                        int64_t pc, int64_t kc, const float* a, int64_t lda,
                        bool a_trans, const float* bp_block, float* c,
                        int64_t ldc, bool first) {
  // Per-thread so concurrent callers never share, reused across calls so
  // steady-state GEMMs allocate nothing (after each thread's first call).
  thread_local std::vector<float> ap_buf;
  ap_buf.resize(static_cast<size_t>(RoundUp(mc, kMr) * kc));
  PackA(a, lda, a_trans, ic, pc, mc, kc, ap_buf.data());
  for (int64_t jr = 0; jr < nc; jr += kNr) {
    const int64_t nr = std::min(kNr, nc - jr);
    const float* bp = bp_block + (jr / kNr) * kc * kNr;
    for (int64_t ir = 0; ir < mc; ir += kMr) {
      const int64_t mr = std::min(kMr, mc - ir);
      const float* ap = ap_buf.data() + (ir / kMr) * kc * kMr;
      float* cp = c + (ic + ir) * ldc + (jc + jr);
      MicroKernel(kc, ap, bp, cp, ldc, mr, nr, first);
    }
  }
}

// Shared driver. a_trans/b_trans select the TN/NT storage interpretations;
// packing absorbs the transpose, so one macro-kernel serves all variants.
void SgemmDriver(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
                 bool a_trans, const float* b, int64_t ldb, bool b_trans,
                 float* c, int64_t ldc, bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    if (!accumulate) {
      for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) c[i * ldc + j] = 0.0f;
      }
    }
    return;
  }
  thread_local std::vector<float> bp_buf;
  for (int64_t jc = 0; jc < n; jc += kNc) {
    const int64_t nc = std::min(kNc, n - jc);
    for (int64_t pc = 0; pc < k; pc += kKc) {
      const int64_t kc = std::min(kKc, k - pc);
      bp_buf.resize(static_cast<size_t>(RoundUp(nc, kNr) * kc));
      PackB(b, ldb, b_trans, pc, jc, kc, nc, bp_buf.data());
      // The chain head: the first k-block starts accumulators at +0.0f
      // unless the caller asked to continue from C.
      const bool first = (pc == 0) && !accumulate;
      for (int64_t ic = 0; ic < m; ic += kMc) {
        MacroKernelRowBand(ic, std::min(kMc, m - ic), jc, nc, pc, kc, a, lda,
                           a_trans, bp_buf.data(), c, ldc, first);
      }
    }
  }
}

// --- Small-matrix fast path ------------------------------------------------
//
// Packing copies O(m*k + k*n) floats before the first multiply; for the tiny
// GEMMs that dominate a small-model training step (im2col panels with
// n = out_channels, batch-sized Linear calls, per-timestep LSTM gates) that
// overhead rivals the flop count itself. Below this m*n*k threshold a direct
// kernel over the unpacked operands wins. It performs the exact contract
// chain — one accumulator per element, ascending k, products rounded
// individually, SIMD lanes spanning output columns only — so it is
// bit-identical to both the blocked path and the reference loops.
constexpr int64_t kSmallGemmFlopLimit = 1 << 15;

#if defined(FATS_GEMM_X86)
// One kRows x n row block of SmallGemmAvx512 (a compile-time row count, so
// the accumulators stay in registers).
template <int kRows>
__attribute__((target("avx512f"))) void SmallGemmRowBlockAvx512(
    int64_t n, int64_t k, const float* a, int64_t lda, bool a_trans,
    const float* b, int64_t ldb, float* c, int64_t ldc, bool accumulate) {
  for (int64_t j0 = 0; j0 < n; j0 += 16) {
    const int64_t cols = std::min<int64_t>(16, n - j0);
    const __mmask16 mask =
        static_cast<__mmask16>(cols == 16 ? 0xFFFFu : (1u << cols) - 1u);
    __m512 acc[kRows];
    for (int r = 0; r < kRows; ++r) {
      acc[r] = accumulate ? _mm512_maskz_loadu_ps(mask, c + r * ldc + j0)
                          : _mm512_setzero_ps();
    }
    for (int64_t kk = 0; kk < k; ++kk) {
      const __m512 bv = _mm512_maskz_loadu_ps(mask, b + kk * ldb + j0);
      for (int r = 0; r < kRows; ++r) {
        const float av = a_trans ? a[kk * lda + r] : a[r * lda + kk];
        acc[r] = _mm512_add_ps(acc[r], _mm512_mul_ps(_mm512_set1_ps(av), bv));
      }
    }
    for (int r = 0; r < kRows; ++r) {
      _mm512_mask_storeu_ps(c + r * ldc + j0, mask, acc[r]);
    }
  }
}

// C (m x n, row stride ldc) = [C or 0] + op(A) @ B, with B addressed as
// (k x n) rows of stride ldb and A read as a[i*lda+k] (a_trans=false) or
// a[k*lda+i] (a_trans=true). Register-blocks kMr rows x 16 columns directly
// from the source operands; masked loads/stores keep column tails inside
// the buffers, and masked-off lanes are never written.
__attribute__((target("avx512f"))) void SmallGemmAvx512(
    int64_t m, int64_t n, int64_t k, const float* a, int64_t lda, bool a_trans,
    const float* b, int64_t ldb, float* c, int64_t ldc, bool accumulate) {
  for (int64_t i0 = 0; i0 < m; i0 += kMr) {
    const float* ai = a_trans ? a + i0 : a + i0 * lda;
    float* ci = c + i0 * ldc;
    WithRows<kMr>(m - i0, [&](auto rows) {
      SmallGemmRowBlockAvx512<decltype(rows)::value>(
          n, k, ai, lda, a_trans, b, ldb, ci, ldc, accumulate);
    });
  }
}
#endif  // FATS_GEMM_X86

// k == 0 (pure zero/keep of C) stays on the driver, which handles it without
// touching A/B. Hosts without AVX-512 also stay on the blocked path, so the
// fast path never changes behaviour there.
inline bool SmallGemmEligible(int64_t m, int64_t n, int64_t k) {
#if defined(FATS_GEMM_X86)
  return kUseAvx512 && m > 0 && n > 0 && k > 0 &&
         m * n * k <= kSmallGemmFlopLimit;
#else
  (void)m;
  (void)n;
  (void)k;
  return false;
#endif
}

}  // namespace

void SgemmNN(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
             const float* b, int64_t ldb, float* c, int64_t ldc,
             bool accumulate) {
#if defined(FATS_GEMM_X86)
  if (SmallGemmEligible(m, n, k)) {
    SmallGemmAvx512(m, n, k, a, lda, /*a_trans=*/false, b, ldb, c, ldc,
                    accumulate);
    return;
  }
#endif
  SgemmDriver(m, n, k, a, lda, /*a_trans=*/false, b, ldb, /*b_trans=*/false,
              c, ldc, accumulate);
}

void SgemmNT(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
             const float* b, int64_t ldb, float* c, int64_t ldc,
             bool accumulate) {
#if defined(FATS_GEMM_X86)
  if (SmallGemmEligible(m, n, k)) {
    // B is stored (n x k); transpose it into per-thread scratch so the
    // kernel streams contiguous rows. A copy, not an arithmetic change:
    // the accumulation chain is untouched.
    thread_local std::vector<float> bt_buf;
    bt_buf.resize(static_cast<size_t>(k * n));
    for (int64_t j = 0; j < n; ++j) {
      for (int64_t kk = 0; kk < k; ++kk) {
        bt_buf[static_cast<size_t>(kk * n + j)] = b[j * ldb + kk];
      }
    }
    SmallGemmAvx512(m, n, k, a, lda, /*a_trans=*/false, bt_buf.data(), n, c,
                    ldc, accumulate);
    return;
  }
#endif
  SgemmDriver(m, n, k, a, lda, /*a_trans=*/false, b, ldb, /*b_trans=*/true,
              c, ldc, accumulate);
}

void SgemmTN(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
             const float* b, int64_t ldb, float* c, int64_t ldc,
             bool accumulate) {
#if defined(FATS_GEMM_X86)
  if (SmallGemmEligible(m, n, k)) {
    SmallGemmAvx512(m, n, k, a, lda, /*a_trans=*/true, b, ldb, c, ldc,
                    accumulate);
    return;
  }
#endif
  SgemmDriver(m, n, k, a, lda, /*a_trans=*/true, b, ldb, /*b_trans=*/false,
              c, ldc, accumulate);
}

void ReferenceSgemmNN(int64_t m, int64_t n, int64_t k, const float* a,
                      int64_t lda, const float* b, int64_t ldb, float* c,
                      int64_t ldc, bool accumulate) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = accumulate ? c[i * ldc + j] : 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += a[i * lda + kk] * b[kk * ldb + j];
      }
      c[i * ldc + j] = acc;
    }
  }
}

void ReferenceSgemmNT(int64_t m, int64_t n, int64_t k, const float* a,
                      int64_t lda, const float* b, int64_t ldb, float* c,
                      int64_t ldc, bool accumulate) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = accumulate ? c[i * ldc + j] : 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += a[i * lda + kk] * b[j * ldb + kk];
      }
      c[i * ldc + j] = acc;
    }
  }
}

void ReferenceSgemmTN(int64_t m, int64_t n, int64_t k, const float* a,
                      int64_t lda, const float* b, int64_t ldb, float* c,
                      int64_t ldc, bool accumulate) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = accumulate ? c[i * ldc + j] : 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += a[kk * lda + i] * b[kk * ldb + j];
      }
      c[i * ldc + j] = acc;
    }
  }
}

bool UsingAvx2Kernels() { return kUseAvx2; }
bool UsingAvx512Kernels() { return kUseAvx512; }

}  // namespace gemm
}  // namespace fats
