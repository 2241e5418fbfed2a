// Blocked, SIMD-friendly SGEMM kernels under a pinned deterministic contract.
//
// Every kernel in this file computes, for each output element C[i][j], the
// float chain
//
//   acc = (accumulate ? C[i][j] : 0.0f);
//   for k ascending: acc = fl(acc + fl(A[i][k] * B[k][j]));
//   C[i][j] = acc;
//
// i.e. products are rounded individually (no FMA contraction) and added in
// ascending-k order into a single accumulator per element. The blocked
// implementation tiles for cache and registers (packed A/B panels, fixed
// MR x NR micro-tiles) and vectorizes across the *n* dimension only — SIMD
// lanes hold independent output columns, so vector width never changes any
// accumulation chain. Consequently:
//
//   * results are bit-identical to the Reference* triple loops below (the
//     canonical order that defines the contract),
//   * results are independent of blocking parameters, ISA path (generic,
//     AVX2, AVX-512, or the AVX-512 small-GEMM path), the calling thread,
//     and run-to-run,
//   * NaN/Inf propagate exactly as in the reference (no data-dependent
//     skips; see DESIGN.md §7.2).
//
// The kernels are reentrant: packing scratch is thread_local, so concurrent
// calls from different threads (ParallelClientRunner workers training their
// clients) never share buffers, and steady-state calls perform no heap
// allocation.
//
// Leading dimensions (lda/ldb/ldc) are row strides of the *stored* matrix,
// so strided sub-blocks of larger tensors can be used directly.

#ifndef FATS_TENSOR_GEMM_H_
#define FATS_TENSOR_GEMM_H_

#include <cstdint>

namespace fats {
namespace gemm {

/// C (m x n) = [C if accumulate else 0] + A (m x k) @ B (k x n).
void SgemmNN(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
             const float* b, int64_t ldb, float* c, int64_t ldc,
             bool accumulate);

/// C (m x n) = [C if accumulate else 0] + A (m x k) @ B^T, B stored (n x k).
void SgemmNT(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
             const float* b, int64_t ldb, float* c, int64_t ldc,
             bool accumulate);

/// C (m x n) = [C if accumulate else 0] + A^T @ B, A stored (k x m).
void SgemmTN(int64_t m, int64_t n, int64_t k, const float* a, int64_t lda,
             const float* b, int64_t ldb, float* c, int64_t ldc,
             bool accumulate);

// Canonical-order reference kernels: straightforward i-j-k triple loops that
// *define* the deterministic contract. The blocked kernels above must match
// them bitwise (tests/kernel_contract_test.cc is the gate). They are also
// the benchmark baseline for the blocked kernels' speedup.
void ReferenceSgemmNN(int64_t m, int64_t n, int64_t k, const float* a,
                      int64_t lda, const float* b, int64_t ldb, float* c,
                      int64_t ldc, bool accumulate);
void ReferenceSgemmNT(int64_t m, int64_t n, int64_t k, const float* a,
                      int64_t lda, const float* b, int64_t ldb, float* c,
                      int64_t ldc, bool accumulate);
void ReferenceSgemmTN(int64_t m, int64_t n, int64_t k, const float* a,
                      int64_t lda, const float* b, int64_t ldb, float* c,
                      int64_t ldc, bool accumulate);

/// True when the runtime-dispatched micro-kernel can use AVX2 (resp.
/// AVX-512, which is preferred when both are present). Introspection only —
/// all paths are bit-identical by construction.
bool UsingAvx2Kernels();
bool UsingAvx512Kernels();

}  // namespace gemm
}  // namespace fats

#endif  // FATS_TENSOR_GEMM_H_
