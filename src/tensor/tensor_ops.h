// Free-function tensor kernels used by the nn layers.
//
// The matmul family is backed by the blocked deterministic SGEMM in
// tensor/gemm.h: results are bit-identical to a canonical ascending-k
// triple loop regardless of shape, ISA path, or thread count, and NaN/Inf
// propagate exactly (no data-dependent skips). See DESIGN.md §7.2.
//
// Each product has three forms:
//   * a value-returning convenience (allocates the result),
//   * an `...Into` destination-passing form (resizes `*c`, reusing its
//     capacity — allocation-free at steady state),
//   * an `Add...Into` accumulating form (`*c += product`; `*c` must
//     already have the product's shape).
// Hot paths (layer Forward/Backward) must use the Into forms.

#ifndef FATS_TENSOR_TENSOR_OPS_H_
#define FATS_TENSOR_TENSOR_OPS_H_

#include "tensor/tensor.h"

namespace fats {

/// C = A (m x k) * B (k x n). Shapes are checked.
Tensor MatMul(const Tensor& a, const Tensor& b);
void MatMulInto(const Tensor& a, const Tensor& b, Tensor* c);
void AddMatMulInto(const Tensor& a, const Tensor& b, Tensor* c);

/// C = A (m x k) * B^T where B is (n x k).
Tensor MatMulTransposeB(const Tensor& a, const Tensor& b);
void MatMulTransposeBInto(const Tensor& a, const Tensor& b, Tensor* c);
void AddMatMulTransposeBInto(const Tensor& a, const Tensor& b, Tensor* c);

/// C = A^T (k x m -> m x k view) * B (k x n): i.e. C = A.T @ B for A (k x m).
Tensor MatMulTransposeA(const Tensor& a, const Tensor& b);
void MatMulTransposeAInto(const Tensor& a, const Tensor& b, Tensor* c);
void AddMatMulTransposeAInto(const Tensor& a, const Tensor& b, Tensor* c);

/// Adds `bias` (length n) to every row of `m` (rows x n), in place.
void AddRowwise(Tensor* m, const Tensor& bias);

/// Sums the rows of `m` (rows x n) into a length-n vector.
Tensor SumRows(const Tensor& m);
/// out (length n) += column sums of `m` (rows x n).
void AddSumRowsInto(const Tensor& m, Tensor* out);

/// Elementwise product.
Tensor Hadamard(const Tensor& a, const Tensor& b);
/// out = a ⊙ b (resized to a's shape; out may not alias a or b).
void HadamardInto(const Tensor& a, const Tensor& b, Tensor* out);

/// Transposes a 2-D tensor.
Tensor Transpose(const Tensor& m);

/// Row-wise softmax of a (rows x n) tensor (numerically stabilized).
Tensor SoftmaxRows(const Tensor& logits);
/// out = row-wise softmax of logits (resized; out may not alias logits).
void SoftmaxRowsInto(const Tensor& logits, Tensor* out);

}  // namespace fats

#endif  // FATS_TENSOR_TENSOR_OPS_H_
