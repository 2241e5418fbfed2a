#include "tensor/tensor_ops.h"

#include <cmath>

#include "tensor/gemm.h"

namespace fats {
namespace {

struct MatMulDims {
  int64_t m, n, k;
};

MatMulDims CheckNN(const Tensor& a, const Tensor& b) {
  FATS_CHECK_EQ(a.rank(), 2);
  FATS_CHECK_EQ(b.rank(), 2);
  FATS_CHECK_EQ(a.dim(1), b.dim(0)) << "matmul inner dims";
  return {a.dim(0), b.dim(1), a.dim(1)};
}

MatMulDims CheckNT(const Tensor& a, const Tensor& b) {
  FATS_CHECK_EQ(a.rank(), 2);
  FATS_CHECK_EQ(b.rank(), 2);
  FATS_CHECK_EQ(a.dim(1), b.dim(1)) << "matmul^T inner dims";
  return {a.dim(0), b.dim(0), a.dim(1)};
}

MatMulDims CheckTN(const Tensor& a, const Tensor& b) {
  FATS_CHECK_EQ(a.rank(), 2);
  FATS_CHECK_EQ(b.rank(), 2);
  FATS_CHECK_EQ(a.dim(0), b.dim(0)) << "matmul A^T inner dims";
  return {a.dim(1), b.dim(1), a.dim(0)};
}

void CheckAccumDst(const MatMulDims& d, const Tensor& c) {
  FATS_CHECK_EQ(c.rank(), 2);
  FATS_CHECK(c.dim(0) == d.m && c.dim(1) == d.n)
      << "accumulate destination shape mismatch";
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  Tensor c;
  MatMulInto(a, b, &c);
  return c;
}

void MatMulInto(const Tensor& a, const Tensor& b, Tensor* c) {
  const MatMulDims d = CheckNN(a, b);
  c->ResizeTo(d.m, d.n);
  gemm::SgemmNN(d.m, d.n, d.k, a.data(), d.k, b.data(), d.n, c->data(), d.n,
                /*accumulate=*/false);
}

void AddMatMulInto(const Tensor& a, const Tensor& b, Tensor* c) {
  const MatMulDims d = CheckNN(a, b);
  CheckAccumDst(d, *c);
  gemm::SgemmNN(d.m, d.n, d.k, a.data(), d.k, b.data(), d.n, c->data(), d.n,
                /*accumulate=*/true);
}

Tensor MatMulTransposeB(const Tensor& a, const Tensor& b) {
  Tensor c;
  MatMulTransposeBInto(a, b, &c);
  return c;
}

void MatMulTransposeBInto(const Tensor& a, const Tensor& b, Tensor* c) {
  const MatMulDims d = CheckNT(a, b);
  c->ResizeTo(d.m, d.n);
  gemm::SgemmNT(d.m, d.n, d.k, a.data(), d.k, b.data(), d.k, c->data(), d.n,
                /*accumulate=*/false);
}

void AddMatMulTransposeBInto(const Tensor& a, const Tensor& b, Tensor* c) {
  const MatMulDims d = CheckNT(a, b);
  CheckAccumDst(d, *c);
  gemm::SgemmNT(d.m, d.n, d.k, a.data(), d.k, b.data(), d.k, c->data(), d.n,
                /*accumulate=*/true);
}

Tensor MatMulTransposeA(const Tensor& a, const Tensor& b) {
  Tensor c;
  MatMulTransposeAInto(a, b, &c);
  return c;
}

void MatMulTransposeAInto(const Tensor& a, const Tensor& b, Tensor* c) {
  const MatMulDims d = CheckTN(a, b);
  c->ResizeTo(d.m, d.n);
  gemm::SgemmTN(d.m, d.n, d.k, a.data(), d.m, b.data(), d.n, c->data(), d.n,
                /*accumulate=*/false);
}

void AddMatMulTransposeAInto(const Tensor& a, const Tensor& b, Tensor* c) {
  const MatMulDims d = CheckTN(a, b);
  CheckAccumDst(d, *c);
  gemm::SgemmTN(d.m, d.n, d.k, a.data(), d.m, b.data(), d.n, c->data(), d.n,
                /*accumulate=*/true);
}

void AddRowwise(Tensor* m, const Tensor& bias) {
  FATS_CHECK_EQ(m->rank(), 2);
  FATS_CHECK_EQ(bias.rank(), 1);
  const int64_t rows = m->dim(0), n = m->dim(1);
  FATS_CHECK_EQ(n, bias.dim(0));
  float* mp = m->data();
  const float* bp = bias.data();
  for (int64_t i = 0; i < rows; ++i) {
    float* row = mp + i * n;
    for (int64_t j = 0; j < n; ++j) row[j] += bp[j];
  }
}

Tensor SumRows(const Tensor& m) {
  FATS_CHECK_EQ(m.rank(), 2);
  Tensor out({m.dim(1)});
  AddSumRowsInto(m, &out);
  return out;
}

void AddSumRowsInto(const Tensor& m, Tensor* out) {
  FATS_CHECK_EQ(m.rank(), 2);
  FATS_CHECK_EQ(out->rank(), 1);
  const int64_t rows = m.dim(0), n = m.dim(1);
  FATS_CHECK_EQ(n, out->dim(0));
  const float* mp = m.data();
  float* op = out->data();
  for (int64_t i = 0; i < rows; ++i) {
    const float* row = mp + i * n;
    for (int64_t j = 0; j < n; ++j) op[j] += row[j];
  }
}

Tensor Hadamard(const Tensor& a, const Tensor& b) {
  Tensor out;
  HadamardInto(a, b, &out);
  return out;
}

void HadamardInto(const Tensor& a, const Tensor& b, Tensor* out) {
  FATS_CHECK(a.shape() == b.shape()) << "hadamard shape mismatch";
  out->ResizeTo(a.shape());
  float* op = out->data();
  const float* ap = a.data();
  const float* bp = b.data();
  for (int64_t i = 0; i < a.size(); ++i) op[i] = ap[i] * bp[i];
}

Tensor Transpose(const Tensor& m) {
  FATS_CHECK_EQ(m.rank(), 2);
  const int64_t rows = m.dim(0), cols = m.dim(1);
  Tensor out({cols, rows});
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      out.at(j, i) = m.at(i, j);
    }
  }
  return out;
}

Tensor SoftmaxRows(const Tensor& logits) {
  Tensor out;
  SoftmaxRowsInto(logits, &out);
  return out;
}

void SoftmaxRowsInto(const Tensor& logits, Tensor* out) {
  FATS_CHECK_EQ(logits.rank(), 2);
  const int64_t rows = logits.dim(0), n = logits.dim(1);
  out->ResizeTo(rows, n);
  const float* lp = logits.data();
  float* op = out->data();
  for (int64_t i = 0; i < rows; ++i) {
    const float* in = lp + i * n;
    float* row = op + i * n;
    float max_v = in[0];
    for (int64_t j = 1; j < n; ++j) max_v = std::max(max_v, in[j]);
    float sum = 0.0f;
    for (int64_t j = 0; j < n; ++j) {
      row[j] = std::exp(in[j] - max_v);
      sum += row[j];
    }
    const float inv = 1.0f / sum;
    for (int64_t j = 0; j < n; ++j) row[j] *= inv;
  }
}

}  // namespace fats
