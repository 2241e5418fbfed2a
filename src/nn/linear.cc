#include "nn/linear.h"

#include "nn/init.h"
#include "tensor/tensor_ops.h"
#include "util/string_util.h"

namespace fats {

namespace {
enum Slot { kOut, kGradIn };
}  // namespace

Linear::Linear(int64_t in_features, int64_t out_features, RngStream* rng)
    : in_features_(in_features),
      out_features_(out_features),
      weight_("weight", Tensor({out_features, in_features})),
      bias_("bias", Tensor({out_features})) {
  InitXavierUniform(&weight_.value, in_features, out_features, rng);
}

const Tensor& Linear::Forward(const Tensor& input, Workspace* ws) {
  FATS_CHECK_EQ(input.rank(), 2);
  FATS_CHECK_EQ(input.dim(1), in_features_) << ToString();
  cached_input_ = &input;
  Tensor& out = ws->Peek(this, kOut);
  MatMulTransposeBInto(input, weight_.value, &out);  // (batch x out)
  AddRowwise(&out, bias_.value);
  return out;
}

void Linear::BackwardParameters(const Tensor& grad_output,
                                Workspace* /*ws*/) {
  FATS_CHECK_EQ(grad_output.rank(), 2);
  FATS_CHECK_EQ(grad_output.dim(1), out_features_);
  FATS_CHECK(cached_input_ != nullptr) << "Backward before Forward";
  // dW += gO^T @ X ; db += column sums of gO.
  AddMatMulTransposeAInto(grad_output, *cached_input_, &weight_.grad);
  AddSumRowsInto(grad_output, &bias_.grad);
}

const Tensor& Linear::Backward(const Tensor& grad_output, Workspace* ws) {
  BackwardParameters(grad_output, ws);
  // dX = gO @ W.
  Tensor& grad_input = ws->Peek(this, kGradIn);
  MatMulInto(grad_output, weight_.value, &grad_input);
  return grad_input;
}

std::string Linear::ToString() const {
  return StrFormat("Linear(%lld->%lld)",
                   static_cast<long long>(in_features_),
                   static_cast<long long>(out_features_));
}

int64_t Linear::OutputFeatures(int64_t input_features) const {
  FATS_CHECK_EQ(input_features, in_features_);
  return out_features_;
}

}  // namespace fats
