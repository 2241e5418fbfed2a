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

const WeightPack::Entry* Linear::PackEntry(const Workspace* ws) const {
  const WeightPack* pack = ws->shared_weight_pack();
  if (pack == nullptr) return nullptr;
  FATS_CHECK_LT(pack_slot_, pack->entries.size())
      << ToString() << ": bound WeightPack has too few slots";
  const WeightPack::Entry& entry = pack->entries[pack_slot_];
  // Shape check: a pack from a structurally different model walk would
  // silently compute garbage; fail loudly instead.
  FATS_CHECK_EQ(entry.forward.n, out_features_) << ToString();
  FATS_CHECK_EQ(entry.forward.k, in_features_) << ToString();
  FATS_CHECK_EQ(entry.backward.n, in_features_) << ToString();
  FATS_CHECK_EQ(entry.backward.k, out_features_) << ToString();
  return &entry;
}

const Tensor& Linear::Forward(const Tensor& input, Workspace* ws) {
  FATS_CHECK_EQ(input.rank(), 2);
  FATS_CHECK_EQ(input.dim(1), in_features_) << ToString();
  cached_input_ = &input;
  Tensor& out = ws->Peek(this, kOut);
  if (const WeightPack::Entry* entry = PackEntry(ws)) {
    MatMulPackedBInto(input, entry->forward, &out);  // (batch x out)
  } else {
    MatMulTransposeBInto(input, weight_.value, &out);  // (batch x out)
  }
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
  if (const WeightPack::Entry* entry = PackEntry(ws)) {
    // The pack holds pre-step weights, which is exactly what dX = gO @ W
    // must read: SgdStep runs after Backward.
    MatMulPackedBInto(grad_output, entry->backward, &grad_input);
  } else {
    MatMulInto(grad_output, weight_.value, &grad_input);
  }
  return grad_input;
}

void Linear::PackSharedWeights(WeightPack* pack) const {
  if (pack->entries.size() <= pack_slot_) pack->entries.resize(pack_slot_ + 1);
  WeightPack::Entry& entry = pack->entries[pack_slot_];
  // Forward y = x W^T reads W stored (out x in) as the transposed operand;
  // backward dx = dy W reads the same storage as a (k=out x n=in) matrix.
  gemm::PackBMatrix(out_features_, in_features_, weight_.value.data(),
                    in_features_, /*b_trans=*/true, &entry.forward);
  gemm::PackBMatrix(in_features_, out_features_, weight_.value.data(),
                    in_features_, /*b_trans=*/false, &entry.backward);
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
