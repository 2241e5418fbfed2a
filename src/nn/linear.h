// Fully-connected layer: y = x W^T + b.

#ifndef FATS_NN_LINEAR_H_
#define FATS_NN_LINEAR_H_

#include <cstddef>
#include <string>
#include <vector>

#include "nn/module.h"
#include "nn/weight_pack.h"
#include "rng/rng_stream.h"

namespace fats {

class Linear : public Module {
 public:
  /// Weights are Xavier-initialized from `rng`; bias starts at zero.
  Linear(int64_t in_features, int64_t out_features, RngStream* rng);

  using Module::Forward;
  using Module::Backward;
  const Tensor& Forward(const Tensor& input, Workspace* ws) override;
  const Tensor& Backward(const Tensor& grad_output, Workspace* ws) override;
  void BackwardParameters(const Tensor& grad_output, Workspace* ws) override;
  std::vector<Parameter*> Parameters() override { return {&weight_, &bias_}; }
  std::string ToString() const override;
  int64_t OutputFeatures(int64_t input_features) const override;

  // Round-shared weight packs: both the forward (x W^T) and backward
  // (dy W) GEMMs read only the weight matrix, so when the workspace carries
  // a bound WeightPack this layer consumes its slot's prepacked panels —
  // bit-identical to packing inside the call (gemm::SgemmPackedB contract).
  void AssignPackSlots(size_t* next_slot) override {
    pack_slot_ = (*next_slot)++;
  }
  void PackSharedWeights(WeightPack* pack) const override;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

 private:
  // The bound pack's entry for this layer, or nullptr (unbound workspace,
  // or a pack from a structurally different model — shape-checked).
  const WeightPack::Entry* PackEntry(const Workspace* ws) const;

  int64_t in_features_;
  int64_t out_features_;
  Parameter weight_;  // (out x in)
  Parameter bias_;    // (out)
  size_t pack_slot_ = 0;  // assigned by AssignPackSlots
  const Tensor* cached_input_ = nullptr;  // borrowed; alive until Backward
};

}  // namespace fats

#endif  // FATS_NN_LINEAR_H_
