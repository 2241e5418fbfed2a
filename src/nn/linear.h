// Fully-connected layer: y = x W^T + b.

#ifndef FATS_NN_LINEAR_H_
#define FATS_NN_LINEAR_H_

#include <string>
#include <vector>

#include "nn/module.h"
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

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  Parameter weight_;  // (out x in)
  Parameter bias_;    // (out)
  const Tensor* cached_input_ = nullptr;  // borrowed; alive until Backward
};

}  // namespace fats

#endif  // FATS_NN_LINEAR_H_
