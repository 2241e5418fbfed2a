// Sequential container of layers.

#ifndef FATS_NN_SEQUENTIAL_H_
#define FATS_NN_SEQUENTIAL_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/module.h"

namespace fats {

class Sequential : public Module {
 public:
  Sequential() = default;

  /// Appends a layer. Returns *this for chaining.
  Sequential& Add(std::unique_ptr<Module> layer) {
    layers_.push_back(std::move(layer));
    return *this;
  }

  using Module::Forward;
  using Module::Backward;

  // Activations flow by reference: each layer's input is the previous
  // layer's Workspace slot, so the chain performs no copies and (at steady
  // state) no allocations.
  const Tensor& Forward(const Tensor& input, Workspace* ws) override {
    const Tensor* x = &input;
    for (auto& layer : layers_) x = &layer->Forward(*x, ws);
    return *x;
  }

  const Tensor& Backward(const Tensor& grad_output, Workspace* ws) override {
    return BackwardDownTo(0, grad_output, ws);
  }

  // Only the first layer's input gradient goes unread: every later layer's
  // is the output gradient of the layer before it.
  void BackwardParameters(const Tensor& grad_output, Workspace* ws) override {
    if (layers_.empty()) return;
    layers_.front()->BackwardParameters(BackwardDownTo(1, grad_output, ws),
                                        ws);
  }

  std::vector<Parameter*> Parameters() override {
    std::vector<Parameter*> out;
    for (auto& layer : layers_) {
      for (Parameter* p : layer->Parameters()) out.push_back(p);
    }
    return out;
  }

  std::string ToString() const override {
    std::string out = "Sequential(";
    for (size_t i = 0; i < layers_.size(); ++i) {
      if (i > 0) out += " -> ";
      out += layers_[i]->ToString();
    }
    out += ")";
    return out;
  }

  int64_t OutputFeatures(int64_t input_features) const override {
    int64_t f = input_features;
    for (const auto& layer : layers_) f = layer->OutputFeatures(f);
    return f;
  }

  size_t num_layers() const { return layers_.size(); }
  Module* layer(size_t i) { return layers_[i].get(); }

 private:
  // Back-propagates through layers [first, end) in reverse and returns the
  // gradient w.r.t. layer `first`'s input.
  const Tensor& BackwardDownTo(size_t first, const Tensor& grad_output,
                               Workspace* ws) {
    const Tensor* g = &grad_output;
    for (size_t i = layers_.size(); i > first; --i) {
      g = &layers_[i - 1]->Backward(*g, ws);
    }
    return *g;
  }

  std::vector<std::unique_ptr<Module>> layers_;
};

}  // namespace fats

#endif  // FATS_NN_SEQUENTIAL_H_
