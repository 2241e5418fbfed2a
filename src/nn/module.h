// Layer interface for the hand-written neural-network substrate.
//
// All activations flow as 2-D tensors (batch x features). Layers that have a
// spatial or sequential interpretation (Conv2d, LSTM) carry their geometry as
// configuration and interpret the flat feature axis accordingly; this keeps
// the FL engine's model state a single flat float vector, which is what
// FedAvg-style averaging and the FATS state store operate on.
//
// The forward/backward contract:
//   * Forward(x, ws) caches whatever the layer needs and returns a reference
//     to the output, which lives in a Workspace slot owned by this layer.
//   * Backward(grad_out, ws) must follow the matching Forward with the SAME
//     workspace, accumulates parameter gradients (+=) and returns the
//     gradient w.r.t. the input (also a Workspace slot).
//   * BackwardParameters(grad_out, ws) is Backward for a caller that does
//     not read the input gradient: it accumulates the same parameter
//     gradients, bit for bit, and may skip the input-gradient work. Nothing
//     reads the gradient w.r.t. the training inputs, so Sequential calls it
//     on its first layer and Model::ComputeLossAndGradients on the network.
//     The default runs Backward and drops the result.
//   * The input passed to Forward must stay alive (and unmodified) until the
//     matching Backward returns — layers cache it by reference, not by copy.
//     Inside Sequential this holds automatically: each layer's input is the
//     previous layer's Workspace slot, and no layer writes its forward-output
//     slot during Backward.
//
// Threading the Workspace through the hot path is what makes a steady-state
// training step heap-allocation-free (DESIGN.md §7.2): every slot is resized
// with capacity reuse, so after the first step nothing allocates. The
// by-value Forward/Backward overloads are conveniences for tests and tools;
// they run against a lazily created module-owned scratch workspace and copy
// the result out.

#ifndef FATS_NN_MODULE_H_
#define FATS_NN_MODULE_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/workspace.h"
#include "tensor/tensor.h"

namespace fats {

/// A trainable tensor with its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  explicit Parameter(std::string param_name, Tensor initial)
      : name(std::move(param_name)),
        value(std::move(initial)),
        grad(value.shape()) {}
};

class Module {
 public:
  virtual ~Module() = default;

  /// Runs the layer on a (batch x in_features) tensor. The returned
  /// reference is a Workspace slot: valid until the next Forward on this
  /// layer with the same workspace (or the workspace's destruction).
  virtual const Tensor& Forward(const Tensor& input, Workspace* ws) = 0;

  /// Back-propagates (batch x out_features) output gradients; accumulates
  /// into parameter .grad fields and returns input gradients (a Workspace
  /// slot). `ws` must be the workspace used by the matching Forward.
  virtual const Tensor& Backward(const Tensor& grad_output, Workspace* ws) = 0;

  /// Backward without the input gradient: the same parameter-gradient
  /// accumulation, bit for bit. Layers whose input gradient costs real work
  /// (Conv2d, Linear) override it to skip that work.
  virtual void BackwardParameters(const Tensor& grad_output, Workspace* ws) {
    Backward(grad_output, ws);
  }

  // By-value conveniences over a module-owned scratch workspace. Derived
  // classes re-expose them with `using Module::Forward/Backward`.
  Tensor Forward(const Tensor& input);
  Tensor Backward(const Tensor& grad_output);

  /// The layer's trainable parameters (possibly empty). Pointers remain
  /// valid for the lifetime of the module.
  virtual std::vector<Parameter*> Parameters() { return {}; }

  /// Human-readable layer descriptor, e.g. "Linear(64->10)".
  virtual std::string ToString() const = 0;

  /// Number of output features for a given input feature count, used for
  /// shape validation when assembling models.
  virtual int64_t OutputFeatures(int64_t input_features) const = 0;

  /// Clears all parameter gradients.
  void ZeroGrad() {
    for (Parameter* p : Parameters()) p->grad.SetZero();
  }

 private:
  Workspace* ScratchWorkspace();

  std::unique_ptr<Workspace> scratch_;
};

}  // namespace fats

#endif  // FATS_NN_MODULE_H_
