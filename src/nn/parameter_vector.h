// Flat parameter-vector view of a module.
//
// The FL engine treats model state as a single flat float vector: clients
// receive a flat θ, run local SGD, and return a flat θ. These helpers
// convert between that representation and a module's per-layer parameters.

#ifndef FATS_NN_PARAMETER_VECTOR_H_
#define FATS_NN_PARAMETER_VECTOR_H_

#include <cstdint>
#include <vector>

#include "nn/module.h"
#include "tensor/tensor.h"

namespace fats {

/// Total number of scalar parameters in `module`.
int64_t ParameterCount(Module* module);

/// Concatenates all parameter values into one 1-D tensor (layer order).
Tensor FlattenParameters(Module* module);

/// Hot-path form over a pre-collected parameter list: resizes `flat` in
/// place (ResizeTo keeps its capacity), so a warm call allocates nothing.
void FlattenParametersInto(const std::vector<Parameter*>& params,
                           Tensor* flat);

/// Writes `flat` (1-D, length ParameterCount) back into the module.
void UnflattenParameters(const Tensor& flat, Module* module);

/// Hot-path form over a pre-collected parameter list — used by
/// Model::SetParameters, which a client task runs once per local round.
/// Avoids the per-call Parameters() vector allocation.
void UnflattenParameters(const Tensor& flat,
                         const std::vector<Parameter*>& params);

/// Concatenates all parameter gradients into one 1-D tensor.
Tensor FlattenGradients(Module* module);

/// In-place SGD step: value -= lr * grad for every parameter.
void ApplySgdStep(Module* module, double lr);

/// Fused axpy over a pre-collected parameter list — the hot-path form used
/// by Model::SgdStep. Avoids the per-call Parameters() vector allocation.
void ApplySgdStep(const std::vector<Parameter*>& params, double lr);

}  // namespace fats

#endif  // FATS_NN_PARAMETER_VECTOR_H_
