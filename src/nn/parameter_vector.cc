#include "nn/parameter_vector.h"

namespace fats {

int64_t ParameterCount(Module* module) {
  int64_t total = 0;
  for (Parameter* p : module->Parameters()) total += p->value.size();
  return total;
}

Tensor FlattenParameters(Module* module) {
  Tensor flat;
  FlattenParametersInto(module->Parameters(), &flat);
  return flat;
}

void FlattenParametersInto(const std::vector<Parameter*>& params,
                           Tensor* flat) {
  int64_t total = 0;
  for (Parameter* p : params) total += p->value.size();
  flat->ResizeTo(total);
  int64_t offset = 0;
  for (Parameter* p : params) {
    const float* src = p->value.data();
    float* dst = flat->data() + offset;
    for (int64_t i = 0; i < p->value.size(); ++i) dst[i] = src[i];
    offset += p->value.size();
  }
}

void UnflattenParameters(const Tensor& flat, Module* module) {
  FATS_CHECK_EQ(flat.size(), ParameterCount(module))
      << "flat parameter size mismatch";
  int64_t offset = 0;
  for (Parameter* p : module->Parameters()) {
    const float* src = flat.data() + offset;
    float* dst = p->value.data();
    for (int64_t i = 0; i < p->value.size(); ++i) dst[i] = src[i];
    offset += p->value.size();
  }
}

void UnflattenParameters(const Tensor& flat,
                         const std::vector<Parameter*>& params) {
  int64_t offset = 0;
  for (Parameter* p : params) {
    FATS_CHECK_LE(offset + p->value.size(), flat.size())
        << "flat parameter size mismatch";
    const float* src = flat.data() + offset;
    float* dst = p->value.data();
    for (int64_t i = 0; i < p->value.size(); ++i) dst[i] = src[i];
    offset += p->value.size();
  }
  FATS_CHECK_EQ(offset, flat.size()) << "flat parameter size mismatch";
}

Tensor FlattenGradients(Module* module) {
  Tensor flat({ParameterCount(module)});
  int64_t offset = 0;
  for (Parameter* p : module->Parameters()) {
    const float* src = p->grad.data();
    float* dst = flat.data() + offset;
    for (int64_t i = 0; i < p->grad.size(); ++i) dst[i] = src[i];
    offset += p->grad.size();
  }
  return flat;
}

void ApplySgdStep(Module* module, double lr) {
  ApplySgdStep(module->Parameters(), lr);
}

void ApplySgdStep(const std::vector<Parameter*>& params, double lr) {
  const float step = static_cast<float>(lr);
  for (Parameter* p : params) {
    float* value = p->value.data();
    const float* grad = p->grad.data();
    for (int64_t i = 0; i < p->value.size(); ++i) {
      value[i] -= step * grad[i];
    }
  }
}

}  // namespace fats
