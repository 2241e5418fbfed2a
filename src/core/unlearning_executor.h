// Forwarding header: the request type and target pickers live in
// core/unlearning_service.h. Kept so code that includes this path by name
// still builds; new code includes the service header.

#ifndef FATS_CORE_UNLEARNING_EXECUTOR_H_
#define FATS_CORE_UNLEARNING_EXECUTOR_H_

#include "core/unlearning_service.h"

#endif  // FATS_CORE_UNLEARNING_EXECUTOR_H_
