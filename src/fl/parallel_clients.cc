#include "fl/parallel_clients.h"

namespace fats {

ParallelClientRunner::ParallelClientRunner(const ModelSpec& spec,
                                           uint64_t init_seed,
                                           int64_t num_threads)
    : pool_(num_threads) {
  replicas_.reserve(static_cast<size_t>(pool_.num_threads()));
  for (int64_t w = 0; w < pool_.num_threads(); ++w) {
    replicas_.push_back(std::make_unique<Model>(spec, init_seed));
  }
}

void ParallelClientRunner::ForEachClient(
    int64_t n, const std::function<void(int64_t, Model*)>& fn) {
  pool_.ParallelFor(n, [this, &fn](int64_t index, int64_t worker) {
    fn(index, replicas_[static_cast<size_t>(worker)].get());
  });
}

}  // namespace fats
