// Token embedding lookup over flat (batch x seq_len) id tensors.

#ifndef FATS_NN_EMBEDDING_H_
#define FATS_NN_EMBEDDING_H_

#include <string>
#include <vector>

#include "nn/module.h"
#include "rng/rng_stream.h"

namespace fats {

/// Input: (batch, seq_len) where each entry is an integer id stored as a
/// float in [0, vocab). Output: (batch, seq_len * embed_dim), the per-step
/// embeddings concatenated in sequence order.
class Embedding : public Module {
 public:
  Embedding(int64_t vocab_size, int64_t embed_dim, int64_t seq_len,
            RngStream* rng);

  using Module::Forward;
  using Module::Backward;
  const Tensor& Forward(const Tensor& input, Workspace* ws) override;
  const Tensor& Backward(const Tensor& grad_output, Workspace* ws) override;
  /// The table-gradient scatter alone: skips the input gradient's
  /// (batch x seq_len) zero fill, which nothing reads.
  void BackwardParameters(const Tensor& grad_output, Workspace* ws) override;
  std::vector<Parameter*> Parameters() override { return {&table_}; }
  std::string ToString() const override;
  int64_t OutputFeatures(int64_t input_features) const override;

  int64_t vocab_size() const { return vocab_size_; }
  int64_t embed_dim() const { return embed_dim_; }

 private:
  int64_t vocab_size_;
  int64_t embed_dim_;
  int64_t seq_len_;
  Parameter table_;  // (vocab x embed_dim)
  std::vector<int64_t> cached_ids_;
  std::vector<int64_t> cached_input_shape_;
};

}  // namespace fats

#endif  // FATS_NN_EMBEDDING_H_
