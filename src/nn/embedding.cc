#include "nn/embedding.h"

#include <cmath>

#include "nn/init.h"
#include "util/string_util.h"

namespace fats {

namespace {
enum Slot { kOut, kGradIn };
}  // namespace

Embedding::Embedding(int64_t vocab_size, int64_t embed_dim, int64_t seq_len,
                     RngStream* rng)
    : vocab_size_(vocab_size),
      embed_dim_(embed_dim),
      seq_len_(seq_len),
      table_("embedding", Tensor({vocab_size, embed_dim})) {
  InitGaussian(&table_.value, 1.0 / std::sqrt(static_cast<double>(embed_dim)),
               rng);
}

const Tensor& Embedding::Forward(const Tensor& input, Workspace* ws) {
  FATS_CHECK_EQ(input.rank(), 2);
  FATS_CHECK_EQ(input.dim(1), seq_len_) << ToString();
  const int64_t batch = input.dim(0);
  cached_input_shape_ = input.shape();
  cached_ids_.assign(static_cast<size_t>(batch * seq_len_), 0);
  Tensor& out = ws->Get(this, kOut, batch, seq_len_ * embed_dim_);
  const float* xp = input.data();
  const float* tp = table_.value.data();
  float* yp = out.data();
  for (int64_t i = 0; i < batch * seq_len_; ++i) {
    const int64_t id = static_cast<int64_t>(std::lround(xp[i]));
    FATS_CHECK(id >= 0 && id < vocab_size_)
        << "embedding id out of range: " << id;
    cached_ids_[static_cast<size_t>(i)] = id;
    const float* row = tp + id * embed_dim_;
    float* dst = yp + i * embed_dim_;
    for (int64_t d = 0; d < embed_dim_; ++d) dst[d] = row[d];
  }
  return out;
}

void Embedding::BackwardParameters(const Tensor& grad_output,
                                   Workspace* /*ws*/) {
  FATS_CHECK_EQ(grad_output.dim(1), seq_len_ * embed_dim_);
  float* tg = table_.grad.data();
  const float* gp = grad_output.data();
  for (size_t i = 0; i < cached_ids_.size(); ++i) {
    float* row = tg + cached_ids_[i] * embed_dim_;
    const float* src = gp + static_cast<int64_t>(i) * embed_dim_;
    for (int64_t d = 0; d < embed_dim_; ++d) row[d] += src[d];
  }
}

const Tensor& Embedding::Backward(const Tensor& grad_output, Workspace* ws) {
  BackwardParameters(grad_output, ws);
  // Ids are not differentiable; propagate zeros of the input shape.
  Tensor& grad_input = ws->Get(this, kGradIn, cached_input_shape_);
  grad_input.Fill(0.0f);
  return grad_input;
}

std::string Embedding::ToString() const {
  return StrFormat("Embedding(vocab=%lld, dim=%lld, seq=%lld)",
                   static_cast<long long>(vocab_size_),
                   static_cast<long long>(embed_dim_),
                   static_cast<long long>(seq_len_));
}

int64_t Embedding::OutputFeatures(int64_t input_features) const {
  FATS_CHECK_EQ(input_features, seq_len_);
  return seq_len_ * embed_dim_;
}

}  // namespace fats
