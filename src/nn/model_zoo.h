// Model zoo: the architectures used across the paper's six tasks, plus a
// Model facade that bundles a network with its loss and flat-parameter IO.
//
// Paper-to-zoo mapping (see DESIGN.md §2 for the substitution rationale):
//   MNIST / FashionMNIST / FEMNIST CNN  -> kSmallCnn (conv-pool-fc)
//   CIFAR VGG16                         -> kMlp (deep fully-connected)
//   Shakespeare 2x256 LSTM              -> kCharLstm (embed + LSTM + fc)
//   convex sanity baselines             -> kLogReg

#ifndef FATS_NN_MODEL_ZOO_H_
#define FATS_NN_MODEL_ZOO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/loss.h"
#include "nn/sequential.h"
#include "nn/workspace.h"
#include "tensor/tensor.h"

namespace fats {

enum class ModelKind {
  kLogReg,
  kMlp,
  kSmallCnn,
  kCharLstm,
};

/// Declarative model description; BuildModel turns it into layers.
struct ModelSpec {
  ModelKind kind = ModelKind::kLogReg;
  int64_t num_classes = 2;

  // kLogReg / kMlp: flat feature count.
  int64_t input_dim = 0;
  // kMlp: hidden widths, applied in order with ReLU between.
  std::vector<int64_t> hidden_dims;

  // kSmallCnn geometry (input is channels*height*width flat, CHW).
  int64_t image_channels = 1;
  int64_t image_height = 0;
  int64_t image_width = 0;
  int64_t conv_channels = 8;
  int64_t kernel_size = 3;
  /// 1 = conv-pool-fc; 2 = conv-pool-conv-pool-fc (the paper's deeper CNN;
  /// requires height and width divisible by 4).
  int64_t conv_blocks = 1;

  // kCharLstm: input is (batch, seq_len) of token ids.
  int64_t vocab_size = 0;
  int64_t embed_dim = 8;
  int64_t lstm_hidden = 32;
  int64_t seq_len = 0;
  /// Stacked LSTM depth (the paper's Shakespeare model uses 2).
  int64_t lstm_layers = 1;

  /// Feature width the model expects per example.
  int64_t InputFeatures() const;
  std::string ToString() const;
};

/// Builds the network for `spec`, with parameters initialized
/// deterministically from `init_seed`.
std::unique_ptr<Sequential> BuildNetwork(const ModelSpec& spec,
                                         uint64_t init_seed);

/// A network + loss bundle with flat-parameter accessors. This is the unit
/// the FL engine trains: model state is exchanged as a flat float vector.
class Model {
 public:
  Model(const ModelSpec& spec, uint64_t init_seed);

  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  /// Zeroes gradients, runs forward + backward on the batch and leaves
  /// gradients in the layers. Returns the mean loss.
  double ComputeLossAndGradients(const Tensor& inputs,
                                 const std::vector<int64_t>& labels);

  /// Forward pass only; returns logits.
  Tensor Predict(const Tensor& inputs);

  /// Mean loss without touching gradients.
  double ComputeLoss(const Tensor& inputs, const std::vector<int64_t>& labels);

  /// Classification accuracy on a batch.
  double EvaluateAccuracy(const Tensor& inputs,
                          const std::vector<int64_t>& labels);

  /// Per-example cross-entropy losses (for the MIA attack features).
  std::vector<double> PerExampleLoss(const Tensor& inputs,
                                     const std::vector<int64_t>& labels);

  int64_t NumParameters();
  Tensor GetParameters() {
    Tensor flat;
    GetParametersInto(&flat);
    return flat;
  }
  /// GetParameters into `flat`, reusing its capacity: allocation-free once
  /// `flat` has held a parameter vector of this model.
  void GetParametersInto(Tensor* flat);
  void SetParameters(const Tensor& flat);
  Tensor GetGradients();

  /// θ ← θ − lr · ∇ (uses gradients left by ComputeLossAndGradients).
  void SgdStep(double lr);

  const ModelSpec& spec() const { return spec_; }
  Sequential* network() { return network_.get(); }

  /// The model-owned tensor arena every Forward/Backward runs against. One
  /// arena per Model means one arena per ParallelClientRunner worker slot
  /// (workers own Model replicas), so arenas are never shared across
  /// threads. Exposed for allocation accounting in tests.
  Workspace* workspace() { return &ws_; }

 private:
  ModelSpec spec_;
  std::unique_ptr<Sequential> network_;
  SoftmaxCrossEntropy loss_;
  Workspace ws_;
  // Cached Parameters() walk + reused grad-logits buffer: with these, a
  // steady-state ComputeLossAndGradients + SgdStep allocates nothing.
  std::vector<Parameter*> params_;
  Tensor grad_logits_;
};

}  // namespace fats

#endif  // FATS_NN_MODEL_ZOO_H_
