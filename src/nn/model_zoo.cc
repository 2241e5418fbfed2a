#include "nn/model_zoo.h"

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/embedding.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "nn/parameter_vector.h"
#include "rng/rng_stream.h"
#include "util/string_util.h"

namespace fats {

int64_t ModelSpec::InputFeatures() const {
  switch (kind) {
    case ModelKind::kLogReg:
    case ModelKind::kMlp:
      return input_dim;
    case ModelKind::kSmallCnn:
      return image_channels * image_height * image_width;
    case ModelKind::kCharLstm:
      return seq_len;
  }
  return 0;
}

std::string ModelSpec::ToString() const {
  switch (kind) {
    case ModelKind::kLogReg:
      return StrFormat("LogReg(%lld->%lld)",
                       static_cast<long long>(input_dim),
                       static_cast<long long>(num_classes));
    case ModelKind::kMlp: {
      std::string dims;
      for (int64_t h : hidden_dims) dims += StrFormat("%lld,", (long long)h);
      return StrFormat("Mlp(%lld->[%s]->%lld)",
                       static_cast<long long>(input_dim), dims.c_str(),
                       static_cast<long long>(num_classes));
    }
    case ModelKind::kSmallCnn:
      return StrFormat("SmallCnn(%lldx%lldx%lld->%lld)",
                       static_cast<long long>(image_channels),
                       static_cast<long long>(image_height),
                       static_cast<long long>(image_width),
                       static_cast<long long>(num_classes));
    case ModelKind::kCharLstm:
      return StrFormat("CharLstm(vocab=%lld, seq=%lld, hidden=%lld->%lld)",
                       static_cast<long long>(vocab_size),
                       static_cast<long long>(seq_len),
                       static_cast<long long>(lstm_hidden),
                       static_cast<long long>(num_classes));
  }
  return "?";
}

std::unique_ptr<Sequential> BuildNetwork(const ModelSpec& spec,
                                         uint64_t init_seed) {
  StreamId id;
  id.purpose = RngPurpose::kModelInit;
  RngStream rng(init_seed, id);
  auto net = std::make_unique<Sequential>();
  switch (spec.kind) {
    case ModelKind::kLogReg: {
      FATS_CHECK_GT(spec.input_dim, 0);
      net->Add(std::make_unique<Linear>(spec.input_dim, spec.num_classes,
                                        &rng));
      break;
    }
    case ModelKind::kMlp: {
      FATS_CHECK_GT(spec.input_dim, 0);
      int64_t in = spec.input_dim;
      for (int64_t h : spec.hidden_dims) {
        net->Add(std::make_unique<Linear>(in, h, &rng));
        net->Add(std::make_unique<ReLU>());
        in = h;
      }
      net->Add(std::make_unique<Linear>(in, spec.num_classes, &rng));
      break;
    }
    case ModelKind::kSmallCnn: {
      FATS_CHECK_GT(spec.image_height, 0);
      FATS_CHECK_GT(spec.image_width, 0);
      FATS_CHECK(spec.conv_blocks == 1 || spec.conv_blocks == 2)
          << "conv_blocks must be 1 or 2";
      const int64_t pad = spec.kernel_size / 2;
      auto block = std::make_unique<ConvBlock>(
          spec.image_channels, spec.conv_channels, spec.image_height,
          spec.image_width, spec.kernel_size, pad, &rng);
      int64_t channels = block->out_channels();
      int64_t height = block->out_height();
      int64_t width = block->out_width();
      net->Add(std::move(block));
      if (spec.conv_blocks == 2) {
        auto block2 = std::make_unique<ConvBlock>(
            channels, 2 * channels, height, width, spec.kernel_size, pad,
            &rng);
        channels = block2->out_channels();
        height = block2->out_height();
        width = block2->out_width();
        net->Add(std::move(block2));
      }
      net->Add(std::make_unique<Linear>(channels * height * width,
                                        spec.num_classes, &rng));
      break;
    }
    case ModelKind::kCharLstm: {
      FATS_CHECK_GT(spec.vocab_size, 0);
      FATS_CHECK_GT(spec.seq_len, 0);
      FATS_CHECK(spec.lstm_layers == 1 || spec.lstm_layers == 2)
          << "lstm_layers must be 1 or 2";
      net->Add(std::make_unique<Embedding>(spec.vocab_size, spec.embed_dim,
                                           spec.seq_len, &rng));
      if (spec.lstm_layers == 2) {
        // Layer 1 emits the full hidden sequence for layer 2 to consume —
        // the paper's 2-layer Shakespeare architecture.
        net->Add(std::make_unique<Lstm>(spec.embed_dim, spec.lstm_hidden,
                                        spec.seq_len, &rng,
                                        /*return_sequence=*/true));
        net->Add(std::make_unique<Lstm>(spec.lstm_hidden, spec.lstm_hidden,
                                        spec.seq_len, &rng));
      } else {
        net->Add(std::make_unique<Lstm>(spec.embed_dim, spec.lstm_hidden,
                                        spec.seq_len, &rng));
      }
      net->Add(std::make_unique<Linear>(spec.lstm_hidden, spec.num_classes,
                                        &rng));
      break;
    }
  }
  return net;
}

Model::Model(const ModelSpec& spec, uint64_t init_seed)
    : spec_(spec),
      network_(BuildNetwork(spec, init_seed)),
      params_(network_->Parameters()) {}

double Model::ComputeLossAndGradients(const Tensor& inputs,
                                      const std::vector<int64_t>& labels) {
  for (Parameter* p : params_) p->grad.SetZero();
  const Tensor& logits = network_->Forward(inputs, &ws_);
  double loss = loss_.Compute(logits, labels, &grad_logits_);
  network_->BackwardParameters(grad_logits_, &ws_);
  return loss;
}

Tensor Model::Predict(const Tensor& inputs) {
  return network_->Forward(inputs, &ws_);
}

double Model::ComputeLoss(const Tensor& inputs,
                          const std::vector<int64_t>& labels) {
  const Tensor& logits = network_->Forward(inputs, &ws_);
  return loss_.Compute(logits, labels, nullptr);
}

double Model::EvaluateAccuracy(const Tensor& inputs,
                               const std::vector<int64_t>& labels) {
  const Tensor& logits = network_->Forward(inputs, &ws_);
  return Accuracy(logits, labels);
}

std::vector<double> Model::PerExampleLoss(const Tensor& inputs,
                                          const std::vector<int64_t>& labels) {
  const Tensor& logits = network_->Forward(inputs, &ws_);
  return loss_.PerExampleLoss(logits, labels);
}

int64_t Model::NumParameters() { return ParameterCount(network_.get()); }

void Model::GetParametersInto(Tensor* flat) {
  FlattenParametersInto(params_, flat);
}

void Model::SetParameters(const Tensor& flat) {
  UnflattenParameters(flat, params_);
}

Tensor Model::GetGradients() { return FlattenGradients(network_.get()); }

void Model::SgdStep(double lr) { ApplySgdStep(params_, lr); }

}  // namespace fats
