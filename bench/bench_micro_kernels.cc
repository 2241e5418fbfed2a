// Micro-benchmarks (google-benchmark) for the numeric and sampling kernels
// underneath FATS: matmul, conv2d, LSTM step, Philox throughput, and the
// samplers whose laws the unlearning proofs depend on.
//
// The GEMM / conv / step-latency cases feed the bench-regression gate:
// tools/ci.sh runs this binary with
// --benchmark_out=$BUILD_DIR/BENCH_kernels_current.json and tools/bench_check
// compares that result against the checked-in BENCH_kernels.json baseline.
// Speedup baselines are benchmarked here too: BM_ScalarIkjMatMul is the
// pre-kernel scalar loop (the kernel this PR replaced) and
// BM_ReferenceMatMul is the contract-defining triple loop.
//
// The run context records "fats_build_type", and tools/bench_check refuses
// baselines recorded from debug builds.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_util.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "nn/model_zoo.h"
#include "nn/weight_pack.h"
#include "nn/workspace.h"
#include "rng/philox.h"
#include "rng/sampling.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"

namespace fats {
namespace {

void FillPattern(Tensor* t, int64_t modulus, float scale) {
  for (int64_t i = 0; i < t->size(); ++i) {
    (*t)[i] = scale * static_cast<float>(i % modulus);
  }
}

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Tensor a({n, n});
  Tensor b({n, n});
  Tensor c({n, n});
  FillPattern(&a, 7, 1.0f);
  FillPattern(&b, 5, 1.0f);
  for (auto _ : state) {
    MatMulInto(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetBytesProcessed(state.iterations() * 3 * n * n *
                          static_cast<int64_t>(sizeof(float)));
}
BENCHMARK(BM_MatMul)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

// The scalar i-k-j loop that MatMul used before the blocked kernels — kept
// here (minus its data-dependent zero skip) as the speedup baseline for the
// BM_MatMul/256 >= 4x acceptance check.
void BM_ScalarIkjMatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Tensor a({n, n});
  Tensor b({n, n});
  Tensor c({n, n});
  FillPattern(&a, 7, 1.0f);
  FillPattern(&b, 5, 1.0f);
  for (auto _ : state) {
    c.SetZero();
    const float* ap = a.data();
    const float* bp = b.data();
    float* cp = c.data();
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t kk = 0; kk < n; ++kk) {
        const float aik = ap[i * n + kk];
        const float* brow = bp + kk * n;
        float* crow = cp + i * n;
        for (int64_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
      }
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetBytesProcessed(state.iterations() * 3 * n * n *
                          static_cast<int64_t>(sizeof(float)));
}
BENCHMARK(BM_ScalarIkjMatMul)->Arg(128)->Arg(256);

// The canonical-order reference loop that defines the deterministic
// contract (gemm.h). Slowest of the three; kept for perspective.
void BM_ReferenceMatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Tensor a({n, n});
  Tensor b({n, n});
  Tensor c({n, n});
  FillPattern(&a, 7, 1.0f);
  FillPattern(&b, 5, 1.0f);
  for (auto _ : state) {
    gemm::ReferenceSgemmNN(n, n, n, a.data(), n, b.data(), n, c.data(), n,
                           false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  state.SetBytesProcessed(state.iterations() * 3 * n * n *
                          static_cast<int64_t>(sizeof(float)));
}
BENCHMARK(BM_ReferenceMatMul)->Arg(128)->Arg(256);

// Rectangular shapes from the paper models: a Linear(256->64) forward panel
// (batch x 256) @ (64 x 256)^T and an LSTM gate block (batch x H) @ (4H x H)^T
// with H = 32 (kCharLstm's hidden size).
void BM_MatMulLinearShape(benchmark::State& state) {
  const int64_t batch = state.range(0);
  Tensor x({batch, 256});
  Tensor w({64, 256});
  Tensor y({batch, 64});
  FillPattern(&x, 13, 0.01f);
  FillPattern(&w, 7, 0.01f);
  for (auto _ : state) {
    MatMulTransposeBInto(x, w, &y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * batch * 256 * 64);
}
BENCHMARK(BM_MatMulLinearShape)->Arg(4)->Arg(32);

void BM_MatMulLstmGateShape(benchmark::State& state) {
  const int64_t batch = state.range(0);
  Tensor h({batch, 32});
  Tensor u({128, 32});  // (4H x H)
  Tensor z({batch, 128});
  FillPattern(&h, 9, 0.01f);
  FillPattern(&u, 7, 0.01f);
  for (auto _ : state) {
    MatMulTransposeBInto(h, u, &z);
    benchmark::DoNotOptimize(z.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * batch * 32 * 128);
}
BENCHMARK(BM_MatMulLstmGateShape)->Arg(4)->Arg(32);

void BM_LinearForwardBackward(benchmark::State& state) {
  const int64_t batch = state.range(0);
  RngStream rng(uint64_t{1});
  Linear layer(256, 64, &rng);
  Workspace ws;
  Tensor x({batch, 256});
  FillPattern(&x, 13, 0.01f);
  Tensor grad({batch, 64});
  grad.Fill(0.1f);
  for (auto _ : state) {
    layer.ZeroGrad();
    const Tensor& y = layer.Forward(x, &ws);
    const Tensor& gx = layer.Backward(grad, &ws);
    benchmark::DoNotOptimize(y.data());
    benchmark::DoNotOptimize(gx.data());
  }
}
BENCHMARK(BM_LinearForwardBackward)->Arg(4)->Arg(32);

// im2col + GEMM conv at an MNIST-like shape (1x28x28, 8 output channels).
void BM_Conv2dForwardBackward(benchmark::State& state) {
  const int64_t batch = state.range(0);
  RngStream rng(uint64_t{2});
  Conv2d conv(1, 8, 16, 16, 3, 1, &rng);
  Workspace ws;
  Tensor x({batch, 256});
  FillPattern(&x, 11, 0.01f);
  Tensor grad({batch, conv.OutputFeatures(256)});
  grad.Fill(0.1f);
  for (auto _ : state) {
    conv.ZeroGrad();
    const Tensor& y = conv.Forward(x, &ws);
    const Tensor& gx = conv.Backward(grad, &ws);
    benchmark::DoNotOptimize(y.data());
    benchmark::DoNotOptimize(gx.data());
  }
}
BENCHMARK(BM_Conv2dForwardBackward)->Arg(1)->Arg(4)->Arg(16);

void BM_Im2colConvForward(benchmark::State& state) {
  const int64_t batch = state.range(0);
  RngStream rng(uint64_t{6});
  Conv2d conv(1, 8, 28, 28, 3, 1, &rng);
  Workspace ws;
  Tensor x({batch, 28 * 28});
  FillPattern(&x, 11, 0.01f);
  for (auto _ : state) {
    const Tensor& y = conv.Forward(x, &ws);
    benchmark::DoNotOptimize(y.data());
  }
  // 2*K MACs per output element.
  state.SetItemsProcessed(state.iterations() * batch * 8 * 28 * 28 * 2 * 9);
}
BENCHMARK(BM_Im2colConvForward)->Arg(4)->Arg(32);

void BM_LstmForwardBackward(benchmark::State& state) {
  const int64_t seq = state.range(0);
  RngStream rng(uint64_t{3});
  Lstm lstm(8, 32, seq, &rng);
  Workspace ws;
  Tensor x({4, seq * 8});
  FillPattern(&x, 9, 0.01f);
  Tensor grad({4, 32});
  grad.Fill(0.1f);
  for (auto _ : state) {
    lstm.ZeroGrad();
    const Tensor& y = lstm.Forward(x, &ws);
    const Tensor& gx = lstm.Backward(grad, &ws);
    benchmark::DoNotOptimize(y.data());
    benchmark::DoNotOptimize(gx.data());
  }
}
BENCHMARK(BM_LstmForwardBackward)->Arg(10)->Arg(40);

void BM_PhiloxThroughput(benchmark::State& state) {
  // Measures the raw engine; key derivation is out of scope here.
  PhiloxEngine engine(42);  // fats-lint: allow(rng-raw-key)
  uint64_t sink = 0;
  for (auto _ : state) {
    sink += engine();
  }
  benchmark::DoNotOptimize(sink);
  state.SetBytesProcessed(state.iterations() * 4);
}
BENCHMARK(BM_PhiloxThroughput);

void BM_SampleWithoutReplacement(benchmark::State& state) {
  const int64_t n = state.range(0);
  RngStream rng(uint64_t{4});
  for (auto _ : state) {
    std::vector<int64_t> s = SampleWithoutReplacement(n, n / 10 + 1, &rng);
    benchmark::DoNotOptimize(s.data());
  }
}
BENCHMARK(BM_SampleWithoutReplacement)->Arg(100)->Arg(10000);

void BM_SampleClientMultiset(benchmark::State& state) {
  RngStream rng(uint64_t{5});
  for (auto _ : state) {
    std::vector<int64_t> s = SampleWithReplacement(1000, 20, &rng);
    benchmark::DoNotOptimize(s.data());
  }
}
BENCHMARK(BM_SampleClientMultiset);

void BM_ModelSgdStep(benchmark::State& state) {
  ModelSpec spec;
  spec.kind = ModelKind::kSmallCnn;
  spec.image_channels = 1;
  spec.image_height = 8;
  spec.image_width = 8;
  spec.conv_channels = 6;
  spec.num_classes = 10;
  Model model(spec, 1);
  Tensor x({4, 64});
  FillPattern(&x, 17, 0.01f);
  std::vector<int64_t> y = {0, 3, 7, 9};
  for (auto _ : state) {
    double loss = model.ComputeLossAndGradients(x, y);
    model.SgdStep(0.05);
    benchmark::DoNotOptimize(loss);
  }
}
BENCHMARK(BM_ModelSgdStep);

void BM_ModelSgdStepLstm(benchmark::State& state) {
  ModelSpec spec;
  spec.kind = ModelKind::kCharLstm;
  spec.vocab_size = 64;
  spec.embed_dim = 8;
  spec.lstm_hidden = 32;
  spec.seq_len = 20;
  spec.num_classes = 64;
  Model model(spec, 2);
  Tensor x({4, 20});
  for (int64_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(i % 64);
  std::vector<int64_t> y = {1, 5, 9, 13};
  for (auto _ : state) {
    double loss = model.ComputeLossAndGradients(x, y);
    model.SgdStep(0.05);
    benchmark::DoNotOptimize(loss);
  }
}
BENCHMARK(BM_ModelSgdStepLstm);

void BM_ModelSgdStepMlp(benchmark::State& state) {
  ModelSpec spec;
  spec.kind = ModelKind::kMlp;
  spec.input_dim = 256;
  spec.hidden_dims = {128, 64};
  spec.num_classes = 10;
  Model model(spec, 3);
  Tensor x({32, 256});
  FillPattern(&x, 19, 0.01f);
  std::vector<int64_t> y(32);
  for (size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int64_t>(i % 10);
  for (auto _ : state) {
    double loss = model.ComputeLossAndGradients(x, y);
    model.SgdStep(0.05);
    benchmark::DoNotOptimize(loss);
  }
}
BENCHMARK(BM_ModelSgdStepMlp);

// Fused cross-client batching: K replicas of the round model run one local
// step each against a shared WeightPack (packed once per round) vs. each
// replica re-packing inside every Forward/Backward. The pair is the
// per-round cost the trainer's fused_round_pack_ path saves.
constexpr int64_t kPackedBatchClients = 8;

void RunClientBatchStep(std::vector<std::unique_ptr<Model>>* clients,
                        const Tensor& x, const std::vector<int64_t>& y,
                        const Tensor& params) {
  for (auto& client : *clients) {
    client->SetParameters(params);
    double loss = client->ComputeLossAndGradients(x, y);
    client->SgdStep(0.05);
    benchmark::DoNotOptimize(loss);
  }
}

void PackedBatchBench(benchmark::State& state, bool shared_pack) {
  ModelSpec spec;
  spec.kind = ModelKind::kMlp;
  spec.input_dim = 256;
  spec.hidden_dims = {128, 64};
  spec.num_classes = 10;
  Model donor(spec, 7);
  const Tensor params = donor.GetParameters();
  std::vector<std::unique_ptr<Model>> clients;
  clients.reserve(kPackedBatchClients);
  for (int64_t k = 0; k < kPackedBatchClients; ++k) {
    clients.push_back(std::make_unique<Model>(spec, 7));
  }
  WeightPack pack;
  Tensor x({32, 256});
  FillPattern(&x, 19, 0.01f);
  std::vector<int64_t> y(32);
  for (size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int64_t>(i % 10);
  for (auto _ : state) {
    if (shared_pack) {
      donor.SetParameters(params);
      donor.PackSharedWeights(&pack);
      for (auto& client : clients) client->BindSharedWeightPack(&pack);
    }
    RunClientBatchStep(&clients, x, y, params);
    if (shared_pack) {
      for (auto& client : clients) client->BindSharedWeightPack(nullptr);
    }
  }
  const int64_t macs = 32 * (256 * 128 + 128 * 64 + 64 * 10);
  state.SetItemsProcessed(state.iterations() * kPackedBatchClients * 2 * 3 *
                          macs);
  state.SetBytesProcessed(state.iterations() * kPackedBatchClients *
                          donor.NumParameters() *
                          static_cast<int64_t>(sizeof(float)));
}

void BM_ClientBatchSharedPack(benchmark::State& state) {
  PackedBatchBench(state, /*shared_pack=*/true);
}
BENCHMARK(BM_ClientBatchSharedPack);

void BM_ClientBatchPerCallPack(benchmark::State& state) {
  PackedBatchBench(state, /*shared_pack=*/false);
}
BENCHMARK(BM_ClientBatchPerCallPack);

}  // namespace
}  // namespace fats

int main(int argc, char** argv) {
  return fats::bench::RunBenchmarks(argc, argv);
}
