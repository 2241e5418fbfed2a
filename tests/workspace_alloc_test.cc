// Allocation-free training-step tests (DESIGN.md §7.2).
//
// Replaces global operator new/delete with counting versions and asserts
// that, after a short warm-up, Model::ComputeLossAndGradients + SgdStep
// perform ZERO heap allocations: every tensor a step touches lives in the
// Model's Workspace arena (or a layer-owned cache) and is reused in place.
// The arena's grow_events() counter must likewise be flat at steady state —
// slots neither appear nor regrow once every shape has been seen.
//
// The new/delete overrides are per-binary (this TU only), so no other test
// is affected; counting is gated on a flag so gtest's own allocations during
// setup and assertion reporting are ignored.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "nn/model_zoo.h"
#include "nn/workspace.h"
#include "tensor/tensor.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_allocs{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace fats {
namespace {

struct StepStats {
  int64_t allocs = 0;
  int64_t grow_events = 0;
};

// Runs `steps` train steps with allocation counting on and returns the heap
// allocation count plus the arena growth delta.
StepStats MeasureSteps(Model* model, const Tensor& x,
                       const std::vector<int64_t>& y, int steps) {
  const int64_t grow_before = model->workspace()->grow_events();
  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  for (int s = 0; s < steps; ++s) {
    model->ComputeLossAndGradients(x, y);
    model->SgdStep(0.05);
  }
  g_counting.store(false, std::memory_order_relaxed);
  StepStats stats;
  stats.allocs = g_allocs.load(std::memory_order_relaxed);
  stats.grow_events = model->workspace()->grow_events() - grow_before;
  return stats;
}

void ExpectAllocationFree(const ModelSpec& spec, const Tensor& x,
                          const std::vector<int64_t>& y) {
  Model model(spec, 7);
  // Warm-up: first steps create arena slots, size layer caches, and grow the
  // thread-local GEMM pack buffers.
  for (int s = 0; s < 3; ++s) {
    model.ComputeLossAndGradients(x, y);
    model.SgdStep(0.05);
  }
  EXPECT_GT(model.workspace()->slot_count(), 0);
  const StepStats stats = MeasureSteps(&model, x, y, 5);
  EXPECT_EQ(stats.allocs, 0)
      << spec.ToString() << ": a steady-state training step heap-allocated";
  EXPECT_EQ(stats.grow_events, 0)
      << spec.ToString() << ": workspace slots grew after warm-up";
}

TEST(WorkspaceAllocTest, SmallCnnStepIsAllocationFree) {
  ModelSpec spec;
  spec.kind = ModelKind::kSmallCnn;
  spec.image_channels = 1;
  spec.image_height = 8;
  spec.image_width = 8;
  spec.conv_channels = 6;
  spec.num_classes = 10;
  Tensor x({4, 64});
  for (int64_t i = 0; i < x.size(); ++i) {
    x[i] = 0.01f * static_cast<float>(i % 17);
  }
  ExpectAllocationFree(spec, x, {0, 3, 7, 9});
}

TEST(WorkspaceAllocTest, CharLstmStepIsAllocationFree) {
  ModelSpec spec;
  spec.kind = ModelKind::kCharLstm;
  spec.vocab_size = 32;
  spec.embed_dim = 8;
  spec.lstm_hidden = 16;
  spec.seq_len = 12;
  spec.num_classes = 32;
  Tensor x({4, 12});
  for (int64_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(i % 32);
  }
  ExpectAllocationFree(spec, x, {1, 5, 9, 13});
}

TEST(WorkspaceAllocTest, StackedLstmStepIsAllocationFree) {
  ModelSpec spec;
  spec.kind = ModelKind::kCharLstm;
  spec.vocab_size = 32;
  spec.embed_dim = 8;
  spec.lstm_hidden = 16;
  spec.seq_len = 10;
  spec.lstm_layers = 2;  // the paper's Shakespeare depth
  spec.num_classes = 32;
  Tensor x({3, 10});
  for (int64_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>((i * 7) % 32);
  }
  ExpectAllocationFree(spec, x, {2, 4, 6});
}

TEST(WorkspaceAllocTest, MlpStepIsAllocationFree) {
  ModelSpec spec;
  spec.kind = ModelKind::kMlp;
  spec.input_dim = 64;
  spec.hidden_dims = {32, 16};
  spec.num_classes = 10;
  Tensor x({8, 64});
  for (int64_t i = 0; i < x.size(); ++i) {
    x[i] = 0.01f * static_cast<float>(i % 19);
  }
  std::vector<int64_t> y(8);
  for (size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int64_t>(i % 10);
  ExpectAllocationFree(spec, x, y);
}

// The trainer's per-client cycle: load the start parameters, take a step,
// flatten the local model back into the same tensor. Once that tensor has
// held the model's parameters, the whole cycle allocates nothing.
TEST(WorkspaceAllocTest, SetStepGetParametersCycleIsAllocationFree) {
  ModelSpec spec;
  spec.kind = ModelKind::kSmallCnn;
  spec.image_channels = 1;
  spec.image_height = 8;
  spec.image_width = 8;
  spec.conv_channels = 6;
  spec.num_classes = 10;
  Model model(spec, 7);
  Tensor x({4, 64});
  for (int64_t i = 0; i < x.size(); ++i) {
    x[i] = 0.01f * static_cast<float>(i % 17);
  }
  const std::vector<int64_t> y = {0, 3, 7, 9};
  Tensor params = model.GetParameters();
  auto cycle = [&] {
    model.SetParameters(params);
    model.ComputeLossAndGradients(x, y);
    model.SgdStep(0.05);
    model.GetParametersInto(&params);
  };
  for (int s = 0; s < 3; ++s) cycle();  // warm-up sizes the arena
  const int64_t grow_before = model.workspace()->grow_events();
  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  for (int s = 0; s < 5; ++s) cycle();
  g_counting.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 0)
      << "a warm set-params, step, get-params cycle heap-allocated";
  EXPECT_EQ(model.workspace()->grow_events(), grow_before);
  EXPECT_EQ(params.size(), model.NumParameters());
}

// A batch-size change is allowed to grow slots once; returning to the old
// batch must not allocate again (ResizeTo shrinks logically but keeps
// capacity).
TEST(WorkspaceAllocTest, BatchShrinkDoesNotReallocate) {
  ModelSpec spec;
  spec.kind = ModelKind::kMlp;
  spec.input_dim = 32;
  spec.hidden_dims = {16};
  spec.num_classes = 4;
  Model model(spec, 11);
  Tensor big({8, 32});
  big.Fill(0.1f);
  std::vector<int64_t> ybig(8, 1);
  Tensor small({2, 32});
  small.Fill(0.2f);
  std::vector<int64_t> ysmall(2, 2);
  for (int s = 0; s < 2; ++s) {
    model.ComputeLossAndGradients(big, ybig);
    model.SgdStep(0.05);
    model.ComputeLossAndGradients(small, ysmall);
    model.SgdStep(0.05);
  }
  const StepStats stats = MeasureSteps(&model, small, ysmall, 3);
  EXPECT_EQ(stats.allocs, 0);
  EXPECT_EQ(stats.grow_events, 0);
  // The larger batch is also still warm.
  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  model.ComputeLossAndGradients(big, ybig);
  model.SgdStep(0.05);
  g_counting.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 0);
}

}  // namespace
}  // namespace fats
