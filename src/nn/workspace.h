// Per-client tensor arena for allocation-free training steps.
//
// A Workspace owns named scratch/activation tensors on behalf of the layers
// that use it. Slots are keyed by (owner pointer, slot id): each Module
// instance passes `this`, so two layers of the same type never collide, and
// a slot's Tensor persists across steps — after the first step resizes it,
// later steps reuse the same heap block (Tensor::ResizeTo never shrinks
// capacity), making the steady-state training step heap-allocation-free
// (asserted by tests/workspace_alloc_test.cc).
//
// Threading model: a Workspace is NOT thread-safe and is never shared —
// each Model owns one, and ParallelClientRunner's per-worker Model replicas
// therefore give each worker slot its own arena (DESIGN.md §7.1/§7.2).
//
// Lifetime: references returned by Get() stay valid until the Workspace is
// destroyed — the slot map is node-based, so rehashing never moves a slot.

#ifndef FATS_NN_WORKSPACE_H_
#define FATS_NN_WORKSPACE_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "tensor/tensor.h"

namespace fats {

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// The slot for (owner, id), resized to the given shape (capacity is
  /// reused; contents are unspecified — Fill(0) if zeros are needed).
  Tensor& Get(const void* owner, int id, int64_t d0);
  Tensor& Get(const void* owner, int id, int64_t d0, int64_t d1);
  Tensor& Get(const void* owner, int id, int64_t d0, int64_t d1, int64_t d2);
  Tensor& Get(const void* owner, int id, const std::vector<int64_t>& shape);

  /// The slot for (owner, id) with whatever shape it last had (creates an
  /// empty tensor on first use).
  Tensor& Peek(const void* owner, int id);

  /// Number of distinct slots materialized so far.
  size_t slot_count() const { return slots_.size(); }

  /// Number of Get() calls that had to grow a slot's heap block (or create
  /// the slot). Stable across steps at steady state — the zero-allocation
  /// test asserts this stops increasing after warm-up.
  int64_t grow_events() const { return grow_events_; }

 private:
  struct Key {
    const void* owner;
    int id;
    bool operator==(const Key& o) const {
      return owner == o.owner && id == o.id;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // Pointer bits mixed with the slot id; splitmix64-style finalizer.
      uint64_t h = reinterpret_cast<uintptr_t>(k.owner) ^
                   (static_cast<uint64_t>(static_cast<uint32_t>(k.id)) << 1);
      h ^= h >> 30;
      h *= 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 27;
      return static_cast<size_t>(h);
    }
  };

  Tensor& Slot(const void* owner, int id);

  std::unordered_map<Key, Tensor, KeyHash> slots_;
  int64_t grow_events_ = 0;
};

}  // namespace fats

#endif  // FATS_NN_WORKSPACE_H_
