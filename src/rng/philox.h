// Philox4x32-10 counter-based pseudo-random function.
//
// FATS' exact-unlearning guarantee rests on being able to (a) replay any
// prefix of the training randomness bit-identically and (b) draw provably
// fresh randomness for a re-computation suffix. A counter-based PRF gives
// both: the random stream is a pure function of (key, counter), so replay is
// trivial and independent streams are obtained by changing the key.
//
// Reference: Salmon, Moraes, Dror, Shaw. "Parallel random numbers: as easy as
// 1, 2, 3" (SC'11). This is the standard 10-round Philox4x32 used by
// JAX/XLA and cuRAND.
//
// Blocks are independent, so PhiloxEngine::Fill computes them in bulk: on
// x86-64 hosts with AVX-512F (checked once at static-init time, as the GEMM
// and CRC-32 kernels are) sixteen consecutive counters share one vector per
// counter word, and the ten rounds run on all sixteen at once. The rounds
// are 32-bit integer multiplies, xors and adds, so every lane computes
// exactly the scalar block: the bulk stream is the scalar stream by
// construction, and tests/philox_test.cc checks Fill against n calls of
// operator().

#ifndef FATS_RNG_PHILOX_H_
#define FATS_RNG_PHILOX_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace fats {

using PhiloxCounter = std::array<uint32_t, 4>;
using PhiloxKey = std::array<uint32_t, 2>;
using PhiloxBlock = std::array<uint32_t, 4>;

/// Applies the 10-round Philox4x32 block function.
PhiloxBlock Philox4x32(PhiloxCounter counter, PhiloxKey key);

namespace internal {

/// True when PhiloxEngine::Fill runs whole groups through the AVX-512
/// kernel on this host; otherwise every block is Philox4x32.
bool PhiloxFillUsesAvx512();

}  // namespace internal

/// A UniformRandomBitGenerator over a Philox stream. The 64-bit `key`
/// selects an independent stream; the 128-bit internal counter advances one
/// block per 4 outputs.
class PhiloxEngine {
 public:
  using result_type = uint32_t;

  explicit PhiloxEngine(uint64_t key) {
    key_[0] = static_cast<uint32_t>(key);
    key_[1] = static_cast<uint32_t>(key >> 32);
    counter_ = {0, 0, 0, 0};
    index_ = 4;  // Force a refill on first use.
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return 0xffffffffu; }

  result_type operator()() {
    if (index_ == 4) {
      block_ = Philox4x32(counter_, key_);
      IncrementCounter();
      index_ = 0;
    }
    return block_[index_++];
  }

  uint64_t NextUInt64() {
    uint64_t lo = (*this)();
    uint64_t hi = (*this)();
    return (hi << 32) | lo;
  }

  /// Writes the next `n` outputs to `out`: exactly the values, and the
  /// engine state, that `n` calls of operator() would leave. The buffered
  /// block drains first; whole 16-block groups then come from the bulk
  /// kernel, and a group whose counters would carry out of word 0 falls
  /// back to the scalar block function.
  void Fill(uint32_t* out, size_t n);

  /// Skips ahead to block `block_index`, discarding buffered output. Used by
  /// tests to verify counter-mode addressing.
  void SeekToBlock(uint64_t block_index) {
    counter_ = {static_cast<uint32_t>(block_index),
                static_cast<uint32_t>(block_index >> 32), 0, 0};
    index_ = 4;
  }

 private:
  void IncrementCounter() {
    for (int i = 0; i < 4; ++i) {
      if (++counter_[i] != 0) break;
    }
  }

  PhiloxKey key_;
  PhiloxCounter counter_;
  PhiloxBlock block_;
  int index_;
};

/// SplitMix64 finalizer — used to derive Philox keys from structured stream
/// identifiers. Bijective, well-mixed; the standard seeding mixer.
uint64_t SplitMix64(uint64_t x);

}  // namespace fats

#endif  // FATS_RNG_PHILOX_H_
