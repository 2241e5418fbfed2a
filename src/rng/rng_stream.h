// Hierarchical, addressable random streams.
//
// Every random decision in the system is drawn from a stream addressed by a
// structured StreamId: (purpose, generation, round, client, iteration). The
// stream contents are a pure function of (root_seed, StreamId), which gives
// the two properties FATS' unlearning proof relies on:
//
//   * Replay: re-running training with the same root seed reproduces every
//     sampling decision bit-identically (the reused part of the coupling).
//   * Fresh suffix: bumping `generation` for iterations >= t_S yields streams
//     independent of everything drawn before, so a re-computation after a
//     deletion draws from the *updated* measure with fresh randomness
//     (the re-sampled part of the coupling in Theorem 1).
//
// Bulk draws (RngStream::FillGaussian, over PhiloxEngine::Fill) are the
// scalar draws computed in groups: each is contractually n scalar calls,
// stream state included, so a consumer that switches to them draws the same
// bytes and leaves the stream where the scalar loop would.

#ifndef FATS_RNG_RNG_STREAM_H_
#define FATS_RNG_RNG_STREAM_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>

#include "rng/philox.h"

namespace fats {

/// What a stream is used for. Part of the stream address so that, e.g.,
/// client sampling in round r and mini-batch sampling in round r are
/// independent.
enum class RngPurpose : uint32_t {
  kModelInit = 1,
  kClientSampling = 2,
  kMinibatchSampling = 3,
  kDataGeneration = 4,
  kPartition = 5,
  kAttack = 6,
  kEvaluation = 7,
  kGeneric = 8,
  /// Client availability draws for dropout simulation. A separate purpose so
  /// the dropout schedule never perturbs any training stream; the
  /// `generation` field of availability StreamIds carries the retry attempt.
  kAvailability = 9,
  /// Transport fault draws (drop/corrupt/truncate/duplicate/delay per
  /// transmission attempt, see transport/fault_injection.h). Separate from
  /// every training purpose so a fault sweep never perturbs training
  /// randomness; the `generation` field packs (direction, seq, attempt).
  kTransportFaults = 10,
};

/// Structured address of a random stream.
struct StreamId {
  RngPurpose purpose = RngPurpose::kGeneric;
  /// Re-computation epoch. Incremented for the retrained suffix whenever an
  /// unlearning request triggers re-computation, so the suffix randomness is
  /// independent of the original run's.
  uint64_t generation = 0;
  /// Communication round (1-based; 0 when not applicable).
  uint64_t round = 0;
  /// Client index (0-based; kNoClient when not applicable).
  uint64_t client = kNoClient;
  /// Local iteration within the round (1-based; 0 when not applicable).
  uint64_t iteration = 0;

  static constexpr uint64_t kNoClient = ~0ull;

  std::string ToString() const;
};

/// Derives the 64-bit Philox key for (root_seed, id). Collision-resistant in
/// practice: SplitMix64 chained over all fields.
uint64_t DeriveStreamKey(uint64_t root_seed, const StreamId& id);

/// A single addressable random stream. Cheap to construct; construct one per
/// decision point rather than threading generator state around.
class RngStream {
 public:
  RngStream(uint64_t root_seed, const StreamId& id)
      : engine_(DeriveStreamKey(root_seed, id)) {}

  /// Constructs from a raw key (used by tests).
  explicit RngStream(uint64_t raw_key) : engine_(raw_key) {}

  uint32_t NextUInt32() { return engine_(); }
  uint64_t NextUInt64() { return engine_.NextUInt64(); }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble() { return ToUnitDouble(engine_.NextUInt64()); }

  /// Uniform integer in [0, n). Requires n > 0. Uses Lemire-style rejection
  /// to avoid modulo bias.
  uint64_t UniformInt(uint64_t n);

  /// Standard normal via Box-Muller (no state carried between calls; the
  /// second variate is discarded to keep draws addressable).
  double NextGaussian();

  /// Writes `n` standard normals: exactly the values, and the stream state,
  /// of `n` NextGaussian() calls. The uniforms come from the engine's bulk
  /// Fill in fixed-size chunks (no heap allocation); log, sqrt and cos stay
  /// the scalar libm calls of NextGaussian, in the same expression, because
  /// vector math libraries do not round like glibc.
  void FillGaussian(double* out, size_t n);

  /// Bernoulli(p).
  bool NextBernoulli(double p) { return NextDouble() < p; }

  PhiloxEngine& engine() { return engine_; }

 private:
  static double ToUnitDouble(uint64_t bits) {
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
  }

  PhiloxEngine engine_;
};

}  // namespace fats

#endif  // FATS_RNG_RNG_STREAM_H_
