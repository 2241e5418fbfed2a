#include "rng/philox.h"

#include <algorithm>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FATS_PHILOX_X86 1
// GCC 12.2's AVX-512 integer intrinsics self-initialize an undefined source
// vector and trip -Wuninitialized where they are inlined (GCC bug 105593,
// fixed in 12.3); the warning is about the header, not this file.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

namespace fats {

namespace {

constexpr uint32_t kPhiloxM0 = 0xD2511F53u;
constexpr uint32_t kPhiloxM1 = 0xCD9E8D57u;
constexpr uint32_t kPhiloxW0 = 0x9E3779B9u;  // golden ratio
constexpr uint32_t kPhiloxW1 = 0xBB67AE85u;  // sqrt(3) - 1

inline uint32_t MulHiLo(uint32_t a, uint32_t b, uint32_t* hi) {
  uint64_t product = static_cast<uint64_t>(a) * b;
  *hi = static_cast<uint32_t>(product >> 32);
  return static_cast<uint32_t>(product);
}

inline PhiloxCounter SingleRound(const PhiloxCounter& ctr,
                                 const PhiloxKey& key) {
  uint32_t hi0;
  uint32_t lo0 = MulHiLo(kPhiloxM0, ctr[0], &hi0);
  uint32_t hi1;
  uint32_t lo1 = MulHiLo(kPhiloxM1, ctr[2], &hi1);
  return {hi1 ^ ctr[1] ^ key[0], lo1, hi0 ^ ctr[3] ^ key[1], lo0};
}

// The bulk kernel's unit: 16 blocks, 64 output words.
constexpr size_t kGroupBlocks = 16;
constexpr size_t kGroupWords = 4 * kGroupBlocks;
// A group whose first counter word is above this would carry out of word 0
// inside the group or at its end; it goes through the scalar engine, which
// carries into words 1-3.
constexpr uint32_t kLastCarryFreeStart = 0xFFFFFFFFu - kGroupBlocks;
// A tail shorter than a group is still computed as a whole group, the unused
// blocks discarded, once it spans 5 blocks. Timing Fill of 1-15 blocks from
// a block boundary on an AVX-512 Xeon (gcc 12, -O3): a group costs ~65 ns
// whatever the tail, the scalar engine ~16 ns per block, so the two tie at
// 4 blocks. Shorter tails go to the scalar engine.
constexpr size_t kMinBulkTailWords = 4 * 4 + 1;

#if FATS_PHILOX_X86
// 32x32 -> high 32 bits of each lane. mul_epu32 multiplies the even lanes
// only, so the odd lanes are shifted down for a second multiply and the two
// high halves are merged.
__attribute__((target("avx512f"))) inline __m512i MulHi(__m512i a,
                                                        __m512i m) {
  const __m512i even = _mm512_srli_epi64(_mm512_mul_epu32(a, m), 32);
  const __m512i odd = _mm512_mul_epu32(_mm512_srli_epi64(a, 32), m);
  return _mm512_mask_blend_epi32(0xAAAA, even, odd);
}

// Writes the 16 blocks for counters (start[0] + i, start[1], start[2],
// start[3]), i = 0..15, in block order. Requires start[0] <=
// kLastCarryFreeStart. Lane 4L + j (128-bit lane L, element j) holds block
// 4j + L, so the in-lane 4x4 unpack transpose at the end leaves blocks
// 4j..4j+3 in vector j and the four stores are already in block order.
__attribute__((target("avx512f"))) void PhiloxGroupAvx512(
    const PhiloxCounter& start, const PhiloxKey& key, uint32_t* out) {
  const __m512i offsets = _mm512_set_epi32(15, 11, 7, 3, 14, 10, 6, 2, 13, 9,
                                           5, 1, 12, 8, 4, 0);
  __m512i x0 = _mm512_add_epi32(
      _mm512_set1_epi32(static_cast<int>(start[0])), offsets);
  __m512i x1 = _mm512_set1_epi32(static_cast<int>(start[1]));
  __m512i x2 = _mm512_set1_epi32(static_cast<int>(start[2]));
  __m512i x3 = _mm512_set1_epi32(static_cast<int>(start[3]));
  const __m512i m0 = _mm512_set1_epi32(static_cast<int>(kPhiloxM0));
  const __m512i m1 = _mm512_set1_epi32(static_cast<int>(kPhiloxM1));
  uint32_t k0 = key[0];
  uint32_t k1 = key[1];
  for (int round = 0; round < 10; ++round) {
    const __m512i lo0 = _mm512_mullo_epi32(x0, m0);
    const __m512i hi0 = MulHi(x0, m0);
    const __m512i lo1 = _mm512_mullo_epi32(x2, m1);
    const __m512i hi1 = MulHi(x2, m1);
    x0 = _mm512_xor_si512(_mm512_xor_si512(hi1, x1),
                          _mm512_set1_epi32(static_cast<int>(k0)));
    x1 = lo1;
    x2 = _mm512_xor_si512(_mm512_xor_si512(hi0, x3),
                          _mm512_set1_epi32(static_cast<int>(k1)));
    x3 = lo0;
    k0 += kPhiloxW0;
    k1 += kPhiloxW1;
  }
  const __m512i t0 = _mm512_unpacklo_epi32(x0, x1);
  const __m512i t1 = _mm512_unpackhi_epi32(x0, x1);
  const __m512i t2 = _mm512_unpacklo_epi32(x2, x3);
  const __m512i t3 = _mm512_unpackhi_epi32(x2, x3);
  _mm512_storeu_si512(out, _mm512_unpacklo_epi64(t0, t2));
  _mm512_storeu_si512(out + 16, _mm512_unpackhi_epi64(t0, t2));
  _mm512_storeu_si512(out + 32, _mm512_unpacklo_epi64(t1, t3));
  _mm512_storeu_si512(out + 48, _mm512_unpackhi_epi64(t1, t3));
}

bool DetectAvx512() { return __builtin_cpu_supports("avx512f") != 0; }
#else
bool DetectAvx512() { return false; }
#endif

// Resolved once at static-init time; a pure function of the host CPU. Both
// paths compute the same words, so the choice never shows in a byte (and a
// Fill that runs before this initializer takes the portable path).
const bool kUseAvx512 = DetectAvx512();

}  // namespace

namespace internal {

bool PhiloxFillUsesAvx512() { return kUseAvx512; }

}  // namespace internal

PhiloxBlock Philox4x32(PhiloxCounter counter, PhiloxKey key) {
  for (int round = 0; round < 10; ++round) {
    counter = SingleRound(counter, key);
    key[0] += kPhiloxW0;
    key[1] += kPhiloxW1;
  }
  return counter;
}

void PhiloxEngine::Fill(uint32_t* out, size_t n) {
  for (; n > 0 && index_ < 4; --n) *out++ = block_[index_++];
  while (n > 0) {
#if FATS_PHILOX_X86
    if (kUseAvx512 && n >= kMinBulkTailWords &&
        counter_[0] <= kLastCarryFreeStart) {
      if (n >= kGroupWords) {
        PhiloxGroupAvx512(counter_, key_, out);
        counter_[0] += static_cast<uint32_t>(kGroupBlocks);
        out += kGroupWords;
        n -= kGroupWords;
        continue;
      }
      // The tail: keep its n words and buffer the block holding the last
      // one, as n scalar calls would.
      alignas(64) uint32_t group[kGroupWords];
      PhiloxGroupAvx512(counter_, key_, group);
      std::copy(group, group + n, out);
      const size_t blocks = (n + 3) / 4;
      std::copy(group + 4 * (blocks - 1), group + 4 * blocks, block_.begin());
      counter_[0] += static_cast<uint32_t>(blocks);
      index_ = static_cast<int>(n - 4 * (blocks - 1));
      return;
    }
#endif
    const size_t m = std::min(n, kGroupWords);
    for (size_t i = 0; i < m; ++i) out[i] = (*this)();
    out += m;
    n -= m;
  }
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace fats
