#include "util/crc32.h"

#include <array>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FATS_CRC32_X86 1
#include <immintrin.h>
#endif

namespace fats {
namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;

// kTables[0] is the classic byte table; kTables[k][i] is the CRC of byte i
// followed by k zero bytes, so one lookup per input byte of a 16-byte
// block advances the register across the whole block at once.
using SliceTables = std::array<std::array<uint32_t, 256>, 16>;

constexpr SliceTables MakeSliceTables() {
  SliceTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPolynomial : 0u);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (size_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr SliceTables kTables = MakeSliceTables();

// Little-endian word from four bytes: no unaligned or aliasing load, and
// the same value on any host byte order.
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

#if FATS_CRC32_X86
// Folding constants for the reflected polynomial, in the bit-reflected
// domain of Gopal et al., "Fast CRC Computation for Generic Polynomials
// Using PCLMULQDQ Instruction" (Intel, 2009). With P = 0x104C11DB7 and r(v)
// the 32-bit reflection of v, each k is r(x^n mod P) << 1:
//   kFold4Lo/Hi  n = 4*128+32 / 4*128-32   (advance 512 bits)
//   kFold1Lo/Hi  n = 128+32 / 128-32       (advance 128 bits)
//   kFold64      n = 64                    (128 -> 64 bits)
// and the Barrett pair is P' = r33(P) and mu' = r33(x^64 / P).
constexpr uint64_t kFold4Lo = 0x154442BD4u;
constexpr uint64_t kFold4Hi = 0x1C6E41596u;
constexpr uint64_t kFold1Lo = 0x1751997D0u;
constexpr uint64_t kFold1Hi = 0x0CCAA009Eu;
constexpr uint64_t kFold64 = 0x163CD6124u;
constexpr uint64_t kBarrettPoly = 0x1DB710641u;
constexpr uint64_t kBarrettMu = 0x1F7011641u;

__attribute__((target("pclmul,sse4.1,avx"))) inline __m128i Fold(
    __m128i acc, __m128i constants) {
  return _mm_xor_si128(_mm_clmulepi64_si128(acc, constants, 0x00),
                       _mm_clmulepi64_si128(acc, constants, 0x11));
}

__attribute__((target("pclmul,sse4.1,avx"))) inline __m128i Load128(
    const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Advances the CRC register `crc` (not inverted) over `len` bytes, where
// len >= 64 and len % 16 == 0. Every load is a whole 16-byte block inside
// [bytes, bytes + len).
__attribute__((target("pclmul,sse4.1,avx"))) uint32_t FoldPclmul(
    uint32_t crc, const unsigned char* bytes, size_t len) {
  __m128i a0 = _mm_xor_si128(Load128(bytes),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i a1 = Load128(bytes + 16);
  __m128i a2 = Load128(bytes + 32);
  __m128i a3 = Load128(bytes + 48);
  bytes += 64;
  len -= 64;

  // Four independent accumulators, each advanced 512 bits per step.
  const __m128i fold4 = _mm_set_epi64x(kFold4Hi, kFold4Lo);
  for (; len >= 64; len -= 64, bytes += 64) {
    a0 = _mm_xor_si128(Fold(a0, fold4), Load128(bytes));
    a1 = _mm_xor_si128(Fold(a1, fold4), Load128(bytes + 16));
    a2 = _mm_xor_si128(Fold(a2, fold4), Load128(bytes + 32));
    a3 = _mm_xor_si128(Fold(a3, fold4), Load128(bytes + 48));
  }

  // Merge into one accumulator, then fold the remaining 16-byte blocks.
  const __m128i fold1 = _mm_set_epi64x(kFold1Hi, kFold1Lo);
  __m128i acc = _mm_xor_si128(Fold(a0, fold1), a1);
  acc = _mm_xor_si128(Fold(acc, fold1), a2);
  acc = _mm_xor_si128(Fold(acc, fold1), a3);
  for (; len >= 16; len -= 16, bytes += 16) {
    acc = _mm_xor_si128(Fold(acc, fold1), Load128(bytes));
  }

  // 128 -> 64 bits: the low half times x^(128-32), plus the high half.
  const __m128i mask32 = _mm_setr_epi32(-1, 0, -1, 0);
  acc = _mm_xor_si128(_mm_srli_si128(acc, 8),
                      _mm_clmulepi64_si128(acc, fold1, 0x10));
  // 64 -> 32 bits of remainder input: the low word times x^64.
  acc = _mm_xor_si128(
      _mm_srli_si128(acc, 4),
      _mm_clmulepi64_si128(_mm_and_si128(acc, mask32),
                           _mm_set_epi64x(0, kFold64), 0x00));
  // Barrett reduction to the 32-bit register, left in dword 1.
  const __m128i barrett = _mm_set_epi64x(kBarrettMu, kBarrettPoly);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(acc, mask32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), barrett, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(acc, t), 1));
}

// AVX is required only for the VEX encoding of the same 128-bit
// instructions: the legacy SSE encoding, run between the AVX-512 GEMM
// kernels, made the next local SGD steps ~10% slower (e2ebench nn.step_us,
// million_clients, 4-vCPU Xeon VM); the VEX encoding did not.
bool DetectPclmul() {
  return __builtin_cpu_supports("pclmul") != 0 &&
         __builtin_cpu_supports("sse4.1") != 0 &&
         __builtin_cpu_supports("avx") != 0;
}
#else
bool DetectPclmul() { return false; }
#endif

// Resolved once at static-init time; a pure function of the host CPU. Both
// paths compute the same function, so the choice never shows in a byte.
const bool kUsePclmul = DetectPclmul();

}  // namespace

namespace internal {

uint32_t Crc32Portable(const void* data, size_t len, uint32_t seed) {
  uint32_t crc = ~seed;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (; len >= 16; len -= 16, bytes += 16) {
    const uint32_t w0 = crc ^ LoadLe32(bytes);
    const uint32_t w1 = LoadLe32(bytes + 4);
    const uint32_t w2 = LoadLe32(bytes + 8);
    const uint32_t w3 = LoadLe32(bytes + 12);
    crc = kTables[15][w0 & 0xFF] ^ kTables[14][(w0 >> 8) & 0xFF] ^
          kTables[13][(w0 >> 16) & 0xFF] ^ kTables[12][w0 >> 24] ^
          kTables[11][w1 & 0xFF] ^ kTables[10][(w1 >> 8) & 0xFF] ^
          kTables[9][(w1 >> 16) & 0xFF] ^ kTables[8][w1 >> 24] ^
          kTables[7][w2 & 0xFF] ^ kTables[6][(w2 >> 8) & 0xFF] ^
          kTables[5][(w2 >> 16) & 0xFF] ^ kTables[4][w2 >> 24] ^
          kTables[3][w3 & 0xFF] ^ kTables[2][(w3 >> 8) & 0xFF] ^
          kTables[1][(w3 >> 16) & 0xFF] ^ kTables[0][w3 >> 24];
  }
  for (; len > 0; --len, ++bytes) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *bytes) & 0xFF];
  }
  return ~crc;
}

}  // namespace internal

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
#if FATS_CRC32_X86
  if (kUsePclmul && len >= 64) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    const size_t folded = len & ~size_t{15};
    const uint32_t crc = FoldPclmul(~seed, bytes, folded);
    return internal::Crc32Portable(bytes + folded, len - folded, ~crc);
  }
#endif
  return internal::Crc32Portable(data, len, seed);
}

}  // namespace fats
