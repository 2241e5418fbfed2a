#include "rng/rng_stream.h"

#include <algorithm>
#include <cmath>

#include "util/string_util.h"

namespace fats {
namespace {

// The one Box-Muller transform, shared by NextGaussian and FillGaussian so
// the two cannot drift. u1 is kept away from zero to avoid log(0).
inline double BoxMuller(double u1, double u2) {
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

}  // namespace

std::string StreamId::ToString() const {
  return StrFormat("StreamId{purpose=%u, gen=%llu, round=%llu, client=%lld, "
                   "iter=%llu}",
                   static_cast<uint32_t>(purpose),
                   static_cast<unsigned long long>(generation),
                   static_cast<unsigned long long>(round),
                   client == kNoClient
                       ? -1ll
                       : static_cast<long long>(client),
                   static_cast<unsigned long long>(iteration));
}

uint64_t DeriveStreamKey(uint64_t root_seed, const StreamId& id) {
  uint64_t h = SplitMix64(root_seed);
  h = SplitMix64(h ^ static_cast<uint64_t>(id.purpose));
  h = SplitMix64(h ^ id.generation);
  h = SplitMix64(h ^ id.round);
  h = SplitMix64(h ^ id.client);
  h = SplitMix64(h ^ id.iteration);
  return h;
}

uint64_t RngStream::UniformInt(uint64_t n) {
  // Lemire's nearly-divisionless method with rejection for exact uniformity.
  uint64_t x = NextUInt64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < n) {
    uint64_t threshold = (0 - n) % n;
    while (low < threshold) {
      x = NextUInt64();
      m = static_cast<__uint128_t>(x) * n;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

double RngStream::NextGaussian() {
  const double u1 = NextDouble();
  const double u2 = NextDouble();
  return BoxMuller(u1, u2);
}

void RngStream::FillGaussian(double* out, size_t n) {
  // Four engine words per normal: u1's low and high word, then u2's.
  constexpr size_t kChunk = 64;
  uint32_t words[4 * kChunk];
  while (n > 0) {
    const size_t m = std::min(n, kChunk);
    engine_.Fill(words, 4 * m);
    for (size_t i = 0; i < m; ++i) {
      const uint32_t* w = words + 4 * i;
      out[i] = BoxMuller(ToUnitDouble((uint64_t{w[1]} << 32) | w[0]),
                         ToUnitDouble((uint64_t{w[3]} << 32) | w[2]));
    }
    out += m;
    n -= m;
  }
}

}  // namespace fats
