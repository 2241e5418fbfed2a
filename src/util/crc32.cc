#include "util/crc32.h"

#include <array>

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

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
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

}  // namespace fats
