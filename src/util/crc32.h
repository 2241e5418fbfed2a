// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320).
//
// One checksum for every framed byte stream in the tree: the durable
// journal (io/journal.h) and the wire frames of the transport layer
// (transport/wire_format.h) share this implementation, so a frame that
// round-trips one subsystem's validation round-trips the other's too.
//
// Two paths compute the same function. On x86-64 hosts with PCLMULQDQ,
// SSE4.1 and AVX (checked once at static-init time; AVX only for the VEX
// encoding of the 128-bit instructions), inputs of 64 bytes or more
// are folded with carry-less multiplies: four 128-bit accumulators advance
// 64 bytes per step, fold down to one, and a Barrett step reduces it to the
// 32-bit register; the fold reads only whole 16-byte blocks inside the
// input, and the last len % 16 bytes go to the portable loop. Everywhere
// else, and for shorter inputs, the portable loop is the whole path: it is
// slicing-by-16, sixteen 256-entry tables built at compile time folding one
// 16-byte block per step, then a byte loop. Either output is bit for bit
// that of the byte-at-a-time table loop for the same polynomial, which the
// wire, journal, spill and checkpoint formats were written with
// (tests/journal_test.cc checks both paths against that loop;
// tests/transport_test.cc pins a golden frame).

#ifndef FATS_UTIL_CRC32_H_
#define FATS_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace fats {

/// CRC-32 (IEEE, reflected, polynomial 0xEDB88320) of `len` bytes.
/// Chainable via `seed` (pass a previous result to continue).
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

namespace internal {

/// The slicing-by-16 loop alone, same contract as Crc32. Exposed so tests
/// reach it on hosts where Crc32 dispatches to the carry-less-multiply
/// path; callers use Crc32.
uint32_t Crc32Portable(const void* data, size_t len, uint32_t seed = 0);

}  // namespace internal
}  // namespace fats

#endif  // FATS_UTIL_CRC32_H_
