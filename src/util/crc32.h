// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320).
//
// One checksum for every framed byte stream in the tree: the durable
// journal (io/journal.h) and the wire frames of the transport layer
// (transport/wire_format.h) share this implementation, so a frame that
// round-trips one subsystem's validation round-trips the other's too.
//
// The loop is slicing-by-16: sixteen 256-entry tables, built at compile
// time, fold one 16-byte block per step, and a byte loop takes the last
// len % 16 bytes. Its output is bit for bit that of the byte-at-a-time
// table loop for the same polynomial, which the wire, journal, spill and
// checkpoint formats were written with (tests/journal_test.cc checks it
// against that loop; tests/transport_test.cc pins a golden frame).

#ifndef FATS_UTIL_CRC32_H_
#define FATS_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace fats {

/// CRC-32 (IEEE, reflected, polynomial 0xEDB88320) of `len` bytes.
/// Chainable via `seed` (pass a previous result to continue).
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

}  // namespace fats

#endif  // FATS_UTIL_CRC32_H_
