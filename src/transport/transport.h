// The wire: moving encoded frames between endpoints.
//
// LocalTransport owns two independent directed lanes — downlink (server ->
// clients) and uplink (clients -> server) — each a bounded in-process ring
// buffer of opaque encoded frames (transport/wire_format.h). It knows
// nothing about retries, faults, or ledger accounting; that is the
// reliable channel's job (transport/reliable_channel.h).
//
// The trainer is both producer and consumer, on its main thread (client
// workers never touch the wire), so the lanes are plain rings: no lock, no
// blocking, and a full or empty lane is an immediate error. A
// LocalTransport must not be shared across threads.

#ifndef FATS_TRANSPORT_TRANSPORT_H_
#define FATS_TRANSPORT_TRANSPORT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace fats::transport {

/// Which lane a frame travels on.
enum class Direction : uint8_t {
  kDownlink = 0,  // server -> client
  kUplink = 1,    // client -> server
};

const char* DirectionName(Direction direction);

/// In-process bounded ring buffer, one ring per direction.
class LocalTransport {
 public:
  /// `capacity` frames per lane (>= 1).
  explicit LocalTransport(int64_t capacity = kDefaultCapacity);

  /// Enqueues one encoded frame. ResourceExhausted-style failure
  /// (FailedPrecondition) when the lane is full.
  Status PushFrame(Direction direction, std::string_view frame);

  /// Dequeues the oldest frame, or NotFound when the lane is empty (the
  /// virtual-time analogue of a receive timeout).
  Result<std::string> PopFrame(Direction direction);

  /// Frames currently queued on `direction`.
  int64_t PendingFrames(Direction direction) const;

  int64_t capacity() const { return capacity_; }

  static constexpr int64_t kDefaultCapacity = 64;

 private:
  struct Lane {
    std::vector<std::string> ring;
    size_t head = 0;  // index of the oldest frame
    size_t size = 0;  // frames queued
  };

  Lane& LaneFor(Direction direction) {
    return lanes_[static_cast<size_t>(direction)];
  }
  const Lane& LaneFor(Direction direction) const {
    return lanes_[static_cast<size_t>(direction)];
  }

  const int64_t capacity_;
  Lane lanes_[2];
};

}  // namespace fats::transport

#endif  // FATS_TRANSPORT_TRANSPORT_H_
