// The wire: moving encoded frames between endpoints.
//
// LocalTransport owns two independent directed lanes — downlink (server ->
// clients) and uplink (clients -> server) — each a bounded in-process ring
// buffer of opaque encoded frames (transport/wire_format.h). It knows
// nothing about retries, faults, or ledger accounting; that is the
// reliable channel's job (transport/reliable_channel.h).
//
// The training path uses the non-blocking PushFrame/PopFrame pair on the
// main thread (the trainer is both producer and consumer, so blocking
// would deadlock); the blocking pair exists for genuinely concurrent
// endpoints (exercised under tsan by transport_test). All four are safe to
// call from any thread.

#ifndef FATS_TRANSPORT_TRANSPORT_H_
#define FATS_TRANSPORT_TRANSPORT_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
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

  /// Blocking variants for concurrent endpoints: wait until space/a frame
  /// is available or `timeout_ms` elapses (FailedPrecondition / NotFound on
  /// timeout). timeout_ms < 0 waits forever.
  Status PushFrameBlocking(Direction direction, std::string_view frame,
                           int64_t timeout_ms);
  Result<std::string> PopFrameBlocking(Direction direction,
                                       int64_t timeout_ms);

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

  // Callers hold mu_.
  bool PushLocked(Lane* lane, std::string_view frame);
  bool PopLocked(Lane* lane, std::string* frame);

  const int64_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable space_cv_;  // signals writers: a slot freed up
  std::condition_variable frame_cv_;  // signals readers: a frame arrived
  Lane lanes_[2];                     // guarded by mu_
};

}  // namespace fats::transport

#endif  // FATS_TRANSPORT_TRANSPORT_H_
