#include "transport/transport.h"

#include "util/logging.h"

namespace fats::transport {

const char* DirectionName(Direction direction) {
  return direction == Direction::kDownlink ? "downlink" : "uplink";
}

LocalTransport::LocalTransport(int64_t capacity) : capacity_(capacity) {
  FATS_CHECK_GE(capacity_, 1) << "LocalTransport capacity must be >= 1";
  for (Lane& lane : lanes_) {
    lane.ring.resize(static_cast<size_t>(capacity_));
  }
}

Status LocalTransport::PushFrame(Direction direction, std::string_view frame) {
  Lane& lane = LaneFor(direction);
  if (lane.size == static_cast<size_t>(capacity_)) {
    return Status::FailedPrecondition(
        std::string("transport lane full: ") + DirectionName(direction));
  }
  const size_t slot = (lane.head + lane.size) % static_cast<size_t>(capacity_);
  lane.ring[slot].assign(frame.data(), frame.size());
  ++lane.size;
  return Status::OK();
}

Result<std::string> LocalTransport::PopFrame(Direction direction) {
  Lane& lane = LaneFor(direction);
  if (lane.size == 0) {
    return Status::NotFound(std::string("transport lane empty: ") +
                            DirectionName(direction));
  }
  std::string frame = std::move(lane.ring[lane.head]);
  lane.ring[lane.head].clear();
  lane.head = (lane.head + 1) % static_cast<size_t>(capacity_);
  --lane.size;
  return frame;
}

int64_t LocalTransport::PendingFrames(Direction direction) const {
  return static_cast<int64_t>(LaneFor(direction).size);
}

}  // namespace fats::transport
