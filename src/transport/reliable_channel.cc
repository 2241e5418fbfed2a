#include "transport/reliable_channel.h"

#include <utility>

#include "util/failpoint.h"
#include "util/logging.h"

namespace fats::transport {
namespace {

// True when a decoded frame is the one `address` is waiting for, of the
// awaited `type`. Anything else that validates is a stale duplicate from an
// earlier delivery.
bool Matches(const WireMessage& message, const MessageAddress& address,
             MessageType type) {
  return message.type == type &&
         message.round == static_cast<uint64_t>(address.round) &&
         message.iteration == static_cast<uint64_t>(address.iteration) &&
         message.client == static_cast<uint64_t>(address.client) &&
         message.seq == address.seq;
}

}  // namespace

Result<Delivery> ReliableChannel::Deliver(const MessageAddress& address,
                                          MessageType type,
                                          std::string_view payload) {
  WireMessage message;
  message.type = type;
  message.round = static_cast<uint64_t>(address.round);
  message.iteration = static_cast<uint64_t>(address.iteration);
  message.client = static_cast<uint64_t>(address.client);
  message.seq = address.seq;
  message.payload.assign(payload.data(), payload.size());
  // The frame is frozen once: every retransmission re-sends these exact
  // bytes, so the only thing retries can change is the ledger.
  const std::string frame = EncodeFrame(message);
  const auto frame_bytes = static_cast<int64_t>(frame.size());

  Delivery delivery;
  delivery.payload_bytes = static_cast<int64_t>(payload.size());

  const int64_t max_retries =
      faults_.enabled() ? faults_.spec().max_retries : 0;
  for (int64_t attempt = 0; attempt <= max_retries; ++attempt) {
    ++stats_.attempts;
    if (attempt > 0) {
      ++stats_.retransmits;
      stats_.retransmit_bytes += frame_bytes;
      ++delivery.retransmits;
      delivery.retransmit_bytes += frame_bytes;
    }
    FATS_FAILPOINT("transport.send");
    const FaultAction action =
        faults_.Decide(address.direction, address.round, address.iteration,
                       address.client, address.seq, attempt);
    bool pushed = false;
    switch (action) {
      case FaultAction::kDrop:
        // Lost in flight: nothing reaches the lane.
        break;
      case FaultAction::kCorrupt: {
        std::string corrupted = frame;
        if (!message.payload.empty()) {
          const uint64_t bit = faults_.CorruptBitIndex(
              address.direction, address.round, address.iteration,
              address.client, address.seq, attempt,
              static_cast<uint64_t>(message.payload.size()) * 8);
          corrupted[static_cast<size_t>(kFrameHeaderBytes) + bit / 8] ^=
              static_cast<char>(1u << (bit % 8));
        } else {
          // No payload bits to flip: damage the CRC field instead.
          corrupted[static_cast<size_t>(kFrameHeaderBytes) - 1] ^= 1;
        }
        FATS_CHECK(transport_->PushFrame(address.direction, corrupted).ok())
            << "transport lane overflow (corrupt path)";
        pushed = true;
        break;
      }
      case FaultAction::kTruncate: {
        const uint64_t keep = faults_.TruncatedLength(
            address.direction, address.round, address.iteration,
            address.client, address.seq, attempt,
            static_cast<uint64_t>(frame.size()));
        FATS_CHECK(transport_
                       ->PushFrame(address.direction,
                                   std::string_view(frame).substr(0, keep))
                       .ok())
            << "transport lane overflow (truncate path)";
        pushed = true;
        break;
      }
      case FaultAction::kDuplicate:
        FATS_CHECK(transport_->PushFrame(address.direction, frame).ok())
            << "transport lane overflow";
        FATS_CHECK(transport_->PushFrame(address.direction, frame).ok())
            << "transport lane overflow (duplicate copy)";
        // The redundant copy is extra wire traffic the ledger must see.
        ++stats_.retransmits;
        stats_.retransmit_bytes += frame_bytes;
        ++delivery.retransmits;
        delivery.retransmit_bytes += frame_bytes;
        pushed = true;
        break;
      case FaultAction::kDelay: {
        const int64_t wait = faults_.BackoffUnits(
            address.direction, address.round, address.iteration,
            address.client, address.seq, attempt);
        stats_.backoff_units += wait;
        delivery.backoff_units += wait;
        FATS_CHECK(transport_->PushFrame(address.direction, frame).ok())
            << "transport lane overflow (delay path)";
        pushed = true;
        break;
      }
      case FaultAction::kNone:
        FATS_CHECK(transport_->PushFrame(address.direction, frame).ok())
            << "transport lane overflow";
        pushed = true;
        break;
    }

    // Receiver side: drain the lane until the expected frame validates or
    // the lane runs dry (the virtual-time receive timeout).
    bool received = false;
    while (pushed) {
      FATS_FAILPOINT("transport.recv");
      Result<std::string> popped = transport_->PopFrame(address.direction);
      if (!popped.ok()) break;
      // Integrity check: length + CRC validation of the raw frame. This is
      // where an injected corruption is caught and rejected.
      FATS_FAILPOINT("transport.corrupt_frame");
      Result<WireMessage> decoded = DecodeFrame(*popped);
      if (!decoded.ok()) {
        if (popped->size() < frame.size()) {
          ++stats_.truncation_rejects;
        } else {
          ++stats_.crc_rejects;
        }
        continue;  // reject-and-renegotiate: ask for a retransmission
      }
      if (!Matches(*decoded, address, type)) {
        ++stats_.duplicates_discarded;
        continue;
      }
      delivery.message = std::move(*decoded);
      received = true;
      break;
    }
    if (received) {
      if (attempt == max_retries && attempt > 0) {
        delivery.forced = true;
        ++stats_.forced_deliveries;
      }
      ++stats_.messages;
      return delivery;
    }

    ++stats_.timeouts;
    const int64_t wait =
        faults_.BackoffUnits(address.direction, address.round,
                             address.iteration, address.client, address.seq,
                             attempt);
    stats_.backoff_units += wait;
    delivery.backoff_units += wait;
  }
  // Unreachable: the fault model forces attempt == max_retries clean.
  return Status::Internal("transport delivery failed past the retry budget");
}

Result<ModelDelivery> ReliableChannel::DeliverModel(
    const MessageAddress& address, const EncodedModel& model) {
  const MessageType type = address.direction == Direction::kDownlink
                               ? MessageType::kModelBroadcast
                               : MessageType::kModelUpdate;
  FATS_ASSIGN_OR_RETURN(Delivery delivery,
                        Deliver(address, type, model.payload()));
  FATS_ASSIGN_OR_RETURN(Tensor params,
                        DecodeModelPayload(delivery.message.payload));
  ModelDelivery result;
  result.params = std::move(params);
  result.payload_bytes = delivery.payload_bytes;
  result.retransmits = delivery.retransmits;
  result.retransmit_bytes = delivery.retransmit_bytes;
  result.backoff_units = delivery.backoff_units;
  result.forced = delivery.forced;
  return result;
}

}  // namespace fats::transport
