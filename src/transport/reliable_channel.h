// Reliable delivery over a lossy transport.
//
// ReliableChannel turns the unreliable frame lanes of a LocalTransport into
// exactly-once message delivery: every logical send is framed
// (wire_format.h), pushed, received, and validated; a frame the fault
// model drops, truncates, or bit-flips is detected by the receiver (length
// check, CRC) and renegotiated — the sender backs off
// min(cap, base << attempt) + jitter virtual time units (jitter drawn from
// the same per-attempt fault stream, so backoff is as replayable as the
// fault itself) and retransmits. Duplicated frames are deduplicated by the
// (round, iteration, client, seq) address. Attempts at or past the retry
// budget are forced clean by the fault model (fault_injection.h), so
// delivery always terminates — exhaustion degrades into the availability
// path's forced-through semantics, never an abort.
//
// Time is virtual: backoff units are accounted, not slept, which keeps the
// fault matrix fast and schedule-independent. Three failpoint sites let
// the crash matrix kill inside a delivery: `transport.send` (before each
// push attempt), `transport.recv` (before each receive), and
// `transport.corrupt_frame` (the receiver's integrity check, where an
// injected corruption is caught).
//
// Determinism contract (DESIGN.md §7.7): the delivered payload is byte-
// identical to the sent payload (retries re-send the same frozen frame;
// validation rejects anything else), and the retry schedule is a pure
// function of (fault seed, message address, attempt). Hence a faulty run
// differs from a clean run only in the retransmit/backoff counters — the
// basis of transport_exactness_test.
//
// The channel itself never touches CommStats (that would invert the
// fl -> transport layering); each delivery returns a receipt the caller
// charges to its ledger.

#ifndef FATS_TRANSPORT_RELIABLE_CHANNEL_H_
#define FATS_TRANSPORT_RELIABLE_CHANNEL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "tensor/tensor.h"
#include "transport/fault_injection.h"
#include "transport/transport.h"
#include "transport/wire_format.h"
#include "util/status.h"

namespace fats::transport {

/// A model payload encoded once and deliverable many times (the round
/// broadcast sends one encoding to K selection slots).
class EncodedModel {
 public:
  explicit EncodedModel(const Tensor& params)
      : payload_(EncodeModelPayload(params)) {}

  const std::string& payload() const { return payload_; }
  int64_t payload_bytes() const {
    return static_cast<int64_t>(payload_.size());
  }

 private:
  std::string payload_;
};

/// Logical address of one delivery. `seq` distinguishes sends that share
/// (round, iteration, client) — e.g. the K broadcast slots of one round —
/// and is the receiver's dedup key.
struct MessageAddress {
  Direction direction = Direction::kDownlink;
  int64_t round = 0;
  int64_t iteration = 0;
  int64_t client = 0;
  uint32_t seq = 0;
};

/// Receipt of one completed delivery. `payload_bytes` is the clean charge
/// (what the analytic ledger counts); `retransmits`/`retransmit_bytes`
/// cover every extra frame the faults cost (retries and duplicate copies);
/// `backoff_units` is the virtual wait time; `forced` marks a delivery
/// that exhausted the retry budget and went through on the forced final
/// attempt.
struct Delivery {
  WireMessage message;
  int64_t payload_bytes = 0;
  int64_t retransmits = 0;
  int64_t retransmit_bytes = 0;
  int64_t backoff_units = 0;
  bool forced = false;
};

/// Receipt with the decoded model (DeliverModel).
struct ModelDelivery {
  Tensor params;
  int64_t payload_bytes = 0;
  int64_t retransmits = 0;
  int64_t retransmit_bytes = 0;
  int64_t backoff_units = 0;
  bool forced = false;
};

/// Cumulative channel counters (tests and bench introspection).
struct ChannelStats {
  int64_t messages = 0;          // logical deliveries completed
  int64_t attempts = 0;          // transmission attempts, incl. the first
  int64_t retransmits = 0;       // extra frames (retries + duplicate copies)
  int64_t retransmit_bytes = 0;  // their wire bytes (header + payload)
  int64_t crc_rejects = 0;       // frames refused by the CRC check
  int64_t truncation_rejects = 0;  // frames refused by the length checks
  int64_t duplicates_discarded = 0;  // stale copies deduplicated by seq
  int64_t timeouts = 0;          // receive windows that saw no frame
  int64_t backoff_units = 0;     // total virtual backoff time
  int64_t forced_deliveries = 0;  // deliveries that exhausted the budget
};

class ReliableChannel {
 public:
  /// `transport` is borrowed and must outlive the channel.
  ReliableChannel(LocalTransport* transport, const TransportFaultSpec& spec)
      : transport_(transport), faults_(spec) {}

  /// Delivers one message and returns what the receiver decoded. The
  /// payload is copied into the frame; `type` tags it on the wire.
  Result<Delivery> Deliver(const MessageAddress& address, MessageType type,
                           std::string_view payload);

  /// Model convenience: frames `model` (type kModelBroadcast on the
  /// downlink, kModelUpdate on the uplink) and decodes the received
  /// payload back into a flat parameter tensor.
  Result<ModelDelivery> DeliverModel(const MessageAddress& address,
                                     const EncodedModel& model);

  const ChannelStats& stats() const { return stats_; }
  const TransportFaultSpec& fault_spec() const { return faults_.spec(); }

 private:
  LocalTransport* transport_;
  TransportFaultModel faults_;
  ChannelStats stats_;
};

}  // namespace fats::transport

#endif  // FATS_TRANSPORT_RELIABLE_CHANNEL_H_
