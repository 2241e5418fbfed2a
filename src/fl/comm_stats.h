// Byte-level communication accounting.
//
// Communication efficiency is one of the paper's two headline criteria; the
// benches report exact bytes moved. Since the transport layer landed, the
// model bytes are real serialized payloads (transport/wire_format.h): a
// model payload is the raw float32 image of the parameter vector, so the
// per-message charges recorded here still equal the analytic
// `clients · params · 4` counts the Fig. 2 comparison uses.
//
// Two ledgers live side by side:
//   * uplink/downlink bytes + per-direction message counts — the *clean*
//     cost of the protocol, identical with and without transport faults;
//   * retransmits / retransmit_bytes — the extra frames (full wire frames,
//     header included) a lossy wire cost on top. Only these may differ
//     between a faulty run and a clean one (the transport exactness
//     contract, DESIGN.md §7.7).

#ifndef FATS_FL_COMM_STATS_H_
#define FATS_FL_COMM_STATS_H_

#include <cstdint>
#include <string>

#include "tensor/tensor.h"
#include "transport/reliable_channel.h"

namespace fats {

/// Raw counter snapshot (checkpoint/journal restore and introspection).
struct CommCounters {
  int64_t rounds = 0;
  int64_t uplink_bytes = 0;
  int64_t downlink_bytes = 0;
  int64_t downlink_messages = 0;
  int64_t uplink_messages = 0;
  int64_t retransmits = 0;
  int64_t retransmit_bytes = 0;
};

class CommStats {
 public:
  CommStats() = default;

  /// Rebuilds an accumulator from raw counters (checkpoint restore).
  static CommStats FromCounters(const CommCounters& counters) {
    CommStats stats;
    stats.counters_ = counters;
    return stats;
  }

  /// Server -> clients model broadcast: `num_clients` copies of
  /// `model_params` float32 scalars (bulk analytic form; the transport
  /// path charges the same bytes one delivery at a time).
  void RecordBroadcast(int64_t num_clients, int64_t model_params) {
    counters_.downlink_bytes += num_clients * model_params * kBytesPerParam;
    counters_.downlink_messages += num_clients;
  }

  /// Clients -> server model upload.
  void RecordUpload(int64_t num_clients, int64_t model_params) {
    counters_.uplink_bytes += num_clients * model_params * kBytesPerParam;
    counters_.uplink_messages += num_clients;
  }

  /// One delivered downlink message of `payload_bytes` serialized bytes.
  void RecordDownlinkDelivery(int64_t payload_bytes) {
    counters_.downlink_bytes += payload_bytes;
    ++counters_.downlink_messages;
  }

  /// One delivered uplink message of `payload_bytes` serialized bytes.
  void RecordUplinkDelivery(int64_t payload_bytes) {
    counters_.uplink_bytes += payload_bytes;
    ++counters_.uplink_messages;
  }

  /// Extra frames a delivery needed beyond the clean send (retries and
  /// duplicate copies; `bytes` are full frame bytes, header included).
  void RecordRetransmits(int64_t count, int64_t bytes) {
    counters_.retransmits += count;
    counters_.retransmit_bytes += bytes;
  }

  void RecordRound() { ++counters_.rounds; }

  void Reset() { counters_ = CommCounters(); }

  /// Adds another accumulator's counters into this one.
  void Merge(const CommStats& other) {
    counters_.rounds += other.counters_.rounds;
    counters_.uplink_bytes += other.counters_.uplink_bytes;
    counters_.downlink_bytes += other.counters_.downlink_bytes;
    counters_.downlink_messages += other.counters_.downlink_messages;
    counters_.uplink_messages += other.counters_.uplink_messages;
    counters_.retransmits += other.counters_.retransmits;
    counters_.retransmit_bytes += other.counters_.retransmit_bytes;
  }

  int64_t rounds() const { return counters_.rounds; }
  int64_t uplink_bytes() const { return counters_.uplink_bytes; }
  int64_t downlink_bytes() const { return counters_.downlink_bytes; }
  /// Clean protocol bytes (excludes retransmissions, by design: the Fig. 2
  /// comparison is about the protocol, not the wire quality).
  int64_t total_bytes() const {
    return counters_.uplink_bytes + counters_.downlink_bytes;
  }
  int64_t messages() const {
    return counters_.downlink_messages + counters_.uplink_messages;
  }
  int64_t downlink_messages() const { return counters_.downlink_messages; }
  int64_t uplink_messages() const { return counters_.uplink_messages; }
  int64_t retransmits() const { return counters_.retransmits; }
  int64_t retransmit_bytes() const { return counters_.retransmit_bytes; }

  const CommCounters& counters() const { return counters_; }

  std::string ToString() const;

 private:
  static constexpr int64_t kBytesPerParam = 4;  // float32

  CommCounters counters_;
};

/// Moves one model through `channel` at `address` (see
/// transport/reliable_channel.h), charges the delivery's clean bytes and
/// retransmits to `stats`, counts a delivery that went through on the
/// forced final attempt in `*forced_deliveries`, and returns the decoded
/// parameters: bitwise the encoded ones, which is what keeps wire runs
/// exact. The FATS and FedAvg trainers send every model this way.
Tensor TransferModel(transport::ReliableChannel* channel,
                     const transport::MessageAddress& address,
                     const transport::EncodedModel& model, CommStats* stats,
                     int64_t* forced_deliveries);

}  // namespace fats

#endif  // FATS_FL_COMM_STATS_H_
