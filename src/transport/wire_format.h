// Versioned, CRC-framed wire format for federated messages.
//
// Every byte the comm ledger charges now exists as a real serialized frame:
//
//   u32  magic "FWR1" (0x31525746, little-endian on the wire)
//   u8   format version (1)
//   u8   message type (MessageType: 1 or 2)
//   u16  flags (0; reserved)
//   u64  round
//   u64  iteration
//   u64  client
//   u32  seq        (per-(round,iteration,client,direction) send sequence;
//                    receivers dedup duplicated frames by it)
//   u32  payload length
//   u32  CRC-32 of the payload (util/crc32.h, same polynomial as the
//        journal, 0xEDB88320)
//   ...  payload
//
// All integers little-endian. DecodeFrame validates magic, version, type,
// flags, length, and CRC and refuses the frame otherwise — a truncated or
// bit-flipped frame is *detected*, never silently consumed, which is what
// lets the reliable channel turn a lossy wire into an exact one (DESIGN.md
// §7.7). The CRC covers only the payload; the header fields are checked by
// value.
//
// Payload codecs: a model payload is the raw float32 image of the flat
// parameter vector — exactly 4·P bytes, so the per-message ledger charge
// computed from real payload sizes equals the analytic `K·d·4` byte counts
// the paper's Fig. 2 comparison (and the repo's invariants tests) assert.

#ifndef FATS_TRANSPORT_WIRE_FORMAT_H_
#define FATS_TRANSPORT_WIRE_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "tensor/tensor.h"
#include "util/status.h"

namespace fats::transport {

enum class MessageType : uint8_t {
  kModelBroadcast = 1,  // server -> client: round-start global model
  kModelUpdate = 2,     // client -> server: round-end local model
};

inline constexpr uint32_t kFrameMagic = 0x31525746;  // "FWR1"
inline constexpr uint8_t kWireVersion = 1;
/// Fixed header size prepended to every payload.
inline constexpr int64_t kFrameHeaderBytes = 44;

/// One decoded message. `payload` is opaque at this layer; the typed codecs
/// below interpret it per `type`.
struct WireMessage {
  MessageType type = MessageType::kModelBroadcast;
  uint64_t round = 0;
  uint64_t iteration = 0;
  uint64_t client = 0;
  uint32_t seq = 0;
  std::string payload;
};

/// Serializes header + payload into one contiguous frame.
std::string EncodeFrame(const WireMessage& message);

/// Parses and validates a frame. InvalidArgument on bad magic/version/
/// type/flags/length; IoError on a CRC mismatch (the retransmit trigger).
Result<WireMessage> DecodeFrame(std::string_view frame);

/// Raw float32 serialization of a parameter vector (4·P bytes, flat).
std::string EncodeModelPayload(const Tensor& params);
/// Inverse: a flat [P] tensor with bit-identical storage. The decoded
/// tensor is what trainers install and aggregate, so a run over the wire is
/// bitwise the run without it.
Result<Tensor> DecodeModelPayload(std::string_view payload);

}  // namespace fats::transport

#endif  // FATS_TRANSPORT_WIRE_FORMAT_H_
