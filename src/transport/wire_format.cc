#include "transport/wire_format.h"

#include <cstring>

#include "util/crc32.h"
#include "util/string_util.h"

namespace fats::transport {
namespace {

// Sanity bound shared with the journal framing: a payload longer than this
// is corrupt, not large.
constexpr uint32_t kMaxPayloadBytes = uint32_t{1} << 30;

void PutU16(char* out, uint16_t value) {
  out[0] = static_cast<char>(value & 0xFF);
  out[1] = static_cast<char>((value >> 8) & 0xFF);
}

void PutU32(char* out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
}

void PutU64(char* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
}

uint16_t GetU16(const char* in) {
  return static_cast<uint16_t>(static_cast<unsigned char>(in[0]) |
                               (static_cast<unsigned char>(in[1]) << 8));
}

uint32_t GetU32(const char* in) {
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(static_cast<unsigned char>(in[i]))
             << (8 * i);
  }
  return value;
}

uint64_t GetU64(const char* in) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(static_cast<unsigned char>(in[i]))
             << (8 * i);
  }
  return value;
}

}  // namespace

std::string EncodeFrame(const WireMessage& message) {
  std::string frame(static_cast<size_t>(kFrameHeaderBytes), '\0');
  char* h = frame.data();
  PutU32(h + 0, kFrameMagic);
  h[4] = static_cast<char>(kWireVersion);
  h[5] = static_cast<char>(message.type);
  PutU16(h + 6, 0);  // flags
  PutU64(h + 8, message.round);
  PutU64(h + 16, message.iteration);
  PutU64(h + 24, message.client);
  PutU32(h + 32, message.seq);
  PutU32(h + 36, static_cast<uint32_t>(message.payload.size()));
  PutU32(h + 40, Crc32(message.payload.data(), message.payload.size()));
  frame.append(message.payload);
  return frame;
}

Result<WireMessage> DecodeFrame(std::string_view frame) {
  if (frame.size() < static_cast<size_t>(kFrameHeaderBytes)) {
    return Status::InvalidArgument(
        StrFormat("frame shorter than header: %zu bytes", frame.size()));
  }
  const char* h = frame.data();
  if (GetU32(h + 0) != kFrameMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  const auto version = static_cast<uint8_t>(h[4]);
  if (version != kWireVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported wire version %u", version));
  }
  const auto type = static_cast<uint8_t>(h[5]);
  if (type != static_cast<uint8_t>(MessageType::kModelBroadcast) &&
      type != static_cast<uint8_t>(MessageType::kModelUpdate)) {
    return Status::InvalidArgument(
        StrFormat("unknown message type %u", type));
  }
  const uint16_t flags = GetU16(h + 6);
  if (flags != 0) {
    return Status::InvalidArgument(
        StrFormat("reserved frame flags set: 0x%04x", flags));
  }
  const uint32_t payload_len = GetU32(h + 36);
  if (payload_len > kMaxPayloadBytes) {
    return Status::InvalidArgument("frame payload length implausible");
  }
  if (frame.size() !=
      static_cast<size_t>(kFrameHeaderBytes) + payload_len) {
    return Status::InvalidArgument(
        StrFormat("frame length mismatch: header says %u payload bytes, "
                  "frame carries %zu",
                  payload_len,
                  frame.size() - static_cast<size_t>(kFrameHeaderBytes)));
  }
  WireMessage message;
  message.type = static_cast<MessageType>(type);
  message.round = GetU64(h + 8);
  message.iteration = GetU64(h + 16);
  message.client = GetU64(h + 24);
  message.seq = GetU32(h + 32);
  message.payload.assign(frame.data() + kFrameHeaderBytes, payload_len);
  const uint32_t expected_crc = GetU32(h + 40);
  if (Crc32(message.payload.data(), message.payload.size()) != expected_crc) {
    return Status::IoError("frame payload CRC mismatch");
  }
  return message;
}

std::string EncodeModelPayload(const Tensor& params) {
  const std::vector<float>& values = params.storage();
  std::string payload(values.size() * sizeof(float), '\0');
  if (!values.empty()) {
    std::memcpy(payload.data(), values.data(), payload.size());
  }
  return payload;
}

Result<Tensor> DecodeModelPayload(std::string_view payload) {
  if (payload.size() % sizeof(float) != 0) {
    return Status::InvalidArgument(
        StrFormat("model payload of %zu bytes is not a float32 vector",
                  payload.size()));
  }
  const int64_t count = static_cast<int64_t>(payload.size() / sizeof(float));
  Tensor params({count});
  if (count > 0) {
    std::memcpy(params.storage().data(), payload.data(), payload.size());
  }
  return params;
}

}  // namespace fats::transport
