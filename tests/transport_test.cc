// Transport layer unit tests: wire frame codec (roundtrip + every reject
// path), the LocalTransport ring buffer (FIFO, bounds, blocking pairs under
// real concurrency — the tsan target), the deterministic fault model, and
// the reliable channel's retry/dedup/forced-delivery protocol.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "transport/fault_injection.h"
#include "transport/reliable_channel.h"
#include "transport/transport.h"
#include "transport/wire_format.h"
#include "tensor/tensor.h"
#include "util/crc32.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace fats {
namespace {

using transport::ChannelStats;
using transport::Direction;
using transport::EncodedModel;
using transport::FaultAction;
using transport::LocalTransport;
using transport::MessageAddress;
using transport::MessageType;
using transport::ReliableChannel;
using transport::TransportFaultModel;
using transport::TransportFaultSpec;
using transport::WireMessage;

WireMessage SampleMessage() {
  WireMessage m;
  m.type = MessageType::kModelUpdate;
  m.round = 7;
  m.iteration = 13;
  m.client = 3;
  m.seq = 2;
  m.payload = "the quick brown fox";
  return m;
}

// --- wire format ---

TEST(WireFormatTest, FrameRoundTripsEveryField) {
  const WireMessage m = SampleMessage();
  const std::string frame = transport::EncodeFrame(m);
  ASSERT_EQ(static_cast<int64_t>(frame.size()),
            transport::kFrameHeaderBytes +
                static_cast<int64_t>(m.payload.size()));
  Result<WireMessage> back = transport::DecodeFrame(frame);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->type, m.type);
  EXPECT_EQ(back->round, m.round);
  EXPECT_EQ(back->iteration, m.iteration);
  EXPECT_EQ(back->client, m.client);
  EXPECT_EQ(back->seq, m.seq);
  EXPECT_EQ(back->payload, m.payload);
}

TEST(WireFormatTest, EmptyPayloadRoundTrips) {
  WireMessage m = SampleMessage();
  m.payload.clear();
  Result<WireMessage> back =
      transport::DecodeFrame(transport::EncodeFrame(m));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->payload.empty());
}

TEST(WireFormatTest, BadMagicIsRejected) {
  std::string frame = transport::EncodeFrame(SampleMessage());
  frame[0] ^= 0xFF;
  Result<WireMessage> back = transport::DecodeFrame(frame);
  EXPECT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireFormatTest, WrongVersionIsRejected) {
  std::string frame = transport::EncodeFrame(SampleMessage());
  frame[4] = static_cast<char>(transport::kWireVersion + 1);
  EXPECT_FALSE(transport::DecodeFrame(frame).ok());
}

// The CRC covers only the payload, so header fields are checked by value:
// no single bit flip of a valid type byte names another valid type.
TEST(WireFormatTest, BitFlipInTypeByteIsRejected) {
  for (MessageType type :
       {MessageType::kModelBroadcast, MessageType::kModelUpdate}) {
    WireMessage m = SampleMessage();
    m.type = type;
    const std::string frame = transport::EncodeFrame(m);
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = frame;
      flipped[5] = static_cast<char>(flipped[5] ^ (1 << bit));
      Result<WireMessage> back = transport::DecodeFrame(flipped);
      ASSERT_FALSE(back.ok()) << "type " << static_cast<int>(type)
                              << " bit " << bit;
      EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(WireFormatTest, BitFlipInReservedFlagsIsRejected) {
  const std::string frame = transport::EncodeFrame(SampleMessage());
  for (int bit = 0; bit < 16; ++bit) {
    std::string flipped = frame;
    flipped[static_cast<size_t>(6 + bit / 8)] ^=
        static_cast<char>(1 << (bit % 8));
    Result<WireMessage> back = transport::DecodeFrame(flipped);
    ASSERT_FALSE(back.ok()) << "flags bit " << bit;
    EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(WireFormatTest, TruncationIsRejectedAtEveryCut) {
  const std::string frame = transport::EncodeFrame(SampleMessage());
  for (size_t cut : {size_t{0}, size_t{11},
                     static_cast<size_t>(transport::kFrameHeaderBytes) - 1,
                     static_cast<size_t>(transport::kFrameHeaderBytes),
                     frame.size() - 1}) {
    EXPECT_FALSE(transport::DecodeFrame(frame.substr(0, cut)).ok())
        << "cut at " << cut << " slipped through";
  }
}

TEST(WireFormatTest, BitFlipAnywhereInPayloadIsRejectedByCrc) {
  const WireMessage m = SampleMessage();
  const std::string frame = transport::EncodeFrame(m);
  for (size_t byte = 0; byte < m.payload.size(); ++byte) {
    std::string flipped = frame;
    flipped[static_cast<size_t>(transport::kFrameHeaderBytes) + byte] ^= 0x10;
    Result<WireMessage> back = transport::DecodeFrame(flipped);
    EXPECT_FALSE(back.ok()) << "flip in payload byte " << byte;
    EXPECT_EQ(back.status().code(), StatusCode::kIoError);
  }
}

// Golden frame: the exact bytes EncodeFrame produces for one fixed message
// with a 4,120-byte payload (the million-client model size). The header
// CRC field and a CRC over the whole frame were recorded from the
// byte-at-a-time CRC-32 and agree with zlib's crc32. Any change to the wire
// layout or to the checksum output fails here, which is the proof that
// frames, journal records and spill blocks written by older builds still
// verify.
TEST(WireFormatTest, GoldenFrameBytesArePinned) {
  WireMessage m;
  m.type = MessageType::kModelBroadcast;
  m.round = 0x0102030405060708ull;
  m.iteration = 4242;
  m.client = 999983;
  m.seq = 5;
  m.payload.resize(4120);
  for (size_t i = 0; i < m.payload.size(); ++i) {
    m.payload[i] = static_cast<char>((i * 131u + (i >> 8) * 7u + 11u) & 0xFFu);
  }
  const std::string frame = transport::EncodeFrame(m);
  ASSERT_EQ(frame.size(), 44u + 4120u);

  std::string header_hex;
  for (size_t i = 0; i < 44; ++i) {
    header_hex += StrFormat("%02x", static_cast<unsigned char>(frame[i]));
  }
  EXPECT_EQ(header_hex,
            "46575231" "01" "01" "0000"          // magic, version, type, flags
            "0807060504030201"                   // round
            "9210000000000000"                   // iteration
            "2f420f0000000000"                   // client
            "05000000" "18100000" "a318c4cb");   // seq, length, payload CRC
  uint32_t header_crc = 0;
  for (size_t i = 0; i < 4; ++i) {
    const auto byte = static_cast<unsigned char>(frame[40 + i]);
    header_crc |= static_cast<uint32_t>(byte) << (8 * i);
  }
  EXPECT_EQ(header_crc, 0xCBC418A3u);
  EXPECT_EQ(Crc32(frame.data(), frame.size()), 0xEE2F9962u);

  Result<WireMessage> back = transport::DecodeFrame(frame);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->payload, m.payload);
  std::string flipped = frame;
  flipped[44 + 2059] ^= 0x04;
  Result<WireMessage> rejected = transport::DecodeFrame(flipped);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kIoError);
}

TEST(WireFormatTest, ModelPayloadIsBitExact) {
  Tensor params({5}, {1.5f, -2.25f, 0.0f, 3.0e-7f, -0.0f});
  const std::string payload = transport::EncodeModelPayload(params);
  EXPECT_EQ(payload.size(), 5u * 4u);
  Result<Tensor> back = transport::DecodeModelPayload(payload);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->BitwiseEquals(params));
}

TEST(WireFormatTest, ModelPayloadRejectsRaggedLength) {
  EXPECT_FALSE(transport::DecodeModelPayload("abc").ok());
}

// --- LocalTransport ring buffer ---

TEST(LocalTransportTest, LanesAreFifoAndIndependent) {
  LocalTransport wire(4);
  ASSERT_TRUE(wire.PushFrame(Direction::kDownlink, "d1").ok());
  ASSERT_TRUE(wire.PushFrame(Direction::kUplink, "u1").ok());
  ASSERT_TRUE(wire.PushFrame(Direction::kDownlink, "d2").ok());
  EXPECT_EQ(wire.PendingFrames(Direction::kDownlink), 2);
  EXPECT_EQ(wire.PendingFrames(Direction::kUplink), 1);
  Result<std::string> f = wire.PopFrame(Direction::kDownlink);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(*f, "d1");
  f = wire.PopFrame(Direction::kDownlink);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(*f, "d2");
  f = wire.PopFrame(Direction::kUplink);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(*f, "u1");
}

TEST(LocalTransportTest, FullLaneRefusesAndEmptyLaneTimesOut) {
  LocalTransport wire(2);
  ASSERT_TRUE(wire.PushFrame(Direction::kUplink, "a").ok());
  ASSERT_TRUE(wire.PushFrame(Direction::kUplink, "b").ok());
  Status full = wire.PushFrame(Direction::kUplink, "c");
  EXPECT_FALSE(full.ok());
  EXPECT_EQ(full.code(), StatusCode::kFailedPrecondition);
  Result<std::string> empty = wire.PopFrame(Direction::kDownlink);
  EXPECT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kNotFound);
}

TEST(LocalTransportTest, RingWrapsAroundManyTimes) {
  LocalTransport wire(3);
  for (int i = 0; i < 50; ++i) {
    const std::string frame = "frame-" + std::to_string(i);
    ASSERT_TRUE(wire.PushFrame(Direction::kDownlink, frame).ok());
    Result<std::string> back = wire.PopFrame(Direction::kDownlink);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, frame);
  }
  EXPECT_EQ(wire.PendingFrames(Direction::kDownlink), 0);
}

TEST(LocalTransportTest, BlockingPopTimesOutOnSilence) {
  LocalTransport wire(2);
  Result<std::string> f = wire.PopFrameBlocking(Direction::kUplink, 10);
  EXPECT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kNotFound);
}

// The tsan target: a real producer and a real consumer racing on one lane
// through the blocking API, pushing far more frames than the lane holds.
// Ordering and content must survive; tsan must see no races.
TEST(LocalTransportTest, BlockingProducerConsumerKeepsOrderUnderConcurrency) {
  constexpr int64_t kFrames = 200;
  LocalTransport wire(4);
  std::vector<std::string> received;
  received.reserve(kFrames);
  bool producer_ok = true;
  bool consumer_ok = true;
  ThreadPool pool(2);
  pool.ParallelFor(2, [&](int64_t task, int64_t) {
    if (task == 0) {
      for (int64_t i = 0; i < kFrames; ++i) {
        const std::string frame = "seq-" + std::to_string(i);
        if (!wire.PushFrameBlocking(Direction::kUplink, frame, 30000).ok()) {
          producer_ok = false;
          return;
        }
      }
    } else {
      for (int64_t i = 0; i < kFrames; ++i) {
        Result<std::string> frame =
            wire.PopFrameBlocking(Direction::kUplink, 30000);
        if (!frame.ok()) {
          consumer_ok = false;
          return;
        }
        received.push_back(*std::move(frame));
      }
    }
  });
  ASSERT_TRUE(producer_ok);
  ASSERT_TRUE(consumer_ok);
  ASSERT_EQ(static_cast<int64_t>(received.size()), kFrames);
  for (int64_t i = 0; i < kFrames; ++i) {
    EXPECT_EQ(received[static_cast<size_t>(i)], "seq-" + std::to_string(i));
  }
}

// --- fault spec parsing ---

TEST(TransportFaultSpecTest, EmptyParsesDisabled) {
  Result<TransportFaultSpec> spec = TransportFaultSpec::Parse("");
  ASSERT_TRUE(spec.ok());
  EXPECT_FALSE(spec->enabled());
}

TEST(TransportFaultSpecTest, FullSpecParses) {
  Result<TransportFaultSpec> spec = TransportFaultSpec::Parse(
      "drop=0.2,corrupt=0.05,truncate=0.05,duplicate=0.05,delay=0.1,"
      "seed=7,max_retries=5,backoff_base=2,backoff_cap=32");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_DOUBLE_EQ(spec->drop_rate, 0.2);
  EXPECT_DOUBLE_EQ(spec->corrupt_rate, 0.05);
  EXPECT_DOUBLE_EQ(spec->truncate_rate, 0.05);
  EXPECT_DOUBLE_EQ(spec->duplicate_rate, 0.05);
  EXPECT_DOUBLE_EQ(spec->delay_rate, 0.1);
  EXPECT_EQ(spec->seed, 7u);
  EXPECT_EQ(spec->max_retries, 5);
  EXPECT_EQ(spec->backoff_base_units, 2);
  EXPECT_EQ(spec->backoff_cap_units, 32);
  EXPECT_TRUE(spec->enabled());
}

TEST(TransportFaultSpecTest, RejectsBadInput) {
  EXPECT_FALSE(TransportFaultSpec::Parse("drop=1.5").ok());
  EXPECT_FALSE(TransportFaultSpec::Parse("drop=-0.1").ok());
  EXPECT_FALSE(TransportFaultSpec::Parse("drop=0.6,corrupt=0.6").ok());
  EXPECT_FALSE(TransportFaultSpec::Parse("gremlins=0.5").ok());
  EXPECT_FALSE(TransportFaultSpec::Parse("drop").ok());
  EXPECT_FALSE(TransportFaultSpec::Parse("drop=0.5,max_retries=0").ok());
  EXPECT_FALSE(
      TransportFaultSpec::Parse("drop=0.5,backoff_base=4,backoff_cap=2").ok());
}

TEST(TransportFaultSpecTest, ToStringRoundTrips) {
  Result<TransportFaultSpec> spec =
      TransportFaultSpec::Parse("drop=0.25,seed=3");
  ASSERT_TRUE(spec.ok());
  Result<TransportFaultSpec> again =
      TransportFaultSpec::Parse(spec->ToString());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_DOUBLE_EQ(again->drop_rate, 0.25);
  EXPECT_EQ(again->seed, 3u);
}

// --- fault model ---

TEST(TransportFaultModelTest, ScheduleIsAPureFunctionOfTheAddress) {
  Result<TransportFaultSpec> spec = TransportFaultSpec::Parse(
      "drop=0.3,corrupt=0.2,duplicate=0.2,seed=11");
  ASSERT_TRUE(spec.ok());
  TransportFaultModel a(*spec);
  TransportFaultModel b(*spec);
  for (int64_t round = 1; round <= 3; ++round) {
    for (int64_t client = 0; client < 4; ++client) {
      for (uint32_t seq = 0; seq < 3; ++seq) {
        for (int64_t attempt = 0; attempt < 4; ++attempt) {
          for (Direction dir : {Direction::kDownlink, Direction::kUplink}) {
            EXPECT_EQ(a.Decide(dir, round, round, client, seq, attempt),
                      b.Decide(dir, round, round, client, seq, attempt));
            EXPECT_EQ(a.BackoffUnits(dir, round, round, client, seq, attempt),
                      b.BackoffUnits(dir, round, round, client, seq, attempt));
          }
        }
      }
    }
  }
}

TEST(TransportFaultModelTest, DirectionsDrawIndependentFates) {
  Result<TransportFaultSpec> spec =
      TransportFaultSpec::Parse("drop=0.5,seed=4");
  ASSERT_TRUE(spec.ok());
  TransportFaultModel model(*spec);
  bool differs = false;
  for (int64_t round = 1; round <= 20 && !differs; ++round) {
    differs = model.Decide(Direction::kDownlink, round, 1, 0, 0, 0) !=
              model.Decide(Direction::kUplink, round, 1, 0, 0, 0);
  }
  EXPECT_TRUE(differs) << "downlink and uplink share a fault stream";
}

TEST(TransportFaultModelTest, AttemptAtBudgetIsForcedClean) {
  Result<TransportFaultSpec> spec =
      TransportFaultSpec::Parse("drop=1.0,max_retries=3");
  ASSERT_TRUE(spec.ok());
  TransportFaultModel model(*spec);
  for (int64_t attempt = 0; attempt < 3; ++attempt) {
    EXPECT_EQ(model.Decide(Direction::kUplink, 1, 1, 0, 0, attempt),
              FaultAction::kDrop);
  }
  EXPECT_EQ(model.Decide(Direction::kUplink, 1, 1, 0, 0, 3),
            FaultAction::kNone);
}

TEST(TransportFaultModelTest, DisabledSpecNeverFaults) {
  TransportFaultModel model(TransportFaultSpec{});
  for (int64_t attempt = 0; attempt < 4; ++attempt) {
    EXPECT_EQ(model.Decide(Direction::kDownlink, 1, 1, 0, 0, attempt),
              FaultAction::kNone);
  }
}

TEST(TransportFaultModelTest, BackoffGrowsAndIsCapped) {
  Result<TransportFaultSpec> spec = TransportFaultSpec::Parse(
      "drop=0.5,backoff_base=2,backoff_cap=16,seed=1");
  ASSERT_TRUE(spec.ok());
  TransportFaultModel model(*spec);
  for (int64_t attempt = 0; attempt < 40; ++attempt) {
    const int64_t units =
        model.BackoffUnits(Direction::kUplink, 1, 1, 0, 0, attempt);
    // min(cap, base << attempt) <= units < that + base (jitter).
    int64_t wait = int64_t{2} << std::min<int64_t>(attempt, 10);
    if (wait > 16 || wait <= 0) wait = 16;
    EXPECT_GE(units, wait) << "attempt " << attempt;
    EXPECT_LT(units, wait + 2) << "attempt " << attempt;
  }
}

// --- reliable channel ---

MessageAddress Address(Direction dir, int64_t round, uint32_t seq) {
  MessageAddress a;
  a.direction = dir;
  a.round = round;
  a.iteration = round;
  a.client = 1;
  a.seq = seq;
  return a;
}

TEST(ReliableChannelTest, CleanWireDeliversFirstTry) {
  LocalTransport wire;
  ReliableChannel channel(&wire, TransportFaultSpec{});
  Result<transport::Delivery> d = channel.Deliver(
      Address(Direction::kDownlink, 1, 0), MessageType::kModelBroadcast,
      "payload");
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->message.payload, "payload");
  EXPECT_EQ(d->payload_bytes, 7);
  EXPECT_EQ(d->retransmits, 0);
  EXPECT_FALSE(d->forced);
  EXPECT_EQ(channel.stats().messages, 1);
  EXPECT_EQ(channel.stats().attempts, 1);
  EXPECT_EQ(channel.stats().retransmits, 0);
}

TEST(ReliableChannelTest, LossyWireStillDeliversTheExactPayload) {
  Result<TransportFaultSpec> spec = TransportFaultSpec::Parse(
      "drop=0.3,corrupt=0.15,truncate=0.1,duplicate=0.1,delay=0.1,seed=9");
  ASSERT_TRUE(spec.ok());
  LocalTransport wire;
  ReliableChannel channel(&wire, *spec);
  for (int64_t round = 1; round <= 30; ++round) {
    const std::string payload = "round-" + std::to_string(round) + "-data";
    for (uint32_t seq = 0; seq < 3; ++seq) {
      Result<transport::Delivery> d =
          channel.Deliver(Address(Direction::kUplink, round, seq),
                          MessageType::kModelUpdate, payload);
      ASSERT_TRUE(d.ok()) << d.status().ToString();
      EXPECT_EQ(d->message.payload, payload)
          << "payload corrupted at round " << round << " seq " << seq;
    }
  }
  const ChannelStats& stats = channel.stats();
  EXPECT_EQ(stats.messages, 90);
  EXPECT_GT(stats.retransmits, 0);
  EXPECT_GT(stats.retransmit_bytes, 0);
  EXPECT_GT(stats.crc_rejects, 0) << "no corruption was ever injected";
  EXPECT_GT(stats.truncation_rejects, 0) << "no truncation was injected";
  EXPECT_GT(stats.duplicates_discarded, 0) << "no duplicate was discarded";
  EXPECT_GT(stats.timeouts, 0) << "no drop ever timed out";
  EXPECT_GT(stats.backoff_units, 0);
}

TEST(ReliableChannelTest, TwoChannelsProduceIdenticalLedgers) {
  Result<TransportFaultSpec> spec = TransportFaultSpec::Parse(
      "drop=0.25,corrupt=0.1,duplicate=0.1,seed=21");
  ASSERT_TRUE(spec.ok());
  LocalTransport wire_a, wire_b;
  ReliableChannel a(&wire_a, *spec);
  ReliableChannel b(&wire_b, *spec);
  for (int64_t round = 1; round <= 20; ++round) {
    for (ReliableChannel* c : {&a, &b}) {
      Result<transport::Delivery> d =
          c->Deliver(Address(Direction::kDownlink, round, 0),
                     MessageType::kModelBroadcast, "x");
      ASSERT_TRUE(d.ok());
    }
  }
  EXPECT_EQ(a.stats().attempts, b.stats().attempts);
  EXPECT_EQ(a.stats().retransmits, b.stats().retransmits);
  EXPECT_EQ(a.stats().retransmit_bytes, b.stats().retransmit_bytes);
  EXPECT_EQ(a.stats().backoff_units, b.stats().backoff_units);
  EXPECT_EQ(a.stats().crc_rejects, b.stats().crc_rejects);
  EXPECT_EQ(a.stats().duplicates_discarded, b.stats().duplicates_discarded);
}

TEST(ReliableChannelTest, TotalLossDegradesIntoForcedDelivery) {
  Result<TransportFaultSpec> spec =
      TransportFaultSpec::Parse("drop=1.0,max_retries=3");
  ASSERT_TRUE(spec.ok());
  LocalTransport wire;
  ReliableChannel channel(&wire, *spec);
  Result<transport::Delivery> d = channel.Deliver(
      Address(Direction::kUplink, 1, 0), MessageType::kModelUpdate, "vital");
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->message.payload, "vital");
  EXPECT_TRUE(d->forced);
  EXPECT_EQ(d->retransmits, 3);
  EXPECT_EQ(channel.stats().forced_deliveries, 1);
  EXPECT_EQ(channel.stats().timeouts, 3);
}

TEST(ReliableChannelTest, ModelDeliveryIsBitExactUnderFaults) {
  Result<TransportFaultSpec> spec = TransportFaultSpec::Parse(
      "drop=0.3,corrupt=0.2,duplicate=0.2,seed=5");
  ASSERT_TRUE(spec.ok());
  LocalTransport wire;
  ReliableChannel channel(&wire, *spec);
  Tensor params({4}, {0.125f, -7.5f, 1.0e-20f, 42.0f});
  const EncodedModel encoded(params);
  for (int64_t round = 1; round <= 10; ++round) {
    Result<transport::ModelDelivery> d = channel.DeliverModel(
        Address(Direction::kDownlink, round, 0), encoded);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    EXPECT_TRUE(d->params.BitwiseEquals(params)) << "round " << round;
    EXPECT_EQ(d->payload_bytes, 16);
  }
}

// A frame at the awaited address but of another type is not the awaited
// message: the channel discards it and delivers the real one.
TEST(ReliableChannelTest, FrameOfAnotherTypeIsNotDelivered) {
  LocalTransport wire;
  ReliableChannel channel(&wire, TransportFaultSpec{});
  const MessageAddress address = Address(Direction::kDownlink, 4, 0);
  WireMessage stale;
  stale.type = MessageType::kModelUpdate;
  stale.round = static_cast<uint64_t>(address.round);
  stale.iteration = static_cast<uint64_t>(address.iteration);
  stale.client = static_cast<uint64_t>(address.client);
  stale.seq = address.seq;
  stale.payload = "uplink bytes";
  ASSERT_TRUE(
      wire.PushFrame(Direction::kDownlink, transport::EncodeFrame(stale))
          .ok());
  Result<transport::Delivery> d =
      channel.Deliver(address, MessageType::kModelBroadcast, "broadcast");
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(d->message.type, MessageType::kModelBroadcast);
  EXPECT_EQ(d->message.payload, "broadcast");
  EXPECT_EQ(channel.stats().duplicates_discarded, 1);
}

}  // namespace
}  // namespace fats
