// Benchmarks (google-benchmark) for the fault-tolerant transport: CRC-32
// and frame codec throughput, reliable-channel delivery under increasing
// loss, and the end-to-end cost of putting a FATS training round on the
// wire.
//
// Feeds the bench-regression smoke: tools/ci.sh runs this binary with
// --benchmark_out=BENCH_transport_current.json and tools/bench_check
// compares the result against the checked-in BENCH_transport.json
// baseline.
//
// BM_ChannelDeliver's loss sweep is the acceptance story: delivery cost
// grows with the loss rate only through the retransmit counters (reported
// alongside the timings), while the clean payload charge stays constant —
// the bytes-level statement of the exactness contract.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/fats_trainer.h"
#include "data/paper_configs.h"
#include "tensor/tensor.h"
#include "transport/fault_injection.h"
#include "transport/reliable_channel.h"
#include "transport/transport.h"
#include "transport/wire_format.h"
#include "util/crc32.h"

namespace fats {
namespace {

using transport::Direction;
using transport::EncodedModel;
using transport::MessageAddress;
using transport::MessageType;
using transport::ReliableChannel;
using transport::TransportFaultSpec;
using transport::WireMessage;

Tensor ParamVector(int64_t params) {
  std::vector<float> values(static_cast<size_t>(params));
  for (int64_t i = 0; i < params; ++i) {
    values[static_cast<size_t>(i)] = 0.25f * static_cast<float>(i % 97) - 12.f;
  }
  return Tensor({params}, std::move(values));
}

void BM_FrameEncode(benchmark::State& state) {
  const int64_t params = state.range(0);
  WireMessage message;
  message.type = MessageType::kModelBroadcast;
  message.round = 7;
  message.client = 3;
  message.payload = transport::EncodeModelPayload(ParamVector(params));
  for (auto _ : state) {
    std::string frame = transport::EncodeFrame(message);
    benchmark::DoNotOptimize(frame.data());
  }
  state.SetBytesProcessed(
      state.iterations() *
      (transport::kFrameHeaderBytes +
       static_cast<int64_t>(message.payload.size())));
}
BENCHMARK(BM_FrameEncode)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 16);

void BM_FrameDecode(benchmark::State& state) {
  const int64_t params = state.range(0);
  WireMessage message;
  message.type = MessageType::kModelUpdate;
  message.round = 7;
  message.client = 3;
  message.payload = transport::EncodeModelPayload(ParamVector(params));
  const std::string frame = transport::EncodeFrame(message);
  for (auto _ : state) {
    Result<WireMessage> decoded = transport::DecodeFrame(frame);
    benchmark::DoNotOptimize(decoded.value().payload.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(frame.size()));
}
BENCHMARK(BM_FrameDecode)->Arg(1 << 8)->Arg(1 << 12)->Arg(1 << 16);

// The checksum every frame, journal record and spill block pays, at a
// frame header (44 B), the million-client model payload (4,120 B) and a
// spill-block-sized buffer (64 KiB). The 44-byte row is below the 64-byte
// fold threshold and always runs the slicing-by-16 loop; on a PCLMULQDQ
// host the other two run the carry-less-multiply fold, which is ~7x
// faster, so a fall back to the table loop fails the bench gate there.
void BM_Crc32(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  std::string bytes(len, '\0');
  for (size_t i = 0; i < len; ++i) {
    bytes[i] = static_cast<char>((i * 131u + 7u) & 0xFFu);
  }
  for (auto _ : state) {
    uint32_t crc = Crc32(bytes.data(), bytes.size());
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(len));
}
BENCHMARK(BM_Crc32)->Arg(44)->Arg(4120)->Arg(65536);

// One logical model delivery per iteration at drop rates 0% / 5% / 20%.
// The fault schedule is a pure function of the address, so the sweep is
// exactly reproducible; the retransmit counters surface the overhead the
// timing alone would hide.
void BM_ChannelDeliver(benchmark::State& state) {
  const double loss = static_cast<double>(state.range(0)) / 100.0;
  TransportFaultSpec spec;
  if (loss > 0.0) {
    spec = TransportFaultSpec::Parse(
               StrFormat("drop=%.2f,corrupt=0.02,duplicate=0.02,seed=9",
                         loss))
               .value();
  }
  transport::LocalTransport wire;
  ReliableChannel channel(&wire, spec);
  const EncodedModel model(ParamVector(1 << 12));
  uint32_t seq = 0;
  for (auto _ : state) {
    MessageAddress address;
    address.direction = Direction::kDownlink;
    address.round = seq;  // spread deliveries across the fault schedule
    address.seq = seq++;
    benchmark::DoNotOptimize(
        channel.DeliverModel(address, model).value().params.data());
  }
  const transport::ChannelStats& stats = channel.stats();
  state.counters["attempts_per_msg"] =
      static_cast<double>(stats.attempts) /
      static_cast<double>(std::max<int64_t>(1, stats.messages));
  state.counters["retransmits"] = static_cast<double>(stats.retransmits);
  state.counters["crc_rejects"] = static_cast<double>(stats.crc_rejects);
  state.SetBytesProcessed(state.iterations() * model.payload_bytes());
}
BENCHMARK(BM_ChannelDeliver)->Arg(0)->Arg(5)->Arg(20);

// End-to-end: a full (tiny) FATS training run with every broadcast and
// upload on the wire, clean vs 20% lossy. The delta between the two args
// is the whole-system price of the retry protocol.
void BM_FatsTrainOverWire(benchmark::State& state) {
  const bool lossy = state.range(0) != 0;
  DatasetProfile profile = ScaledProfile("mnist").value();
  profile.clients_m = 12;
  profile.samples_per_client_n = 16;
  profile.rounds_r = 4;
  profile.local_iters_e = 2;
  profile.test_size = 32;
  int64_t retransmit_bytes = 0;
  int64_t downlink_bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    FederatedDataset data = BuildFederatedData(profile, 13);
    FatsConfig config = bench::FatsConfigWithKB(profile, /*k=*/4,
                                                /*b=*/4, 13);
    if (lossy) {
      config.transport_fault_spec =
          "drop=0.2,corrupt=0.05,duplicate=0.05,seed=4";
    }
    state.ResumeTiming();
    FatsTrainer trainer(profile.model, config, &data);
    trainer.Train();
    retransmit_bytes = trainer.comm_stats().retransmit_bytes();
    downlink_bytes = trainer.comm_stats().downlink_bytes();
  }
  state.counters["retransmit_bytes"] = static_cast<double>(retransmit_bytes);
  state.counters["downlink_bytes"] = static_cast<double>(downlink_bytes);
  state.SetItemsProcessed(state.iterations() * profile.rounds_r);
}
BENCHMARK(BM_FatsTrainOverWire)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace fats

int main(int argc, char** argv) {
  return fats::bench::RunBenchmarks(argc, argv);
}
