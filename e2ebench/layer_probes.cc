#include "layer_probes.h"

#include <algorithm>
#include <chrono>

#include "core/unlearning_service.h"
#include "fl/client.h"
#include "state/tree_aggregate.h"
#include "transport/reliable_channel.h"
#include "transport/transport.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace fats::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double ElapsedUs(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

// Times `fn` `calls` times and returns the median in microseconds.
template <typename Fn>
double MedianUs(int calls, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(calls));
  for (int i = 0; i < calls; ++i) {
    const Clock::time_point start = Clock::now();
    fn(i);
    samples.push_back(ElapsedUs(start));
  }
  return Median(std::move(samples));
}

int64_t ProbeClient(FatsTrainer* trainer) {
  const FederatedDataset& data = *trainer->data();
  const int64_t last_round = trainer->trained_through() /
                             trainer->config().local_iters_e;
  const std::vector<int64_t>* selection =
      trainer->store().GetClientSelection(last_round);
  if (selection != nullptr) {
    for (int64_t client : *selection) {
      if (data.client_active(client)) return client;
    }
  }
  return data.active_clients().front();
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

ProbeResults RunLayerProbes(const ModelSpec& spec, FatsTrainer* trainer,
                            const std::vector<UnlearningRequest>& requests) {
  ProbeResults out;
  const Tensor global = trainer->global_params();

  // nn: one local SGD step on a workload-shaped mini-batch.
  {
    Model model(spec, trainer->config().seed);
    FederatedDataset* data = trainer->data();
    const int64_t client = ProbeClient(trainer);
    const std::vector<int64_t>& active = data->active_sample_indices(client);
    const size_t b = std::min<size_t>(static_cast<size_t>(trainer->b()),
                                      active.size());
    const std::vector<int64_t> batch(active.begin(), active.begin() + b);
    ClientRuntime runtime(data, &model);
    std::vector<double> samples;
    for (int i = 0; i < 200; ++i) {
      model.SetParameters(global);
      const Clock::time_point start = Clock::now();
      (void)runtime.Step(client, batch, trainer->config().learning_rate);
      samples.push_back(ElapsedUs(start));
    }
    out.nn_step_us = Median(std::move(samples));
  }

  // transport: encode + framed, CRC-checked delivery of one model.
  {
    transport::LocalTransport wire;
    transport::ReliableChannel channel(&wire, transport::TransportFaultSpec{});
    out.deliver_us = MedianUs(400, [&](int i) {
      transport::MessageAddress address;
      address.round = i + 1;
      address.iteration = i + 1;
      const transport::EncodedModel encoded(global);
      Result<transport::ModelDelivery> delivered =
          channel.DeliverModel(address, encoded);
      FATS_CHECK(delivered.ok()) << delivered.status().ToString();
    });
  }

  // util: CRC-32 over one model payload.
  {
    const transport::EncodedModel encoded(global);
    const std::string& payload = encoded.payload();
    uint32_t acc = 0;
    const double us = MedianUs(400, [&](int) {
      acc ^= Crc32(payload.data(), payload.size());
    });
    FATS_CHECK(acc != 0xFFFFFFFFu || us >= 0.0);  // keeps `acc` live
    out.crc32_mb_per_s = static_cast<double>(payload.size()) / us;
  }

  // state: the deterministic reduction tree over K uploads.
  {
    const std::vector<Tensor> uploads(static_cast<size_t>(trainer->K()),
                                      global);
    out.tree_aggregate_us = MedianUs(200, [&](int) {
      Tensor sum = state::TreeAggregate(uploads, nullptr);
      FATS_CHECK_EQ(sum.size(), global.size());
    });
  }

  // state: a full read of the recorded mini-batches (decode + segment reads).
  {
    const StateStore& store = trainer->store();
    out.history_scan_ms =
        MedianUs(3, [&](int) {
          int64_t indices = 0;
          for (const auto& [iter, client] : store.MinibatchKeys()) {
            const std::vector<int64_t>* batch =
                store.GetMinibatch(iter, client);
            FATS_CHECK(batch != nullptr);
            indices += static_cast<int64_t>(batch->size());
          }
          FATS_CHECK_GE(indices, 0);
        }) /
        1000.0;
  }

  // core: Submit (validate + enqueue) and triage against the inverted index.
  // The probe service is never flushed, so nothing it queues is applied.
  {
    UnlearningService service(trainer);
    std::vector<double> samples;
    for (const UnlearningRequest& request : requests) {
      const Clock::time_point start = Clock::now();
      const Status status = service.Submit(request);
      samples.push_back(ElapsedUs(start));
      if (!status.ok()) ++out.rejected_submits;
    }
    out.submit_us = Median(std::move(samples));

    std::vector<double> per_call_ns;
    int64_t triggered = 0;
    for (int rep = 0; rep < 9; ++rep) {
      const Clock::time_point start = Clock::now();
      for (int i = 0; i < 20; ++i) {
        for (const UnlearningRequest& request : requests) {
          triggered += service.TriageRequest(request).triggers ? 1 : 0;
        }
      }
      per_call_ns.push_back(ElapsedUs(start) * 1000.0 /
                            (20.0 * static_cast<double>(requests.size())));
    }
    FATS_CHECK_GE(triggered, 0);
    out.triage_ns = Median(std::move(per_call_ns));
  }
  return out;
}

}  // namespace fats::e2e
