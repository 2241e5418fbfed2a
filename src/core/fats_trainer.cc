#include "core/fats_trainer.h"

#include <algorithm>
#include <utility>

#include "fl/client.h"
#include "fl/server.h"
#include "state/tree_aggregate.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace fats {
namespace {

// Unique clients of the multiset in first-occurrence order, in O(K log K)
// and independent of M: sort (client, slot) pairs, keep the lowest slot of
// each client, then emit in slot order. The output order is load-bearing —
// it fixes the reduction order, so it is part of the determinism contract.
std::vector<int64_t> UniqueClients(const std::vector<int64_t>& multiset) {
  std::vector<std::pair<int64_t, size_t>> by_client;
  by_client.reserve(multiset.size());
  for (size_t slot = 0; slot < multiset.size(); ++slot) {
    by_client.emplace_back(multiset[slot], slot);
  }
  std::sort(by_client.begin(), by_client.end());
  std::vector<uint8_t> first(multiset.size(), 0);
  for (size_t j = 0; j < by_client.size(); ++j) {
    if (j == 0 || by_client[j].first != by_client[j - 1].first) {
      first[by_client[j].second] = 1;
    }
  }
  std::vector<int64_t> unique;
  unique.reserve(multiset.size());
  for (size_t slot = 0; slot < multiset.size(); ++slot) {
    if (first[slot] != 0) unique.push_back(multiset[slot]);
  }
  return unique;
}

}  // namespace

FatsTrainer::FatsTrainer(const ModelSpec& spec, const FatsConfig& config,
                         FederatedDataset* data)
    : spec_(spec),
      config_(config),
      data_(data),
      model_(std::make_unique<Model>(spec, config.seed)),
      test_batch_(data->global_test().AsBatch()),
      k_(config.DeriveK()),
      b_(config.DeriveB()),
      availability_(AvailabilityConfig{config.dropout_rate,
                                       config.availability_seed,
                                       config.dropout_max_retries}),
      runner_(spec, config.seed, config.num_threads),
      store_(config.StateOptions()) {
  FATS_CHECK_OK(config_.Validate());
  FATS_CHECK_EQ(data_->num_clients(), config_.clients_m)
      << "dataset does not match config M";
  failpoint::ArmFromEnvOnce();
  if (!config_.fault_spec.empty()) {
    FATS_CHECK_OK(failpoint::ArmFromSpec(config_.fault_spec));
  }
  Result<transport::TransportFaultSpec> tf_spec =
      transport::TransportFaultSpec::Parse(config_.transport_fault_spec);
  FATS_CHECK(tf_spec.ok()) << tf_spec.status().ToString();
  wire_ = std::make_unique<transport::LocalTransport>();
  channel_ = std::make_unique<transport::ReliableChannel>(wire_.get(),
                                                          *tf_spec);
  initial_params_ = model_->GetParameters();
}

void FatsTrainer::Train() { TrainUntil(config_.total_iters_t()); }

void FatsTrainer::TrainUntil(int64_t t_end) {
  if (trained_through_ == 0) {
    store_.SaveGlobalModel(0, initial_params_);
    if (sink_ != nullptr) sink_->OnGlobalModel(0, initial_params_);
    model_->SetParameters(initial_params_);
  }
  FATS_CHECK_GE(t_end, trained_through_) << "cannot train backwards";
  if (t_end == trained_through_) return;
  Run(trained_through_ + 1, t_end);
}

std::vector<int64_t> FatsTrainer::DrawClientSelection(int64_t round) const {
  StreamId id;
  id.purpose = RngPurpose::kClientSampling;
  id.generation = generation_;
  id.round = static_cast<uint64_t>(round);
  RngStream stream(config_.seed, id);
  return ServerRuntime::SampleClientsWithReplacement(*data_, k_, &stream);
}

Result<std::vector<int64_t>> FatsTrainer::DrawMinibatch(int64_t t,
                                                        int64_t client) const {
  const int64_t batch_size =
      std::min<int64_t>(b_, data_->num_active_samples(client));
  if (batch_size <= 0) {
    return Status::FailedPrecondition(
        "client has no active samples left to draw a mini-batch");
  }
  StreamId id;
  id.purpose = RngPurpose::kMinibatchSampling;
  id.generation = generation_;
  id.round = static_cast<uint64_t>((t - 1) / config_.local_iters_e + 1);
  id.client = static_cast<uint64_t>(client);
  id.iteration = static_cast<uint64_t>(t);
  RngStream stream(config_.seed, id);
  return ClientRuntime(data_, model_.get())
      .SampleMinibatch(client, batch_size, &stream);
}

Status FatsTrainer::RedrawMinibatch(int64_t t, int64_t client) {
  FATS_ASSIGN_OR_RETURN(std::vector<int64_t> batch, DrawMinibatch(t, client));
  if (sink_ != nullptr) sink_->OnMinibatch(t, client, batch);
  store_.SaveMinibatch(t, client, std::move(batch));
  return Status::OK();
}

Status FatsTrainer::RedrawRound(int64_t round, int64_t t_last) {
  const int64_t e = config_.local_iters_e;
  std::vector<int64_t> selection = DrawClientSelection(round);
  const std::vector<int64_t> participants = UniqueClients(selection);
  if (sink_ != nullptr) sink_->OnClientSelection(round, selection);
  store_.SaveClientSelection(round, std::move(selection));
  for (int64_t t = (round - 1) * e + 1; t <= std::min(round * e, t_last);
       ++t) {
    for (int64_t client : participants) {
      FATS_RETURN_NOT_OK(RedrawMinibatch(t, client));
    }
  }
  return Status::OK();
}

std::vector<double> FatsTrainer::RunLocalSteps(
    const std::vector<int64_t>& participants,
    const std::vector<const std::vector<int64_t>*>& batches,
    const std::vector<int64_t>& dropped,
    std::map<int64_t, Tensor>* local_params) {
  // Mini-batches, dropout counts, and parameter pointers are fixed on the
  // main thread in participant order before dispatch, and the caller
  // commits the results in that same order, so the schedule — draws, store
  // contents, float accumulation — is bit-identical to serial. Participants
  // are distinct, so each task reads and then overwrites its own entry.
  const size_t n_part = participants.size();
  std::vector<double> losses(n_part);
  std::vector<Tensor*> params(n_part);
  for (size_t i = 0; i < n_part; ++i) {
    params[i] = &local_params->at(participants[i]);
  }
  runner_.ForEachClient(
      static_cast<int64_t>(n_part), [&](int64_t i, Model* m) {
        const size_t s = static_cast<size_t>(i);
        // A dropped attempt discards the client's work; the retry
        // re-executes the whole local step on the same mini-batch, so the
        // surviving attempt's model bits are identical to a first-try
        // success.
        for (int64_t attempt = 0; attempt <= dropped[s]; ++attempt) {
          m->SetParameters(*params[s]);
          ClientRuntime runtime(data_, m);
          losses[s] = runtime.Step(participants[s], *batches[s],
                                   config_.learning_rate);
        }
        m->GetParametersInto(params[s]);
      });
  return losses;
}

void FatsTrainer::RunPass(int64_t t0, int64_t t_end, TrainPassKind pass) {
  const int64_t e = config_.local_iters_e;
  // The one difference between the pass kinds: a run pass draws the
  // round's selection and the iteration's mini-batches and records them, a
  // replay pass loads them from the store.
  const bool draw = pass == TrainPassKind::kRun;
  FATS_CHECK(t0 >= 1 && t0 <= config_.total_iters_t())
      << "t0 out of range: " << t0;
  FATS_CHECK(t_end >= t0 && t_end <= config_.total_iters_t())
      << "t_end out of range: " << t_end;

  std::vector<int64_t> selection;          // P of the current round
  std::vector<int64_t> participants;       // unique clients in P
  std::map<int64_t, Tensor> local_params;  // θ_k^(t−1) per participant
  // The round's broadcast model, encoded once per round and re-sent for
  // every downlink delivery (K selection slots + dropout re-broadcasts).
  std::unique_ptr<transport::EncodedModel> round_broadcast;
  // The current round's local-loss accumulator.
  double loss_sum = 0.0;
  int64_t loss_count = 0;

  const int64_t r0 = (t0 - 1) / e + 1;
  const int64_t r0_start = (r0 - 1) * e + 1;
  if (t0 != r0_start) {
    // Mid-round entry (Algorithm 1, lines 3–5): reload P^(r0) and rebuild
    // the local models after iteration t0−1. Each θ_k^(t0−1) is a pure
    // function of the stored θ^(r0−1) — bitwise the decoded broadcast — and
    // the stored mini-batches of r0_start..t0−1, so re-running those steps
    // reproduces it bit for bit. The rebuild moves no wire bytes, charges
    // no dropout retries (a retried attempt is bit-identical to the first),
    // and writes nothing to the store or the sink; its losses enter the
    // round's accumulator in the original order.
    const std::vector<int64_t>* stored = store_.GetClientSelection(r0);
    FATS_CHECK(stored != nullptr)
        << "mid-round restart requires the round's client selection";
    selection = *stored;
    participants = UniqueClients(selection);
    const Tensor* global = store_.GetGlobalModel(r0 - 1);
    FATS_CHECK(global != nullptr)
        << "missing global model for round " << r0 - 1;
    for (int64_t client : participants) local_params[client] = *global;
    const std::vector<int64_t> no_retries(participants.size(), 0);
    std::vector<const std::vector<int64_t>*> batches(participants.size());
    for (int64_t t = r0_start; t < t0; ++t) {
      for (size_t i = 0; i < participants.size(); ++i) {
        batches[i] = store_.GetMinibatch(t, participants[i]);
        FATS_CHECK(batches[i] != nullptr) << "missing mini-batch (" << t
                                          << ", " << participants[i] << ")";
      }
      const std::vector<double> losses =
          RunLocalSteps(participants, batches, no_retries, &local_params);
      for (double loss : losses) {
        loss_sum += loss;
        ++loss_count;
      }
      prefix_steps_ += static_cast<int64_t>(participants.size());
    }
  }

  for (int64_t t = t0; t <= t_end; ++t) {
    const int64_t r = (t - 1) / e + 1;
    const bool round_start = t == (r - 1) * e + 1;
    // Every delivery of iteration t is addressed (direction, r, t, client,
    // seq); see transport/reliable_channel.h.
    auto transfer = [&](transport::Direction direction, int64_t client,
                        uint32_t seq, const transport::EncodedModel& model) {
      return TransferModel(channel_.get(), {direction, r, t, client, seq},
                           model, &comm_stats_,
                           &transport_forced_deliveries_);
    };
    if (round_start) {
      // STEP 1: round start — the client multiset, then a broadcast of the
      // latest global model.
      if (draw) {
        selection = DrawClientSelection(r);
        store_.SaveClientSelection(r, selection);
        if (sink_ != nullptr) sink_->OnClientSelection(r, selection);
        FATS_FAILPOINT("trainer.round.start");
      } else {
        const std::vector<int64_t>* stored = store_.GetClientSelection(r);
        FATS_CHECK(stored != nullptr)
            << "replay missing selection for round " << r;
        selection = *stored;
      }

      const Tensor* global = store_.GetGlobalModel(r - 1);
      FATS_CHECK(global != nullptr)
          << "missing global model for round " << r - 1;
      // Broadcast θ^(r−1) over the wire: one encoding, one delivery per
      // selection slot. Each participant starts from the *decoded* payload
      // (bitwise the broadcast bytes), so every downlink byte the ledger
      // charges really crossed the transport. A replay re-broadcasts at the
      // same addresses, so it reproduces the original ledger — retransmit
      // counters included (the fault schedule is address-keyed).
      round_broadcast = std::make_unique<transport::EncodedModel>(*global);
      participants = UniqueClients(selection);
      local_params.clear();
      for (size_t slot = 0; slot < selection.size(); ++slot) {
        const int64_t client = selection[slot];
        local_params[client] =
            transfer(transport::Direction::kDownlink, client,
                     static_cast<uint32_t>(slot), *round_broadcast);
      }
      loss_sum = 0.0;
      loss_count = 0;
    }

    // STEP 2: one local mini-batch SGD iteration per distinct participant,
    // executed by the client runner (parallel when num_threads > 1).
    const size_t n_part = participants.size();
    std::vector<std::vector<int64_t>> drawn(draw ? n_part : 0);
    std::vector<const std::vector<int64_t>*> batches(n_part);
    std::vector<int64_t> dropped(n_part, 0);
    for (size_t i = 0; i < n_part; ++i) {
      const int64_t client = participants[i];
      if (draw) {
        Result<std::vector<int64_t>> batch = DrawMinibatch(t, client);
        FATS_CHECK(batch.ok()) << "client " << client << ": "
                               << batch.status().ToString();
        drawn[i] = std::move(batch).value();
        batches[i] = &drawn[i];
      } else {
        batches[i] = store_.GetMinibatch(t, client);
        FATS_CHECK(batches[i] != nullptr)
            << "replay missing mini-batch (" << t << ", " << client << ")";
      }
      // The availability schedule is a pure function of (round, iteration,
      // client), so a replay charges the same retries as the original pass.
      if (availability_.enabled()) {
        dropped[i] = availability_.DroppedAttempts(r, t, client);
      }
    }
    const std::vector<double> losses =
        RunLocalSteps(participants, batches, dropped, &local_params);
    for (size_t i = 0; i < n_part; ++i) {
      const int64_t client = participants[i];
      if (dropped[i] > 0) {
        // Each retry re-broadcasts the round's start model to the client,
        // over the wire like the original. Mid-round pass entry skipped
        // STEP 1, so the round's encoding may need rebuilding here. Send
        // seqs start at K to stay distinct from the round-start slots.
        if (round_broadcast == nullptr) {
          const Tensor* round_global = store_.GetGlobalModel(r - 1);
          FATS_CHECK(round_global != nullptr)
              << "missing global model for round " << r - 1;
          round_broadcast =
              std::make_unique<transport::EncodedModel>(*round_global);
        }
        for (int64_t retry = 0; retry < dropped[i]; ++retry) {
          (void)transfer(transport::Direction::kDownlink, client,
                         static_cast<uint32_t>(k_ + retry), *round_broadcast);
        }
        dropout_retries_ += dropped[i];
      }
      if (draw) {
        if (sink_ != nullptr) sink_->OnMinibatch(t, client, drawn[i]);
        store_.SaveMinibatch(t, client, std::move(drawn[i]));
      }
      loss_sum += losses[i];
      ++loss_count;
      ++local_iterations_executed_;
      if (sink_ != nullptr) sink_->OnLocalModel(t, client, local_params[client]);
    }

    if (t % e == 0) {
      // STEP 3: aggregate with multiset multiplicity: θ = (1/K) Σ_{k∈P} θ_k.
      // Each selection slot uploads its client's local model over the wire
      // (encoded once per distinct client), delivered serially in slot
      // order — the recorded wire order. The decoded payloads are then
      // summed by the fixed fan-in reduction tree, whose shape depends only
      // on the slot count, so the aggregate is bit-identical at any worker
      // count (and identical to the flat slot-order sum for K <= fan-in).
      std::vector<Tensor> slot_uploads;
      slot_uploads.reserve(selection.size());
      std::map<int64_t, transport::EncodedModel> uploads;
      for (size_t slot = 0; slot < selection.size(); ++slot) {
        const int64_t client = selection[slot];
        auto it = uploads.find(client);
        if (it == uploads.end()) {
          it = uploads
                   .emplace(client,
                            transport::EncodedModel(local_params[client]))
                   .first;
        }
        slot_uploads.push_back(transfer(transport::Direction::kUplink, client,
                                        static_cast<uint32_t>(slot),
                                        it->second));
      }
      Tensor aggregate = state::TreeAggregate(slot_uploads, runner_.pool());
      aggregate *= 1.0f / static_cast<float>(selection.size());
      store_.SaveGlobalModel(r, aggregate);
      comm_stats_.RecordRound();
      model_->SetParameters(aggregate);
      if (sink_ != nullptr) sink_->OnGlobalModel(r, aggregate);

      // The record carries no test accuracy: evaluation is not part of
      // Algorithm 1, and θ^(r) stays in the store for EvaluateRoundAccuracy.
      RoundRecord record;
      record.round = r;
      record.mean_local_loss =
          loss_count > 0 ? loss_sum / static_cast<double>(loss_count) : 0.0;
      record.recomputation = recomputation_mode_;
      log_.Append(record);
      if (sink_ != nullptr) sink_->OnRoundRecord(record);
      FATS_FAILPOINT("trainer.round.end");
    }
    FATS_FAILPOINT("trainer.iter.commit");
    NotifyIterationComplete(t, t_end, pass);
  }
  trained_through_ = std::max(trained_through_, t_end);
  // Leave the model holding the latest completed round's global parameters.
  const Tensor* final_global = store_.GetGlobalModel(t_end / e);
  if (final_global != nullptr) model_->SetParameters(*final_global);
}

void FatsTrainer::NotifyIterationComplete(int64_t t, int64_t t_end,
                                          TrainPassKind pass) {
  if (sink_ == nullptr) return;
  IterationMark mark;
  mark.iteration = t;
  mark.pass_end = t_end;
  mark.trained_through = std::max(trained_through_, t);
  mark.generation = generation_;
  mark.pass = pass;
  mark.recomputation = recomputation_mode_;
  mark.comm_rounds = comm_stats_.rounds();
  mark.comm_uplink_bytes = comm_stats_.uplink_bytes();
  mark.comm_downlink_bytes = comm_stats_.downlink_bytes();
  mark.comm_downlink_messages = comm_stats_.downlink_messages();
  mark.comm_uplink_messages = comm_stats_.uplink_messages();
  mark.comm_retransmits = comm_stats_.retransmits();
  mark.comm_retransmit_bytes = comm_stats_.retransmit_bytes();
  sink_->OnIterationComplete(mark);
}

double FatsTrainer::EvaluateTestAccuracy() {
  return model_->EvaluateAccuracy(test_batch_.inputs, test_batch_.labels);
}

double FatsTrainer::EvaluateRoundAccuracy(int64_t round) {
  const Tensor* global = store_.GetGlobalModel(round);
  FATS_CHECK(global != nullptr) << "missing global model for round " << round;
  // Borrow model_ for the forward and hand its parameters back bit for bit,
  // so global_params() and EvaluateTestAccuracy() are unaffected.
  const Tensor current = model_->GetParameters();
  model_->SetParameters(*global);
  const double accuracy = EvaluateTestAccuracy();
  model_->SetParameters(current);
  return accuracy;
}

}  // namespace fats
