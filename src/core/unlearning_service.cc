#include "core/unlearning_service.h"

#include <algorithm>
#include <utility>

#include "rng/sampling.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace fats {

Status UnlearningService::Submit(const UnlearningRequest& request) {
  const int64_t t_max = trainer_->trained_through();
  if (request.request_iter < 1 || request.request_iter > t_max) {
    return Status::InvalidArgument("request_iter out of range");
  }
  const FederatedDataset* data = trainer_->data();
  if (request.kind == UnlearningRequest::Kind::kSample) {
    const SampleRef& ref = request.sample;
    if (ref.client < 0 || ref.client >= data->num_clients()) {
      return Status::OutOfRange("target client out of range");
    }
    if (!data->client_active(ref.client)) {
      return Status::FailedPrecondition("target client already removed");
    }
    if (pending_clients_.count(ref.client) > 0) {
      return Status::FailedPrecondition(
          "target sample's client is pending removal");
    }
    if (!data->sample_active(ref.client, ref.index)) {
      return Status::FailedPrecondition("target sample already deleted");
    }
    if (pending_samples_.count({ref.client, ref.index}) > 0) {
      return Status::FailedPrecondition(
          "target sample already pending deletion");
    }
    int64_t& pending_count = pending_sample_counts_[ref.client];
    if (data->num_active_samples(ref.client) - pending_count <= 1) {
      return Status::FailedPrecondition(
          "deletion would empty the client's active sample set; submit a "
          "client-level request instead");
    }
    ++pending_count;
    pending_samples_.insert({ref.client, ref.index});
  } else {
    const int64_t target = request.client;
    if (target < 0 || target >= data->num_clients()) {
      return Status::OutOfRange("target client out of range");
    }
    if (!data->client_active(target)) {
      return Status::FailedPrecondition("target client already removed");
    }
    if (pending_clients_.count(target) > 0) {
      return Status::FailedPrecondition(
          "target client already pending removal");
    }
    if (data->num_active_clients() -
            static_cast<int64_t>(pending_clients_.size()) <=
        1) {
      return Status::FailedPrecondition(
          "removal would leave the federation with no active client");
    }
    pending_clients_.insert(target);
  }
  queue_.push_back(request);
  return Status::OK();
}

UnlearningService::Triage UnlearningService::TriageRequest(
    const UnlearningRequest& request) const {
  Triage triage;
  const StateStore& store = trainer_->store();
  const int64_t e = trainer_->config().local_iters_e;
  if (request.kind == UnlearningRequest::Kind::kSample) {
    const int64_t first = store.EarliestSampleUse(request.sample);
    if (first >= 1) {
      triage.restart_iteration = first;
      triage.triggers = first <= request.request_iter;
    }
  } else {
    const int64_t round = store.EarliestClientRound(request.client);
    if (round >= 1) {
      triage.restart_iteration = (round - 1) * e + 1;
      triage.triggers = round <= (request.request_iter - 1) / e + 1;
    }
  }
  return triage;
}

Result<int64_t> UnlearningService::ApplySampleDeletion(
    const SampleRef& target, int64_t t_max, ServiceFlushStats* stats) {
  FATS_RETURN_NOT_OK(trainer_->data()->RemoveSample(target));

  // Copy the posting list: substitution rewrites it in place (each replaced
  // batch de-indexes the deleted sample; the list empties out as the loop
  // runs).
  std::vector<int64_t> uses;
  if (const std::vector<int64_t>* posted = trainer_->store().SampleUses(target);
      posted != nullptr) {
    uses = *posted;
  }

  // Every sample deletion bumps the generation, whether or not any batch is
  // affected, so a flushed queue draws exactly what one flush per request
  // would — later requests' draw keys depend on it.
  trainer_->BumpGeneration();
  if (uses.empty()) return -1;

  for (int64_t t : uses) {
    FATS_RETURN_NOT_OK(trainer_->RedrawMinibatch(t, target.client));
  }
  stats->substituted_batches += static_cast<int64_t>(uses.size());
  stats->sequential_replayed_iterations += t_max - uses.front() + 1;
  return uses.front();
}

Result<int64_t> UnlearningService::ApplyClientRemoval(
    int64_t target, int64_t t_max, ServiceFlushStats* stats) {
  // Earliest participation must be read before the removal-and-truncate;
  // the truncation erases the client's postings.
  const int64_t r_actual = trainer_->store().EarliestClientRound(target);
  FATS_RETURN_NOT_OK(trainer_->data()->RemoveClient(target));
  if (r_actual == -1) return -1;  // never selected: no rewrite, no bump

  const int64_t e = trainer_->config().local_iters_e;
  const int64_t t_restart = (r_actual - 1) * e + 1;
  const int64_t r_last = (t_max + e - 1) / e;
  trainer_->TruncateStoreFromIteration(t_restart);
  trainer_->BumpGeneration();

  // Redraw the truncated rounds' sampling history from the changed measure
  // without computing any model. The single coalesced replay at the end of
  // Flush supplies the model trajectory.
  for (int64_t r = r_actual; r <= r_last; ++r) {
    FATS_RETURN_NOT_OK(trainer_->RedrawRound(r, t_max));
  }
  stats->redrawn_rounds += r_last - r_actual + 1;
  stats->sequential_replayed_iterations += t_max - t_restart + 1;
  return t_restart;
}

void UnlearningService::ClearPending() {
  queue_.clear();
  pending_samples_.clear();
  pending_clients_.clear();
  pending_sample_counts_.clear();
}

Result<ServiceFlushStats> UnlearningService::Flush() {
  ServiceFlushStats stats;
  if (queue_.empty()) return stats;
  Stopwatch timer;
  const int64_t t_max = trainer_->trained_through();
  const int64_t e = trainer_->config().local_iters_e;
  const int64_t r_last = (t_max + e - 1) / e;

  // One durable-journal bracket around every mutation of the whole queue:
  // a crash mid-flush rolls the entire batch back, never half of it.
  trainer_->NotifyUnlearnBegin();
  struct OpGuard {
    FatsTrainer* trainer;
    ~OpGuard() { trainer->NotifyUnlearnEnd(); }
  } op_guard{trainer_};

  int64_t min_restart = -1;
  for (const UnlearningRequest& request : queue_) {
    ++stats.requests;
    // Triage sees the history as the earlier requests left it, exactly as
    // it would one request at a time.
    const Triage triage = TriageRequest(request);
    if (triage.triggers) {
      ++stats.triggered_requests;
      stats.recomputed_iterations += t_max - triage.restart_iteration + 1;
      stats.recomputed_rounds +=
          r_last - (triage.restart_iteration - 1) / e;
    }
    int64_t restart = -1;
    if (request.kind == UnlearningRequest::Kind::kSample) {
      ++stats.sample_requests;
      FATS_ASSIGN_OR_RETURN(restart,
                            ApplySampleDeletion(request.sample, t_max, &stats));
    } else {
      ++stats.client_requests;
      FATS_ASSIGN_OR_RETURN(restart,
                            ApplyClientRemoval(request.client, t_max, &stats));
    }
    if (restart != -1) {
      min_restart = (min_restart == -1) ? restart
                                        : std::min(min_restart, restart);
    }
  }
  ClearPending();

  if (min_restart != -1) {
    // The whole queue's history rewrites are in place; one replay from the
    // earliest affected iteration recomputes the model trajectory that
    // sequential processing would have rebuilt once per request. The
    // replay inherits the trainer's parallel client runner (config
    // num_threads), which is bit-identical to the serial schedule.
    const int64_t prefix_before = trainer_->prefix_steps();
    trainer_->set_recomputation_mode(true);
    trainer_->ReplayFrom(min_restart);
    trainer_->set_recomputation_mode(false);
    stats.prefix_steps = trainer_->prefix_steps() - prefix_before;
    stats.replays = 1;
    stats.replay_start_iteration = min_restart;
    stats.replayed_iterations = t_max - min_restart + 1;
    stats.replayed_rounds = r_last - (min_restart - 1) / e;
  }
  stats.wall_seconds = timer.ElapsedSeconds();
  return stats;
}

Result<ServiceFlushStats> UnlearningService::ExecuteStream(
    const std::vector<UnlearningRequest>& requests, int64_t coalesce_window) {
  ServiceFlushStats totals;
  for (const UnlearningRequest& request : requests) {
    if (Status status = Submit(request); !status.ok()) {
      // Reject the unflushed window whole: nothing of it may linger in the
      // queue for a later Flush to apply.
      ClearPending();
      return status;
    }
    if (coalesce_window > 0 && pending() >= coalesce_window) {
      FATS_ASSIGN_OR_RETURN(ServiceFlushStats stats, Flush());
      totals.Accumulate(stats);
    }
  }
  if (pending() > 0) {
    FATS_ASSIGN_OR_RETURN(ServiceFlushStats stats, Flush());
    totals.Accumulate(stats);
  }
  return totals;
}

std::vector<SampleRef> PickRandomActiveSamples(const FederatedDataset& data,
                                               int64_t w, RngStream* rng) {
  // Enumerate active (client, sample) pairs implicitly: draw a client
  // weighted by its active sample count, then a uniform active sample; keep
  // distinct picks.
  std::vector<SampleRef> picks;
  FATS_CHECK_GT(data.num_active_clients(), 0);
  const std::vector<int64_t>& clients = data.active_clients();
  std::vector<double> weights;
  weights.reserve(clients.size());
  for (int64_t k : clients) {
    weights.push_back(static_cast<double>(data.num_active_samples(k)));
  }
  int64_t guard = 0;
  while (static_cast<int64_t>(picks.size()) < w) {
    FATS_CHECK_LT(++guard, 100000) << "not enough active samples to pick";
    const int64_t ci = SampleCategorical(weights, rng);
    const int64_t client = clients[static_cast<size_t>(ci)];
    const std::vector<int64_t>& active = data.active_sample_indices(client);
    if (active.empty()) continue;
    SampleRef ref;
    ref.client = client;
    ref.index = active[static_cast<size_t>(rng->UniformInt(active.size()))];
    bool duplicate = false;
    for (const SampleRef& existing : picks) {
      if (existing == ref) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) picks.push_back(ref);
  }
  return picks;
}

std::vector<int64_t> PickRandomActiveClients(const FederatedDataset& data,
                                             int64_t w, RngStream* rng) {
  const std::vector<int64_t>& clients = data.active_clients();
  FATS_CHECK_LE(w, static_cast<int64_t>(clients.size()));
  std::vector<int64_t> positions =
      SampleWithoutReplacement(static_cast<int64_t>(clients.size()), w, rng);
  std::vector<int64_t> picks;
  picks.reserve(positions.size());
  for (int64_t pos : positions) {
    picks.push_back(clients[static_cast<size_t>(pos)]);
  }
  return picks;
}

}  // namespace fats
