#include "core/sample_unlearner.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "util/stopwatch.h"

namespace fats {

Result<UnlearningOutcome> SampleUnlearner::Unlearn(const SampleRef& target,
                                                   int64_t request_iter) {
  return UnlearnBatch({target}, request_iter);
}

// Implementation note. Exactness (Theorem 1) requires the *per-batch*
// transport SU_r from the paper's proof, not a naive re-run of FATS from
// t_S: the client-selection history is unaffected by a sample deletion and
// must be REUSED; only the target client's mini-batches that contain the
// deleted sample are re-drawn from the reduced law ξ(N−1, b), and the model
// trajectory is then recomputed deterministically against the (partially
// substituted) history. Re-drawing the selections too would condition the
// kept prefix on "the target was not used", which biases the selection
// marginal — a bias this repo's two-sample distribution test detects.
Result<UnlearningOutcome> SampleUnlearner::UnlearnBatch(
    const std::vector<SampleRef>& targets, int64_t request_iter) {
  Stopwatch timer;
  UnlearningOutcome outcome;
  // The unlearning horizon is how far training has progressed; requests
  // issued mid-training re-compute only the executed prefix and later
  // training continues on the reduced data.
  const int64_t t_max = trainer_->trained_through();
  const int64_t e = trainer_->config().local_iters_e;
  if (request_iter < 1 || request_iter > t_max) {
    return Status::InvalidArgument("request_iter out of range");
  }

  // Validation — everything that can fail does so here, before the journal
  // bracket opens and before any mutation, so a bad batch (duplicate
  // target, already-deleted sample, batch that would empty a client) is
  // rejected whole and no half-applied deletion can ever commit.
  std::map<int64_t, std::set<int64_t>> removed_by_client;
  for (const SampleRef& target : targets) {
    if (!trainer_->data()->sample_active(target.client, target.index)) {
      return Status::FailedPrecondition("target sample already deleted");
    }
    if (!removed_by_client[target.client].insert(target.index).second) {
      return Status::InvalidArgument("duplicate sample target in batch");
    }
  }
  for (const auto& [client, removed] : removed_by_client) {
    if (trainer_->data()->num_active_samples(client) <=
        static_cast<int64_t>(removed.size())) {
      return Status::FailedPrecondition(
          "batch would empty the client's active sample set; use "
          "client-level unlearning instead");
    }
  }

  // Verification + affected-batch lookup via the inverted participation
  // index: O(uses of the sample), not a scan over all T·clients records.
  // The posting lists are copied into `affected_iters` because substitution
  // below mutates them in place.
  int64_t t_trigger = -1;
  std::map<int64_t, std::set<int64_t>> affected_iters;
  for (const auto& [client, removed] : removed_by_client) {
    for (int64_t index : removed) {
      SampleRef ref;
      ref.client = client;
      ref.index = index;
      const std::vector<int64_t>* uses = trainer_->store().SampleUses(ref);
      if (uses == nullptr) continue;
      // Ascending list: front() is the earliest use (Algorithm 2 trigger
      // when it falls at or before the request time).
      if (uses->front() <= request_iter) {
        t_trigger = (t_trigger == -1) ? uses->front()
                                      : std::min(t_trigger, uses->front());
      }
      affected_iters[client].insert(uses->begin(), uses->end());
    }
  }

  // Everything past this point mutates trainer state; bracket it as one
  // atomic operation for the durable journal. Only a process crash skips
  // the End (std::_Exit skips destructors), so recovery rolls back exactly
  // the operations a crash interrupted.
  trainer_->NotifyUnlearnBegin();
  struct OpGuard {
    FatsTrainer* trainer;
    ~OpGuard() { trainer->NotifyUnlearnEnd(); }
  } op_guard{trainer_};

  // The data holders erase the samples regardless of participation.
  for (const auto& [client, removed] : removed_by_client) {
    for (int64_t index : removed) {
      SampleRef ref;
      ref.client = client;
      ref.index = index;
      FATS_RETURN_NOT_OK(trainer_->data()->RemoveSample(ref));
    }
  }

  // Substitute every recorded mini-batch that references a deleted sample:
  // a fresh draw from the reduced measure. (Batches after `request_iter`
  // correspond to training that, at request time, had not happened yet;
  // substituting them equals re-running that future training on the reduced
  // data.) Each substitution goes through SaveMinibatch, which de-indexes
  // the old batch — once the last referencing batch is replaced, the
  // deleted sample's posting list empties out and its key disappears; no
  // index rebuild is ever needed.
  trainer_->BumpGeneration();
  int64_t t_first_substituted = -1;
  for (const auto& [client, iters] : affected_iters) {
    for (int64_t t : iters) {
      FATS_RETURN_NOT_OK(trainer_->RedrawMinibatch(t, client));
      t_first_substituted = (t_first_substituted == -1)
                                ? t
                                : std::min(t_first_substituted, t);
    }
  }

  if (t_first_substituted == -1) {
    // No recorded batch referenced a deleted sample: the retained state is
    // already exactly distributed as a fresh run on the reduced data.
    outcome.wall_seconds = timer.ElapsedSeconds();
    return outcome;
  }

  // Recompute the model trajectory against the substituted history. The
  // replay inherits the trainer's parallel client runner (config
  // num_threads), which is bit-identical to the serial schedule.
  trainer_->set_recomputation_mode(true);
  trainer_->ReplayFrom(t_first_substituted);
  trainer_->set_recomputation_mode(false);

  const int64_t r_last = (t_max + e - 1) / e;
  outcome.first_replayed_iteration = t_first_substituted;
  outcome.replayed_iterations = t_max - t_first_substituted + 1;
  outcome.replayed_rounds = r_last - ((t_first_substituted - 1) / e + 1) + 1;
  if (t_trigger != -1) {
    outcome.recomputed = true;
    outcome.restart_iteration = t_trigger;
    outcome.recomputed_iterations = t_max - t_trigger + 1;
    outcome.recomputed_rounds = r_last - ((t_trigger - 1) / e + 1) + 1;
  }
  outcome.wall_seconds = timer.ElapsedSeconds();
  return outcome;
}

}  // namespace fats
