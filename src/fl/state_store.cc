#include "fl/state_store.h"

#include <algorithm>

#include "util/logging.h"

namespace fats {
namespace {

// Sorted-unique posting-list mutations. Postings are inserted at their
// sorted position (an append during forward training, a binary-searched
// insert during substitution) and erased in place; an emptied list removes
// its key so a find() miss keeps meaning "never used".
void InsertPosting(std::vector<int64_t>* postings, int64_t value) {
  auto it = std::lower_bound(postings->begin(), postings->end(), value);
  if (it != postings->end() && *it == value) return;
  postings->insert(it, value);
}

// Returns true when the list emptied.
bool ErasePosting(std::vector<int64_t>* postings, int64_t value) {
  auto it = std::lower_bound(postings->begin(), postings->end(), value);
  if (it != postings->end() && *it == value) postings->erase(it);
  return postings->empty();
}

state::HistoryLogOptions LogOptions(const StateStoreOptions& options,
                                    state::SegmentSpiller* spiller) {
  state::HistoryLogOptions log;
  log.block_span = options.block_iters;
  log.max_open_blocks = options.max_open_blocks;
  log.resident_sealed_blocks = options.resident_sealed_blocks;
  log.decoded_cache_blocks = options.decoded_cache_blocks;
  log.spiller = spiller;
  return log;
}

std::unique_ptr<state::SegmentSpiller> MakeSpiller(
    const StateStoreOptions& options) {
  if (options.spill_dir.empty()) return nullptr;
  state::SegmentSpillerOptions spill;
  spill.dir = options.spill_dir;
  spill.segment_target_bytes = options.segment_target_bytes;
  return std::make_unique<state::SegmentSpiller>(spill);
}

}  // namespace

StateStore::StateStore(const StateStoreOptions& options)
    : options_(options),
      spiller_(MakeSpiller(options_)),
      minibatches_(LogOptions(options_, spiller_.get())),
      selections_(LogOptions(options_, spiller_.get())) {
  if (spiller_ != nullptr) {
    FATS_CHECK_OK(spiller_->Open());
  }
}

void StateStore::IndexSelection(int64_t round,
                                const std::vector<int64_t>& multiset) {
  for (int64_t k : multiset) InsertPosting(&client_rounds_[k], round);
}

void StateStore::UnindexSelection(int64_t round,
                                  const std::vector<int64_t>& multiset) {
  for (int64_t k : multiset) {
    auto it = client_rounds_.find(k);
    // A client repeated in the multiset unindexes once; later repeats miss.
    if (it == client_rounds_.end()) continue;
    if (ErasePosting(&it->second, round)) client_rounds_.erase(it);
  }
}

void StateStore::SaveClientSelection(int64_t round,
                                     std::vector<int64_t> multiset) {
  std::vector<int64_t> replaced;
  const bool re_drawn =
      selections_.Save(round, 0, std::move(multiset), &replaced);
  if (re_drawn) UnindexSelection(round, replaced);
  // The stored pointer is stable here: IndexSelection touches only the
  // posting maps, never the log.
  IndexSelection(round, *selections_.Get(round, 0));
}

const std::vector<int64_t>* StateStore::GetClientSelection(
    int64_t round) const {
  return selections_.Get(round, 0);
}

void StateStore::SaveGlobalModel(int64_t round, Tensor params) {
  global_models_[round] = std::move(params);
}

const Tensor* StateStore::GetGlobalModel(int64_t round) const {
  auto it = global_models_.find(round);
  return it == global_models_.end() ? nullptr : &it->second;
}

void StateStore::IndexMinibatch(int64_t iter, int64_t client,
                                const std::vector<int64_t>& indices) {
  for (int64_t i : indices) InsertPosting(&sample_uses_[{client, i}], iter);
}

void StateStore::UnindexMinibatch(int64_t iter, int64_t client,
                                  const std::vector<int64_t>& indices) {
  for (int64_t i : indices) {
    auto it = sample_uses_.find({client, i});
    if (it == sample_uses_.end()) continue;
    if (ErasePosting(&it->second, iter)) sample_uses_.erase(it);
  }
}

void StateStore::SaveMinibatch(int64_t iter, int64_t client,
                               std::vector<int64_t> indices) {
  std::vector<int64_t> replaced;
  const bool substituted =
      minibatches_.Save(iter, client, std::move(indices), &replaced);
  if (substituted) UnindexMinibatch(iter, client, replaced);
  IndexMinibatch(iter, client, *minibatches_.Get(iter, client));
}

const std::vector<int64_t>* StateStore::GetMinibatch(int64_t iter,
                                                     int64_t client) const {
  return minibatches_.Get(iter, client);
}

int64_t StateStore::EarliestSampleUse(const SampleRef& ref) const {
  const std::vector<int64_t>* uses = SampleUses(ref);
  return uses == nullptr ? -1 : uses->front();
}

int64_t StateStore::EarliestClientRound(int64_t client) const {
  const std::vector<int64_t>* rounds = ClientRounds(client);
  return rounds == nullptr ? -1 : rounds->front();
}

const std::vector<int64_t>* StateStore::SampleUses(const SampleRef& ref) const {
  auto it = sample_uses_.find({ref.client, ref.index});
  // The emptied-list-erased invariant makes an empty list unreachable in
  // normal operation, but a truncate-to-zero must read as "never used"
  // rather than hand out a list whose front() would be UB.
  if (it == sample_uses_.end() || it->second.empty()) return nullptr;
  return &it->second;
}

const std::vector<int64_t>* StateStore::ClientRounds(int64_t client) const {
  auto it = client_rounds_.find(client);
  if (it == client_rounds_.end() || it->second.empty()) return nullptr;
  return &it->second;
}

void StateStore::TruncateFromIteration(int64_t from_iter,
                                       int64_t local_iters_e) {
  FATS_CHECK_GE(from_iter, 1);
  FATS_CHECK_GE(local_iters_e, 1);
  // Round r covers iterations (r-1)E+1 .. rE; its selection happens at
  // (r-1)E+1 and its global model is saved at rE. Every erased record
  // unindexes its own postings through the log's on_erase hook — the cost
  // is O(discarded), not O(all records), and the inverted index never
  // needs a rebuild. Whole discarded blocks release their spill frames so
  // re-training to the same iteration reuses segment files.
  minibatches_.TruncateFrom(
      from_iter, [this](int64_t iter, int64_t client,
                        const std::vector<int64_t>& indices) {
        UnindexMinibatch(iter, client, indices);
      });
  // Smallest round whose start (r-1)E+1 is >= from_iter.
  const int64_t round_from = (from_iter + local_iters_e - 2) / local_iters_e + 1;
  selections_.TruncateFrom(
      round_from, [this](int64_t round, int64_t unused,
                         const std::vector<int64_t>& multiset) {
        (void)unused;
        UnindexSelection(round, multiset);
      });
  // Smallest round whose end rE is >= from_iter; round 0 is always kept.
  const int64_t global_from =
      std::max<int64_t>(1, (from_iter + local_iters_e - 1) / local_iters_e);
  global_models_.erase(global_models_.lower_bound(global_from),
                       global_models_.end());
}

bool StateStore::IndicesConsistentWithRecords() const {
  // Reconstruct both posting maps from the records and compare. Posting
  // lists are sorted and duplicate-free, so equality is well-defined
  // whatever order the reconstruction visits records in; cold blocks are
  // decoded transiently by ForEach.
  // Transient audit rebuild, released on return.
  // fats-lint: allow(resident-history)
  std::unordered_map<SampleKey, std::vector<int64_t>, SampleKeyHash> uses;
  // fats-lint: allow(resident-history)
  std::unordered_map<int64_t, std::vector<int64_t>> rounds;
  minibatches_.ForEach(
      [&uses](int64_t iter, int64_t client,
              const std::vector<int64_t>& indices) {
        for (int64_t i : indices) InsertPosting(&uses[{client, i}], iter);
      });
  selections_.ForEach([&rounds](int64_t round, int64_t unused,
                                const std::vector<int64_t>& multiset) {
    (void)unused;
    for (int64_t k : multiset) InsertPosting(&rounds[k], round);
  });
  return uses == sample_uses_ && rounds == client_rounds_;
}

std::vector<int64_t> StateStore::SelectionRounds() const {
  std::vector<int64_t> rounds;
  rounds.reserve(static_cast<size_t>(selections_.size()));
  for (const auto& [round, unused] : selections_.Keys()) {
    (void)unused;
    rounds.push_back(round);
  }
  return rounds;
}

std::vector<int64_t> StateStore::GlobalModelRounds() const {
  std::vector<int64_t> rounds;
  rounds.reserve(global_models_.size());
  for (const auto& [round, params] : global_models_) {
    (void)params;
    rounds.push_back(round);
  }
  return rounds;
}

std::vector<std::pair<int64_t, int64_t>> StateStore::MinibatchKeys() const {
  return minibatches_.Keys();
}

void StateStore::Clear() {
  minibatches_.Clear();
  selections_.Clear();
  global_models_.clear();
  sample_uses_.clear();
  client_rounds_.clear();
}

int64_t StateStore::ApproxBytes() const {
  // Integer byte counts commute; traversal order cannot change the sum.
  int64_t bytes = minibatches_.ApproxResidentBytes() +
                  selections_.ApproxResidentBytes();
  for (const auto& [round, params] : global_models_) {
    (void)round;
    bytes += 8 + params.size() * 4;
  }
  // fats-lint: allow(unordered-iteration)
  for (const auto& [key, uses] : sample_uses_) {
    (void)key;
    bytes += 16 + static_cast<int64_t>(uses.size()) * 8;
  }
  // fats-lint: allow(unordered-iteration)
  for (const auto& [client, rounds] : client_rounds_) {
    (void)client;
    bytes += 8 + static_cast<int64_t>(rounds.size()) * 8;
  }
  return bytes;
}

int64_t StateStore::SpilledBytes() const {
  return spiller_ == nullptr ? 0 : spiller_->live_payload_bytes();
}

CompactParticipationIndex::CompactParticipationIndex(
    int64_t num_clients, const std::vector<int64_t>& samples_per_client)
    : client_used_(static_cast<size_t>(num_clients), false) {
  FATS_CHECK_EQ(static_cast<int64_t>(samples_per_client.size()), num_clients);
  sample_used_.reserve(static_cast<size_t>(num_clients));
  for (int64_t n : samples_per_client) {
    sample_used_.emplace_back(static_cast<size_t>(n), false);
  }
}

void CompactParticipationIndex::RecordClientParticipation(int64_t client) {
  client_used_[static_cast<size_t>(client)] = true;
}

void CompactParticipationIndex::RecordSampleUse(int64_t client,
                                                int64_t sample_index) {
  sample_used_[static_cast<size_t>(client)][static_cast<size_t>(sample_index)] =
      true;
}

void CompactParticipationIndex::Clear() {
  std::fill(client_used_.begin(), client_used_.end(), false);
  for (std::vector<bool>& v : sample_used_) {
    std::fill(v.begin(), v.end(), false);
  }
}

int64_t CompactParticipationIndex::ApproxBytes() const {
  int64_t bits = static_cast<int64_t>(client_used_.size());
  for (const std::vector<bool>& v : sample_used_) {
    bits += static_cast<int64_t>(v.size());
  }
  return (bits + 7) / 8;
}

}  // namespace fats
