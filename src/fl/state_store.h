// Algorithmic-state storage for FATS (the save(·)/load(·) of Algorithm 1).
//
// Two variants, matching §5.3.2 of the paper:
//
//   * StateStore — the round-boundary store: client selections P^(t) and
//     global models θ^(t) per round on the server; mini-batches B_k^(t) per
//     (iteration, client). Enables re-computation from an arbitrary
//     iteration t_S, including mid-round restarts: the trainer rebuilds the
//     local models θ_k^(t_S−1) from θ^(r−1) and the stored mini-batches
//     instead of storing them. Space O(T·b + R·d) per device /
//     O(R·max{K,d}) at the server — a deviation from §5.3.2's full store,
//     which also keeps every θ_k^(t) (O(T·max{b,d})).
//
//   * CompactParticipationIndex — the space-optimized scheme: one
//     participation bit per (client, sample) and per client, O(N+d) and
//     O(M+d) words. Unlearning then retrains from scratch on a hit; same
//     asymptotic unlearning time (Theorem 3).
//
// Storage architecture (DESIGN.md §7.8). Record history no longer lives in
// flat resident maps: mini-batches and selections are held in
// tiered state::HistoryLog blocks — decoded at the training head,
// bitwise-losslessly compressed once cold, and (when a spill directory is
// configured) written through state::SegmentSpiller to mmap-backed,
// CRC-framed segment files. Every tier transition is deterministic and
// exact, so replay reads the same bytes whether a block is resident,
// compressed, or reloaded from disk; RSS stays bounded by the block budgets
// instead of O(T·K·b). Durability is unchanged: the journal/checkpoint
// protocol owns crash recovery, and spilled segments are a process-
// ephemeral cache tier that is swept and rebuilt on restart.
//
// The full store maintains an *inverted participation index* — sample →
// sorted use-iterations and client → sorted participation-rounds — updated
// incrementally by every record mutation (save, substitution overwrite,
// truncation). It subsumes the earliest-use dictionaries of §5.3.1: triage
// ("must we retrain, and from which iteration?") is O(1) per request even
// when the records it summarizes are compressed or spilled, and enumerating
// the mini-batches affected by a deletion is O(uses of that sample) instead
// of a scan over all T·clients records. There is no full rebuild anywhere:
// the index is maintained in place, and IndicesConsistentWithRecords()
// audits it against a from-scratch reconstruction in tests.
//
// Pointer lifetime: pointers returned by the Get*/SampleUses/ClientRounds
// accessors are valid until the next record mutation, and — for records in
// cold blocks — until reads of `decoded_cache_blocks` other cold blocks
// evict their cache entry. All trainer/unlearner read patterns touch one
// history block per iteration, so within-iteration pointers are stable.

#ifndef FATS_FL_STATE_STORE_H_
#define FATS_FL_STATE_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/federated_dataset.h"
#include "state/history_log.h"
#include "state/segment_spill.h"
#include "tensor/tensor.h"

namespace fats {

/// Storage knobs for the tiered history tiers. All of them are execution
/// knobs: they bound memory, never change recorded values or traces.
struct StateStoreOptions {
  /// Iterations (rounds, for selections) per history block.
  int64_t block_iters = 32;
  /// Decoded, writable blocks kept per log (training head + one reopened
  /// block for substitution writes).
  int64_t max_open_blocks = 2;
  /// Compressed blobs kept resident per log before spilling. Without a
  /// spill dir, sealed blobs always stay resident ("compressed only").
  int64_t resident_sealed_blocks = 8;
  /// Decoded read-cache capacity per log, in blocks.
  int64_t decoded_cache_blocks = 8;
  /// Directory for cold segment files; empty disables spilling. The store
  /// sweeps stale `seg-*` files on open and deletes its own on Clear() /
  /// destruction — segments are cache, not durable state.
  std::string spill_dir;
  /// Segment file rotation size.
  int64_t segment_target_bytes = int64_t{1} << 20;
};

class StateStore {
 public:
  StateStore() : StateStore(StateStoreOptions{}) {}
  explicit StateStore(const StateStoreOptions& options);

  StateStore(const StateStore&) = delete;
  StateStore& operator=(const StateStore&) = delete;

  // ----- server-side records -----

  /// Saves the client multiset P drawn at the start of `round` (1-based).
  void SaveClientSelection(int64_t round, std::vector<int64_t> multiset);
  /// nullptr if round has no record.
  const std::vector<int64_t>* GetClientSelection(int64_t round) const;

  /// Saves the aggregated global model at the end of `round`
  /// (round 0 = the initial model).
  void SaveGlobalModel(int64_t round, Tensor params);
  const Tensor* GetGlobalModel(int64_t round) const;

  // ----- client-side records -----

  /// Saves the mini-batch (stable sample indices) used by `client` at
  /// iteration `iter` (1-based).
  void SaveMinibatch(int64_t iter, int64_t client,
                     std::vector<int64_t> indices);
  const std::vector<int64_t>* GetMinibatch(int64_t iter, int64_t client) const;

  // ----- O(1) verification / inverted participation index (§5.3.1) -----

  /// Earliest iteration whose recorded mini-batch contains the sample;
  /// -1 if the sample was never used (including the empty-posting-list
  /// state a truncate-to-zero can leave behind). O(1).
  int64_t EarliestSampleUse(const SampleRef& ref) const;
  /// Earliest round in which the client appears in P; -1 if never. O(1).
  int64_t EarliestClientRound(int64_t client) const;
  /// Ascending iterations whose recorded mini-batch at ref.client contains
  /// ref.index; nullptr when the sample appears in no recorded batch (an
  /// empty posting list reads as nullptr too). The pointer is invalidated
  /// by any record mutation.
  const std::vector<int64_t>* SampleUses(const SampleRef& ref) const;
  /// Ascending rounds whose recorded selection contains the client; nullptr
  /// when the client appears in no recorded selection. The pointer is
  /// invalidated by any record mutation.
  const std::vector<int64_t>* ClientRounds(int64_t client) const;

  /// O(records) audit: true iff the incrementally maintained inverted index
  /// equals a from-scratch reconstruction from the current records (cold
  /// blocks are decoded transiently for the audit). Test / debugging hook;
  /// never needed for correctness.
  bool IndicesConsistentWithRecords() const;

  // ----- re-computation support -----

  /// Discards all records from iteration `from_iter` onward: mini-batches
  /// with iter >= from_iter, client selections of rounds
  /// starting at or after from_iter, and global models of rounds ending at
  /// or after from_iter. The inverted index is maintained incrementally —
  /// O(discarded records), not O(all records) — and spilled blocks release
  /// their segment frames so re-training reuses spill space instead of
  /// leaking it. `local_iters_e` is E (round length in iterations).
  void TruncateFromIteration(int64_t from_iter, int64_t local_iters_e);

  // ----- enumeration (checkpointing and diagnostics) -----

  /// Sorted rounds with a recorded client selection.
  std::vector<int64_t> SelectionRounds() const;
  /// Sorted rounds with a recorded global model (includes round 0).
  std::vector<int64_t> GlobalModelRounds() const;
  /// Sorted (iteration, client) keys of recorded mini-batches.
  std::vector<std::pair<int64_t, int64_t>> MinibatchKeys() const;

  /// Drops every record and index (and every spilled segment).
  void Clear();

  /// Approximate resident bytes of all records (overheads ablation). Cold
  /// compressed blobs count at compressed size; spilled payloads are
  /// reported by SpilledBytes(), not here.
  int64_t ApproxBytes() const;
  /// Payload bytes currently parked in segment files on disk.
  int64_t SpilledBytes() const;

  int64_t num_minibatch_records() const { return minibatches_.size(); }
  int64_t num_rounds_recorded() const { return selections_.size(); }

  const StateStoreOptions& options() const { return options_; }
  /// nullptr when spilling is disabled; stats hook for tests/benchmarks.
  const state::SegmentSpiller* spiller() const { return spiller_.get(); }

 private:
  struct SampleKeyHash {
    size_t operator()(const std::pair<int64_t, int64_t>& key) const {
      uint64_t h = static_cast<uint64_t>(key.first) * 0x9E3779B97F4A7C15ull;
      h ^= static_cast<uint64_t>(key.second) + 0x7F4A7C15ull + (h << 6);
      return static_cast<size_t>(h);
    }
  };
  using SampleKey = std::pair<int64_t, int64_t>;

  // Incremental index maintenance. Every record mutation goes through an
  // Index/Unindex pair; nothing else may touch the index maps (enforced by
  // the fats_analyze store-mutation-bypass rule at the trainer API layer
  // and audited by IndicesConsistentWithRecords()).
  void IndexMinibatch(int64_t iter, int64_t client,
                      const std::vector<int64_t>& indices);
  void UnindexMinibatch(int64_t iter, int64_t client,
                        const std::vector<int64_t>& indices);
  void IndexSelection(int64_t round, const std::vector<int64_t>& multiset);
  void UnindexSelection(int64_t round, const std::vector<int64_t>& multiset);

  StateStoreOptions options_;
  // Destruction order matters: the logs release their spill refs in their
  // destructors, so the spiller must outlive them (declared first).
  std::unique_ptr<state::SegmentSpiller> spiller_;
  // Tiered record history (mutable: cold reads fill a decoded cache; record
  // values are unaffected). Selections use key (round, 0).
  mutable state::HistoryLog minibatches_;
  mutable state::HistoryLog selections_;
  // Global models stay resident: O(R·d) server-side state, read every
  // replay iteration.
  std::map<int64_t, Tensor> global_models_;
  // The inverted participation index: ascending, duplicate-free posting
  // lists. Keys with empty lists are erased, so find() miss == never used.
  // This index is the sanctioned resident summary of the record history —
  // O(1) triage is the point of §5.3.1 — and is exempt from the
  // resident-history rule that pushes record storage into src/state.
  std::unordered_map<SampleKey, std::vector<int64_t>, SampleKeyHash>
      sample_uses_;  // fats-lint: allow(resident-history)
  // fats-lint: allow(resident-history)
  std::unordered_map<int64_t, std::vector<int64_t>> client_rounds_;
};

/// The §5.3.2 space-optimized participation index: O(N) bits per client and
/// O(M) bits at the server. Supports the same O(1) verification; on a hit
/// the unlearner retrains from scratch instead of mid-stream.
class CompactParticipationIndex {
 public:
  CompactParticipationIndex(int64_t num_clients,
                            const std::vector<int64_t>& samples_per_client);

  void RecordClientParticipation(int64_t client);
  void RecordSampleUse(int64_t client, int64_t sample_index);

  bool ClientParticipated(int64_t client) const {
    return client_used_[static_cast<size_t>(client)];
  }
  bool SampleUsed(int64_t client, int64_t sample_index) const {
    return sample_used_[static_cast<size_t>(client)]
                       [static_cast<size_t>(sample_index)];
  }

  void Clear();
  int64_t ApproxBytes() const;

 private:
  std::vector<bool> client_used_;
  std::vector<std::vector<bool>> sample_used_;
};

}  // namespace fats

#endif  // FATS_FL_STATE_STORE_H_
