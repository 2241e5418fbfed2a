// Tiered block storage for keyed training history.
//
// A HistoryLog stores index-list records keyed by (k1, k2) — (iteration,
// client) for mini-batches, (round, 0) for client selections — in blocks of
// `block_span` consecutive k1 values. Each block lives in one of
// three tiers:
//
//   kOpen            decoded std::map, accepts writes (the training head)
//   kSealedResident  one compressed blob (history_codec block format)
//   kSpilled         the same blob, written through the SegmentSpiller to
//                    an mmap-backed CRC-framed segment file
//
// Writes land in the open block for their k1; when the number of open
// blocks exceeds the budget the least-recently-written one is sealed, and
// when sealed-resident blobs exceed their budget the coldest (smallest k1)
// is spilled. Reads of sealed/spilled blocks decode into a small LRU cache
// of hot blocks. Every transition is lossless and deterministic — the codec
// is bit-specified — so a record reads back bitwise-identical whether its
// block is open, compressed, or reloaded from disk. That invariance is the
// contract FATS replay depends on (DESIGN.md §7.8).
//
// Substitution writes and truncation reopen cold blocks transparently;
// TruncateFrom releases whole-block spill refs so the spiller can reclaim
// segment files (truncate-and-retrain reuses, never leaks, spill space).
//
// Block blob format (self-delimiting, little-endian):
//   version:u8(1) n:varint
//   n × ( k1_delta:varint  — k1 minus previous record's k1 (first: minus
//                            the block's first k1), keys ascending
//         k2:zigzag-varint
//         payload           — AppendIndexList/ParseIndexList,
//                             self-delimiting )
//
// Pointer stability: a pointer returned by Get() stays valid until the next
// mutating call, or until Get() of `decoded_cache_blocks` *other* blocks
// evicts its cache entry. All StateStore read patterns touch one block per
// iteration, so the default capacity keeps every such pointer stable.
//
// Not thread-safe; owned and serialized by the state store.

#ifndef FATS_STATE_HISTORY_LOG_H_
#define FATS_STATE_HISTORY_LOG_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "state/segment_spill.h"
#include "util/status.h"

namespace fats::state {

struct HistoryLogOptions {
  /// Consecutive k1 values per block.
  int64_t block_span = 32;
  /// Decoded, writable blocks kept resident (the training head plus one
  /// reopened block for substitution writes).
  int64_t max_open_blocks = 2;
  /// Sealed blobs kept resident before spilling (ignored without a
  /// spiller: blobs then stay resident — "compressed only" mode).
  int64_t resident_sealed_blocks = 8;
  /// Decoded read-cache capacity, in blocks. Must cover the densest
  /// single-iteration read pattern; >= 2 enforced.
  int64_t decoded_cache_blocks = 4;
  /// Borrowed; nullptr disables spilling entirely.
  SegmentSpiller* spiller = nullptr;
};

class HistoryLog {
 public:
  using Value = std::vector<int64_t>;
  using Key = std::pair<int64_t, int64_t>;
  using Visitor = std::function<void(int64_t, int64_t, const Value&)>;

  explicit HistoryLog(HistoryLogOptions options = {});

  HistoryLog(const HistoryLog&) = delete;
  HistoryLog& operator=(const HistoryLog&) = delete;

  ~HistoryLog() { Clear(); }

  /// Stores (replaces) the record at (k1, k2). Returns true when a record
  /// was replaced; the old value is then moved into *replaced when given.
  bool Save(int64_t k1, int64_t k2, Value value, Value* replaced = nullptr);

  /// nullptr when absent. See the header comment for pointer stability.
  const Value* Get(int64_t k1, int64_t k2) const;

  /// Erases every record with k1 >= k1_from, invoking on_erase (may be
  /// empty) for each before it is dropped. Whole cold blocks release their
  /// spill refs; a straddling block is reopened and trimmed in place.
  void TruncateFrom(int64_t k1_from, const Visitor& on_erase);

  /// Visits every record in ascending (k1, k2) order. Cold blocks are
  /// decoded transiently; the read cache is left untouched.
  void ForEach(const Visitor& fn) const;

  /// Ascending (k1, k2) keys of every record.
  std::vector<Key> Keys() const;

  void Clear();

  int64_t size() const { return size_; }

  /// Approximate resident bytes: decoded open blocks at record cost, sealed
  /// blobs at blob cost, plus the decoded read cache. Spilled payload bytes
  /// live in the spiller's accounting, not here.
  int64_t ApproxResidentBytes() const;

  int64_t num_open_blocks() const { return open_count_; }
  int64_t num_sealed_blocks() const { return sealed_count_; }
  int64_t num_spilled_blocks() const { return spilled_count_; }
  int64_t decoded_cache_size() const {
    return static_cast<int64_t>(decoded_.size());
  }
  /// Spill attempts that failed and left the block resident instead
  /// (spilling is an optimization; failure degrades, never corrupts).
  int64_t spill_errors() const { return spill_errors_; }

 private:
  enum class Tier { kOpen, kSealedResident, kSpilled };

  struct Block {
    Tier tier = Tier::kOpen;
    std::map<Key, Value> records;  // kOpen
    std::string blob;              // kSealedResident
    SegmentSpiller::BlockRef ref;  // kSpilled
    int64_t count = 0;
    uint64_t touch = 0;  // recency of the last write (open blocks)
  };

  static std::string EncodeBlock(const std::map<Key, Value>& records,
                                 int64_t block_first);
  static Status DecodeBlock(std::string_view blob, int64_t block_first,
                            std::map<Key, Value>* out);

  /// The block's records, decoding from blob or spill when cold. Used for
  /// transitions and transient enumeration.
  std::map<Key, Value> MaterializeRecords(int64_t bid,
                                          const Block& block) const;
  void VisitBlock(int64_t bid, const Block& block, const Visitor& fn) const;
  /// Frees the block's storage and removes it from its tier count. The
  /// caller either erases the block or re-registers it as open.
  void ReleaseBlockStorage(Block* block);
  Block& OpenBlockFor(int64_t bid);
  void SealBlock(int64_t bid, Block* block);
  void SpillBlock(Block* block);
  /// Seals least-recently-written open blocks past the open budget (never
  /// `protect_bid`), then spills the coldest sealed blobs past the resident
  /// budget. Called after every mutation.
  void EnforceBudgets(int64_t protect_bid);
  /// Decoded view of a cold block through the LRU read cache.
  const std::map<Key, Value>& DecodedFor(int64_t bid,
                                         const Block& block) const;

  HistoryLogOptions options_;
  std::map<int64_t, Block> blocks_;
  int64_t size_ = 0;
  int64_t open_count_ = 0;
  int64_t sealed_count_ = 0;
  int64_t spilled_count_ = 0;
  int64_t spill_errors_ = 0;
  // Read-side decoded cache; mutated by const Gets, never observable in
  // record values (decode is bit-exact).
  mutable std::map<int64_t, std::map<Key, Value>> decoded_;
  mutable std::map<int64_t, uint64_t> decoded_ticks_;
  mutable uint64_t tick_ = 0;
};

}  // namespace fats::state

#endif  // FATS_STATE_HISTORY_LOG_H_
