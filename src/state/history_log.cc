#include "state/history_log.h"

#include <limits>

#include "state/history_codec.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace fats::state {
namespace {

int64_t ApproxBytes(const HistoryLog::Value& value) {
  return 16 + static_cast<int64_t>(value.size()) * 8;
}

}  // namespace

HistoryLog::HistoryLog(HistoryLogOptions options) : options_(options) {
  FATS_CHECK_GE(options_.block_span, 1);
  FATS_CHECK_GE(options_.max_open_blocks, 1);
  FATS_CHECK_GE(options_.resident_sealed_blocks, 0);
  options_.decoded_cache_blocks =
      options_.decoded_cache_blocks < 2 ? 2 : options_.decoded_cache_blocks;
}

bool HistoryLog::Save(int64_t k1, int64_t k2, Value value, Value* replaced) {
  FATS_CHECK_GE(k1, 0);
  const int64_t bid = k1 / options_.block_span;
  Block& block = OpenBlockFor(bid);
  auto [it, inserted] = block.records.try_emplace(Key{k1, k2});
  const bool was_present = !inserted;
  if (was_present && replaced != nullptr) *replaced = std::move(it->second);
  it->second = std::move(value);
  if (inserted) {
    ++block.count;
    ++size_;
  }
  block.touch = ++tick_;
  EnforceBudgets(bid);
  return was_present;
}

const HistoryLog::Value* HistoryLog::Get(int64_t k1, int64_t k2) const {
  if (k1 < 0) return nullptr;
  const int64_t bid = k1 / options_.block_span;
  auto it = blocks_.find(bid);
  if (it == blocks_.end()) return nullptr;
  const Block& block = it->second;
  if (block.tier == Tier::kOpen) {
    auto rec = block.records.find(Key{k1, k2});
    return rec == block.records.end() ? nullptr : &rec->second;
  }
  const std::map<Key, Value>& decoded = DecodedFor(bid, block);
  auto rec = decoded.find(Key{k1, k2});
  return rec == decoded.end() ? nullptr : &rec->second;
}

void HistoryLog::TruncateFrom(int64_t k1_from, const Visitor& on_erase) {
  FATS_CHECK_GE(k1_from, 0);
  const int64_t first_bid = k1_from / options_.block_span;
  for (auto it = blocks_.lower_bound(first_bid); it != blocks_.end();) {
    const int64_t bid = it->first;
    const int64_t block_first = bid * options_.block_span;
    if (block_first >= k1_from) {
      // Whole block discarded.
      if (on_erase) {
        VisitBlock(bid, it->second, on_erase);
      }
      size_ -= it->second.count;
      ReleaseBlockStorage(&it->second);
      decoded_.erase(bid);
      decoded_ticks_.erase(bid);
      it = blocks_.erase(it);
      continue;
    }
    // Straddling block: reopen and trim the tail.
    Block& block = OpenBlockFor(bid);
    for (auto rec = block.records.lower_bound(
             Key{k1_from, std::numeric_limits<int64_t>::min()});
         rec != block.records.end();) {
      if (on_erase) on_erase(rec->first.first, rec->first.second,
                             rec->second);
      rec = block.records.erase(rec);
      --block.count;
      --size_;
    }
    if (block.count == 0) {
      ReleaseBlockStorage(&block);  // the reopened block is erased, not kept
      it = blocks_.erase(blocks_.find(bid));
    } else {
      it = std::next(blocks_.find(bid));
    }
  }
  EnforceBudgets(-1);
}

void HistoryLog::ForEach(const Visitor& fn) const {
  for (const auto& [bid, block] : blocks_) {
    VisitBlock(bid, block, fn);
  }
}

std::vector<HistoryLog::Key> HistoryLog::Keys() const {
  std::vector<Key> keys;
  keys.reserve(static_cast<size_t>(size_));
  ForEach([&keys](int64_t k1, int64_t k2, const Value& value) {
    (void)value;
    keys.emplace_back(k1, k2);
  });
  return keys;
}

void HistoryLog::Clear() {
  for (auto& [bid, block] : blocks_) {
    (void)bid;
    ReleaseBlockStorage(&block);
  }
  blocks_.clear();
  decoded_.clear();
  decoded_ticks_.clear();
  size_ = 0;
  open_count_ = 0;
  sealed_count_ = 0;
  spilled_count_ = 0;
  held_count_ = 0;
}

void HistoryLog::BeginHold() {
  FATS_CHECK(!holding_);
  holding_ = true;
}

void HistoryLog::EndHold() {
  FATS_CHECK(holding_);
  holding_ = false;
  for (auto& [bid, block] : blocks_) {
    (void)bid;
    block.held = false;
  }
  held_count_ = 0;
  EnforceBudgets(-1);
}

int64_t HistoryLog::ApproxResidentBytes() const {
  int64_t bytes = 0;
  for (const auto& [bid, block] : blocks_) {
    (void)bid;
    if (block.tier == Tier::kOpen) {
      for (const auto& [key, value] : block.records) {
        (void)key;
        bytes += ApproxBytes(value);
      }
    } else if (block.tier == Tier::kSealedResident) {
      bytes += static_cast<int64_t>(block.blob.size());
    }
  }
  for (const auto& [bid, records] : decoded_) {
    (void)bid;
    for (const auto& [key, value] : records) {
      (void)key;
      bytes += ApproxBytes(value);
    }
  }
  return bytes;
}

std::string HistoryLog::EncodeBlock(const std::map<Key, Value>& records,
                                    int64_t block_first) {
  std::string blob;
  blob.push_back(static_cast<char>(1));  // block format version
  AppendVarint(records.size(), &blob);
  int64_t prev_k1 = block_first;
  for (const auto& [key, value] : records) {
    AppendVarint(static_cast<uint64_t>(key.first - prev_k1), &blob);
    prev_k1 = key.first;
    AppendZigzag(key.second, &blob);
    AppendIndexList(value, &blob);
  }
  return blob;
}

Status HistoryLog::DecodeBlock(std::string_view blob, int64_t block_first,
                               std::map<Key, Value>* out) {
  out->clear();
  size_t pos = 0;
  if (blob.empty() || blob[0] != 1) {
    return Status::IoError("history block: bad format version");
  }
  pos = 1;
  uint64_t n = 0;
  FATS_RETURN_NOT_OK(ParseVarint(blob, &pos, &n));
  int64_t prev_k1 = block_first;
  auto hint = out->end();
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t delta = 0;
    FATS_RETURN_NOT_OK(ParseVarint(blob, &pos, &delta));
    const int64_t k1 = prev_k1 + static_cast<int64_t>(delta);
    prev_k1 = k1;
    int64_t k2 = 0;
    FATS_RETURN_NOT_OK(ParseZigzag(blob, &pos, &k2));
    Value value;
    FATS_RETURN_NOT_OK(ParseIndexList(blob, &pos, &value));
    hint = out->emplace_hint(hint, Key{k1, k2}, std::move(value));
  }
  if (pos != blob.size()) {
    return Status::IoError("history block: trailing bytes");
  }
  return Status::OK();
}

std::map<HistoryLog::Key, HistoryLog::Value> HistoryLog::MaterializeRecords(
    int64_t bid, const Block& block) const {
  std::map<Key, Value> records;
  const int64_t block_first = bid * options_.block_span;
  switch (block.tier) {
    case Tier::kOpen:
      records = block.records;
      break;
    case Tier::kSealedResident:
      FATS_CHECK_OK(DecodeBlock(block.blob, block_first, &records));
      break;
    case Tier::kSpilled: {
      Result<std::string_view> payload = options_.spiller->Read(block.ref);
      FATS_CHECK_OK(payload.status());
      FATS_CHECK_OK(DecodeBlock(payload.value(), block_first, &records));
      break;
    }
  }
  FATS_CHECK_EQ(static_cast<int64_t>(records.size()), block.count);
  return records;
}

void HistoryLog::VisitBlock(int64_t bid, const Block& block,
                            const Visitor& fn) const {
  if (block.tier == Tier::kOpen) {
    for (const auto& [key, value] : block.records) {
      fn(key.first, key.second, value);
    }
    return;
  }
  const std::map<Key, Value> records = MaterializeRecords(bid, block);
  for (const auto& [key, value] : records) {
    fn(key.first, key.second, value);
  }
}

void HistoryLog::ReleaseBlockStorage(Block* block) {
  switch (block->tier) {
    case Tier::kOpen:
      --open_count_;
      if (block->held) --held_count_;
      block->held = false;
      break;
    case Tier::kSealedResident:
      --sealed_count_;
      break;
    case Tier::kSpilled:
      options_.spiller->Release(block->ref);
      --spilled_count_;
      break;
  }
  block->records.clear();
  block->blob.clear();
}

HistoryLog::Block& HistoryLog::OpenBlockFor(int64_t bid) {
  auto [it, inserted] = blocks_.try_emplace(bid);
  Block& block = it->second;
  if (inserted) {
    ++open_count_;
    return block;
  }
  if (block.tier == Tier::kOpen) return block;
  // Reopen a cold block for writes (substitution or truncation). The
  // decoded cache entry, if any, describes the sealed bytes we are about
  // to discard — drop it.
  std::map<Key, Value> records = MaterializeRecords(bid, block);
  ReleaseBlockStorage(&block);
  block.tier = Tier::kOpen;
  ++open_count_;
  block.records = std::move(records);
  block.touch = ++tick_;
  block.held = holding_;
  held_count_ += holding_ ? 1 : 0;
  ++blocks_reopened_;
  decoded_.erase(bid);
  decoded_ticks_.erase(bid);
  return block;
}

void HistoryLog::SealBlock(int64_t bid, Block* block) {
  block->blob = EncodeBlock(block->records, bid * options_.block_span);
  block->records.clear();
  block->tier = Tier::kSealedResident;
  --open_count_;
  ++sealed_count_;
}

void HistoryLog::SpillBlock(Block* block) {
  Result<SegmentSpiller::BlockRef> ref = options_.spiller->Write(block->blob);
  if (!ref.ok()) {
    ++spill_errors_;
    return;
  }
  block->ref = ref.value();
  block->blob.clear();
  block->blob.shrink_to_fit();
  block->tier = Tier::kSpilled;
  --sealed_count_;
  ++spilled_count_;
}

void HistoryLog::EnforceBudgets(int64_t protect_bid) {
  while (open_count_ - held_count_ > options_.max_open_blocks) {
    int64_t victim = -1;
    uint64_t oldest = 0;
    for (const auto& [bid, block] : blocks_) {
      if (block.tier != Tier::kOpen || block.held || bid == protect_bid) {
        continue;
      }
      if (victim < 0 || block.touch < oldest) {
        victim = bid;
        oldest = block.touch;
      }
    }
    if (victim < 0) break;
    SealBlock(victim, &blocks_.at(victim));
  }
  if (options_.spiller == nullptr) return;
  while (sealed_count_ > options_.resident_sealed_blocks) {
    auto victim = blocks_.end();
    for (auto it = blocks_.begin(); it != blocks_.end(); ++it) {
      if (it->second.tier == Tier::kSealedResident) {
        victim = it;  // smallest bid = coldest history
        break;
      }
    }
    if (victim == blocks_.end()) break;
    const int64_t before = spill_errors_;
    SpillBlock(&victim->second);
    if (spill_errors_ != before) break;  // degrade: stay resident
  }
}

const std::map<HistoryLog::Key, HistoryLog::Value>& HistoryLog::DecodedFor(
    int64_t bid, const Block& block) const {
  auto it = decoded_.find(bid);
  if (it == decoded_.end()) {
    while (static_cast<int64_t>(decoded_.size()) >=
           options_.decoded_cache_blocks) {
      auto victim = decoded_ticks_.begin();
      for (auto t = decoded_ticks_.begin(); t != decoded_ticks_.end(); ++t) {
        if (t->second < victim->second) victim = t;
      }
      FATS_FAILPOINT("state.block.evict");
      decoded_.erase(victim->first);
      decoded_ticks_.erase(victim);
    }
    it = decoded_.emplace(bid, MaterializeRecords(bid, block)).first;
  }
  decoded_ticks_[bid] = ++tick_;
  return it->second;
}

}  // namespace fats::state
