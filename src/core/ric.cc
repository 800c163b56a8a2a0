#include "core/ric.h"

#include <algorithm>
#include <utility>

namespace rjoin::core {

void RateTracker::Roll(RateBucket& b, uint64_t epoch) const {
  if (b.epoch == epoch) return;
  if (epoch == b.epoch + 1) {
    b.previous = b.current;
  } else {
    b.previous = 0;
  }
  b.current = 0;
  b.epoch = epoch;
}

void RateTracker::Record(KeyId key, uint64_t now) {
  RateBucket& b = counts_[key];
  Roll(b, EpochOf(now));
  ++b.current;
}

uint64_t RateTracker::Rate(KeyId key, uint64_t now) const {
  const RateBucket* found = counts_.Find(key);
  if (found == nullptr) return 0;
  RateBucket b = *found;  // Roll a copy; lookups are logically const.
  Roll(b, EpochOf(now));
  return b.current + b.previous;
}

void RateTracker::AppendTrackedKeys(std::vector<KeyId>* out) const {
  counts_.ForEach([&](KeyId key, const RateBucket& bucket) {
    if (!bucket.empty()) out->push_back(key);
  });
}

RateBucket RateTracker::ExtractKey(KeyId key) {
  RateBucket* b = counts_.Find(key);
  if (b == nullptr || b->empty()) return RateBucket{};
  // KeyIdMap never erases; an empty bucket is equivalent (Rate reads 0).
  return std::exchange(*b, RateBucket{});
}

RateBucket RateTracker::PeekKey(KeyId key) const {
  const RateBucket* b = counts_.Find(key);
  return b == nullptr || b->empty() ? RateBucket{} : *b;
}

void RateTracker::MergeSlice(KeyId key, RateBucket incoming) {
  RateBucket& b = counts_[key];
  const uint64_t target = std::max(b.epoch, incoming.epoch);
  Roll(b, target);
  Roll(incoming, target);
  b.current += incoming.current;
  b.previous += incoming.previous;
}

void CandidateTable::Merge(const RicEntry& entry) {
  // A slot created here reads timestamp 0, so a first entry always lands.
  RicEntry& slot = entries_[entry.key];
  if (entry.timestamp >= slot.timestamp) slot = entry;
}

const RicEntry* CandidateTable::Find(KeyId key) const {
  return entries_.Find(key);
}

}  // namespace rjoin::core
