#include "dht/route_cache.h"

#include <atomic>

#include "util/logging.h"

namespace rjoin::dht {

namespace {

// Process-wide effectiveness counters, written relaxed from whichever
// thread owns the sending node (same aggregation shape as the pool and
// mailbox counters): cheap on the hot path, exact in aggregate.
std::atomic<uint64_t> g_hits{0};
std::atomic<uint64_t> g_misses{0};

}  // namespace

void RouteCache::Revalidate(uint64_t generation) {
  if (generation == generation_) return;
  // Topology changed since the last touch: every memoized path is suspect.
  // Drop the whole table — one churn event costs one re-walk per key,
  // which is exactly what an uncached transport pays on every send.
  if (!entries_.empty()) entries_.clear();
  generation_ = generation;
}

const RouteCache::Entry* RouteCache::Lookup(core::KeyId key,
                                            uint64_t generation) {
  Revalidate(generation);
  if (const Entry* e = entries_.Find(key)) {
    g_hits.fetch_add(1, std::memory_order_relaxed);
    return e;
  }
  g_misses.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void RouteCache::Insert(core::KeyId key, uint64_t generation,
                        const std::vector<NodeIndex>& path) {
  RJOIN_DCHECK(key != core::kInvalidKeyId);
  Revalidate(generation);
  const size_t hops = path.size() - 1;
  if (hops == 0 || hops > kMaxCachedHops) return;
  if (entries_.size() >= kMaxEntries) return;
  Entry& e = entries_[key];
  if (e.hops != 0) return;  // Already memoized this generation.
  e.hops = static_cast<uint32_t>(hops);
  for (size_t h = 0; h < hops; ++h) e.hop[h] = path[h + 1];
}

NodeIndex SuccessorCache::Lookup(core::KeyId key, uint64_t generation) {
  if (key < slots_.size() && slots_[key].generation == generation) {
    g_hits.fetch_add(1, std::memory_order_relaxed);
    return slots_[key].node;
  }
  g_misses.fetch_add(1, std::memory_order_relaxed);
  return kInvalidNode;
}

void SuccessorCache::Insert(core::KeyId key, uint64_t generation,
                            NodeIndex responsible) {
  RJOIN_DCHECK(key != core::kInvalidKeyId);
  RJOIN_DCHECK(generation != 0);
  if (key >= slots_.size()) {
    // Key ids are dense interner handles; sizing to the next power of two
    // past the largest id seen keeps growth amortized-constant.
    size_t cap = slots_.empty() ? 1024 : slots_.size();
    while (cap <= key) cap *= 2;
    slots_.resize(cap);
  }
  slots_[key] = Slot{generation, responsible};
}

SuccessorCache& SuccessorCache::Tls() {
  static thread_local SuccessorCache cache;
  return cache;
}

RouteCache::Stats RouteCache::Aggregate() {
  Stats s;
  s.hits = g_hits.load(std::memory_order_relaxed);
  s.misses = g_misses.load(std::memory_order_relaxed);
  return s;
}

}  // namespace rjoin::dht
