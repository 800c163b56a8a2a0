#ifndef RJOIN_DHT_ROUTE_CACHE_H_
#define RJOIN_DHT_ROUTE_CACHE_H_

#include <cstdint>
#include <vector>

#include "core/key.h"
#include "core/key_map.h"
#include "dht/chord_node.h"

namespace rjoin::dht {

/// Per-node memo of greedy Chord routes, keyed by interned core::KeyId
/// (PR 4's interner already caches one ring id per key, so the key id is a
/// complete proxy for the routing target). Each entry stores the *full*
/// forwarding tail of RoutePath(src, key) — every hop after the source, the
/// last being the responsible node — so a hit replays exactly the traffic
/// charges, hop count, and latency-draw count of an uncached route. That is
/// what keeps cached runs bit-identical to uncached ones: the cache changes
/// who computes the path, never what the path is.
///
/// Invalidation is by topology generation: ChordNetwork bumps a counter on
/// every mutation that can change routing state (join, leave, failure,
/// stabilization). A cache whose stamped generation is stale lazily drops
/// its whole table on the next lookup — routes recompute once and re-memoize
/// under the new generation. There is no per-entry invalidation to get
/// wrong; churn simply starts an empty table.
///
/// The simulator runs every send on its one thread; the global hit/miss
/// counters are plain process-wide totals.
class RouteCache {
 public:
  /// Longest forwarding tail an entry can hold. Greedy Chord paths are
  /// O(log N) w.h.p. (~10 hops at the paper's 10^3 nodes); longer paths —
  /// pathological stale-finger walks — stay uncached and simply recompute.
  static constexpr uint32_t kMaxCachedHops = 16;

  /// Hard cap on live entries, bounding worst-case memory to ~9 MiB per
  /// node (a 2^17-slot table of 72-byte entries) even if a node sends to
  /// every key in an open-ended domain. At the cap new routes stop
  /// memoizing (counted as misses); correctness is unaffected.
  static constexpr size_t kMaxEntries = size_t{1} << 16;

  struct Entry {
    core::KeyId key = core::kInvalidKeyId;
    uint32_t hops = 0;                 ///< forwarding tail length, >= 1
    NodeIndex hop[kMaxCachedHops] = {};  ///< path[1..]; hop[hops-1] = dst
  };

  /// The cached forwarding tail for `key` under topology `generation`, or
  /// nullptr on miss. A generation change clears the table first.
  const Entry* Lookup(core::KeyId key, uint64_t generation);

  /// Memoizes `path` (a full RoutePath result: path[0] == src, back() ==
  /// responsible) under `generation`. Paths longer than kMaxCachedHops and
  /// inserts past kMaxEntries are dropped.
  void Insert(core::KeyId key, uint64_t generation,
              const std::vector<NodeIndex>& path);

  size_t size() const { return entries_.size(); }

  /// Global cache effectiveness counters (all nodes, all time).
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    double hit_rate() const {
      const uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };
  static Stats Aggregate();

 private:
  /// Drops every entry when `generation` is not the table's stamp.
  void Revalidate(uint64_t generation);

  /// Self-keyed: an Entry is its own slot (Entry::key).
  core::KeyIdMap<Entry, Entry> entries_;
  uint64_t generation_ = 0;
};

/// Destination-resolution memo: interned KeyId -> responsible NodeIndex,
/// each entry stamped with the topology generation it was computed under.
/// Responsibility — unlike a forwarding path — does not depend on the
/// sender, so one process-wide instance (`SuccessorCache::Global()`) is
/// shared by every node. It serves the publication fan-out's grouping pass
/// in Transport::MultiSendKeys, where the (publisher, key) pair is cold by
/// construction (publishers are drawn at random) but the key's responsible
/// node is hot.
///
/// Entries are validated per lookup against the caller's current
/// generation; ChordNetwork generations are process-globally unique, so a
/// process that runs several networks (tests, bench repeats) can never
/// read one network's entry as another's. Hits and misses land in the same
/// process-wide counters as RouteCache's — both levels are the one cached
/// routing plane that `route_cache_hit_rate` reports on.
class SuccessorCache {
 public:
  /// The responsible node memoized for `key` under `generation`, or
  /// kInvalidNode on miss. Counts one hit or miss.
  NodeIndex Lookup(core::KeyId key, uint64_t generation);

  /// Memoizes `responsible` for `key` under `generation`.
  void Insert(core::KeyId key, uint64_t generation, NodeIndex responsible);

  /// Bulk-warm bookkeeping: the transport sweeps every interned key into
  /// the cache the first time it routes under a new topology generation (a
  /// DHT node's successor knowledge IS prewarmed state — only keys
  /// interned after the sweep can miss). The sweep's inserts are not
  /// counted as lookups.
  uint64_t swept_generation() const { return swept_generation_; }
  void set_swept_generation(uint64_t generation) {
    swept_generation_ = generation;
  }

  /// The process-wide instance.
  static SuccessorCache& Global();

 private:
  struct Slot {
    uint64_t generation = 0;  // 0 = never filled (real stamps start at 1)
    NodeIndex node = kInvalidNode;
  };
  /// Indexed directly by the dense interned KeyId; grows on demand.
  std::vector<Slot> slots_;
  uint64_t swept_generation_ = 0;
};

}  // namespace rjoin::dht

#endif  // RJOIN_DHT_ROUTE_CACHE_H_
