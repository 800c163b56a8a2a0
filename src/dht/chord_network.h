#ifndef RJOIN_DHT_CHORD_NETWORK_H_
#define RJOIN_DHT_CHORD_NETWORK_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dht/chord_node.h"
#include "dht/id.h"
#include "dht/route_cache.h"
#include "util/status.h"

namespace rjoin::dht {

/// A half-open interval (low, high] on the identifier ring: the key range a
/// churn event moves between nodes. When low == high the range spans the
/// whole ring (the Chord single-node convention).
struct KeyRange {
  NodeId low;
  NodeId high;

  bool Contains(const NodeId& id) const {
    return InIntervalOpenClosed(id, low, high);
  }
};

/// A simulated Chord overlay. All nodes live in-process (the evaluation
/// methodology of the paper). The network provides:
///   * ring membership: join, voluntary leave, failure, stabilization;
///   * ground-truth successor resolution (for correctness checks);
///   * hop-by-hop greedy finger routing (for traffic accounting);
///   * the network-size estimate used to derive the ALTT bound.
class ChordNetwork {
 public:
  ChordNetwork() = default;
  ChordNetwork(const ChordNetwork&) = delete;
  ChordNetwork& operator=(const ChordNetwork&) = delete;

  /// Builds a stabilized network of n nodes whose ids are SHA-1 hashes of
  /// "node:<i>:<seed>" — i.e. consistent hashing of synthetic node keys.
  static std::unique_ptr<ChordNetwork> Create(size_t n, uint64_t seed = 0);

  /// Builds a stabilized network with explicit ring positions (used by the
  /// id-movement load balancer of the Fig. 9 experiment).
  static std::unique_ptr<ChordNetwork> CreateWithPositions(
      const std::vector<NodeId>& positions);

  /// Adds a node with the given id; returns its index. The ring is updated
  /// immediately but finger tables are stale until Stabilize().
  StatusOr<NodeIndex> AddNode(NodeId id);

  /// Marks a node dead (silent failure) and removes it from the ring.
  /// State stored under the node's keys is simply lost, as in a real crash.
  Status FailNode(NodeIndex node);

  /// Voluntary, *graceful* leave: removes the node from the ring, splices
  /// its neighbors' successor/predecessor pointers exactly, and returns the
  /// orphaned key range (pred, node] the departing node was responsible
  /// for. The caller owns that range's state now — it must either hand it
  /// off to the new successor (RJoinEngine emits a StateHandoff) or drop it
  /// deliberately; discarding the returned range silently is the bug the
  /// [[nodiscard]] guards against. Refuses to remove the last alive node
  /// (its range would have no owner).
  [[nodiscard]] StatusOr<KeyRange> LeaveNode(NodeIndex node);

  /// Silent failure with ring repair: removes the node like a crash — no
  /// goodbye, nothing handed off — and returns the orphaned key range
  /// (pred, node] so the layer above can promote whatever replicas of it
  /// survive. The splice itself is identical to LeaveNode's: it stands in
  /// for the stabilization rounds a real ring would run after detecting the
  /// failure, compressed into the event that applies the crash (the
  /// successor "detects" the crash through the topology-generation bump —
  /// see docs/failures.md). Unlike FailNode, the ring stays exact, so
  /// routing and the forwarding rule keep working without protocol rounds.
  /// Refuses to crash the last alive node.
  [[nodiscard]] StatusOr<KeyRange> CrashNode(NodeIndex node);

  /// In-band protocol join: resolves the successor from `bootstrap` with
  /// node-local routing (like JoinViaBootstrap), then immediately splices
  /// the new node into the ring — neighbors' successor/predecessor
  /// pointers, successor lists of the spliced nodes, and one full
  /// fix_fingers() sweep for the joiner — so greedy routing converges
  /// without driver-side RunProtocolRounds. Returns the new node's index;
  /// the joiner's responsibility (its orphan of the successor's old range)
  /// is (predecessor(new), new].
  StatusOr<NodeIndex> JoinAndSplice(NodeId id, NodeIndex bootstrap);

  /// Recomputes successors, predecessors, finger tables and successor lists
  /// for every alive node. Models a fully stabilized Chord network, which
  /// Section 4 assumes for the eventual-completeness theorem.
  void Stabilize();

  // --- Incremental Chord protocol (the real stabilization machinery) ----
  //
  // Stabilize() above is the oracle shortcut used by experiments; the
  // operations below are the per-node protocol steps of the Chord paper:
  // a node joins by asking any live bootstrap node to look up its
  // successor, and the ring heals through repeated stabilize()/notify()/
  // fix_fingers() rounds. Tests drive these to verify that lookups converge
  // to ground truth after joins, voluntary leaves, and silent failures.

  /// Protocol join: resolves the new node's successor by routing from
  /// `bootstrap` with node-local state only. The new node starts with a
  /// coarse finger table (everything pointing at its successor) that
  /// FixFingersOnce repairs over time.
  StatusOr<NodeIndex> JoinViaBootstrap(NodeId id, NodeIndex bootstrap);

  /// One round of Chord's stabilize()+notify() for node `n`: skip dead
  /// successors (via the successor list), adopt a closer successor if the
  /// current successor's predecessor sits between, and update the
  /// successor's predecessor pointer. Also refreshes n's successor list.
  void StabilizeOnce(NodeIndex n);

  /// One round of fix_fingers() for node `n`: re-resolves finger
  /// `finger_index` with a node-local lookup.
  void FixFingersOnce(NodeIndex n, int finger_index);

  /// Runs `rounds` full protocol rounds (every alive node stabilizes and
  /// fixes all fingers). A convenience for tests; O(rounds * N * 160).
  void RunProtocolRounds(int rounds);

  /// Node-local successor resolution: greedy routing using only successor
  /// pointers and finger tables (no oracle), skipping dead nodes. This is
  /// what JoinViaBootstrap and FixFingersOnce use.
  NodeIndex FindSuccessorFrom(NodeIndex src, const NodeId& key) const;

  /// True iff following successor pointers from any alive node visits every
  /// alive node exactly once, in ring order, and predecessor pointers agree.
  bool RingConsistent() const;

  size_t num_alive() const { return ring_.size(); }
  size_t num_total() const { return nodes_.size(); }

  const ChordNode& node(NodeIndex i) const { return *nodes_[i]; }

  /// Ground truth: the node responsible for `key` (its successor on the
  /// ring). Requires a non-empty network.
  NodeIndex SuccessorOf(const NodeId& key) const;

  /// Simulates greedy finger routing from `src` toward the node responsible
  /// for `key`. Returns the sequence of nodes traversed, starting with src
  /// and ending with the responsible node. The number of message
  /// transmissions is path.size() - 1; O(log N) with high probability.
  std::vector<NodeIndex> Route(NodeIndex src, const NodeId& key) const;

  /// Route() into a caller-owned buffer (cleared first). The transport's
  /// per-message hot path reuses one buffer so routing does not
  /// heap-allocate a fresh path vector per message.
  void RoutePath(NodeIndex src, const NodeId& key,
                 std::vector<NodeIndex>* path) const;

  /// Number of hops of Route() without materializing the path.
  size_t RouteHops(NodeIndex src, const NodeId& key) const;

  /// Estimates the network size from node `n`'s successor-list density
  /// (the local-information technique of [14] cited in Section 4).
  double EstimateSize(NodeIndex n) const;

  /// All alive node indices, in ring order.
  std::vector<NodeIndex> AliveNodes() const;

  /// Ground truth: the next `count` alive successors of `node` in ring
  /// order, excluding `node` itself (fewer when the ring is smaller).
  /// Appends to a cleared `*out`. This is the replica target set of the
  /// successor-list replication protocol (docs/failures.md).
  void SuccessorsOf(NodeIndex node, size_t count,
                    std::vector<NodeIndex>* out) const;

  /// True iff every alive node's successor list equals its next
  /// min(kSuccessorListLen, n-1) ring successors, in order — the invariant
  /// the oracle Stabilize() establishes and every splice operation
  /// (JoinAndSplice / LeaveNode / CrashNode) must now preserve. Raw
  /// protocol joins (JoinViaBootstrap without splicing) intentionally
  /// violate it until stabilization rounds run.
  bool ValidSuccessorLists() const;

  /// Length of the successor list each node maintains.
  static constexpr size_t kSuccessorListLen = 8;

  /// Monotone counter bumped by every mutation that can change routing
  /// state (membership, successor/predecessor pointers, fingers). Route
  /// caches stamp their entries with this; a mismatch invalidates them.
  /// Generations are drawn from one process-global counter starting at 1,
  /// so every topology state of every ChordNetwork in the process has a
  /// unique stamp — a cache shared across networks (the process-wide
  /// SuccessorCache) can never mistake one network's entry for another's,
  /// and stamp 0 always means "never filled".
  uint64_t topology_generation() const { return generation_; }

  /// Node `i`'s route memo (created on first use).
  RouteCache& route_cache(NodeIndex i) {
    if (route_caches_[i] == nullptr) {
      route_caches_[i] = std::make_unique<RouteCache>();
    }
    return *route_caches_[i];
  }

 private:
  NodeIndex ClosestPrecedingFinger(NodeIndex from, const NodeId& key) const;

  void BumpGeneration();

  /// Shared splice body of LeaveNode/CrashNode: removes `node` from the
  /// ring, repairs neighbor pointers and *every* successor list that held
  /// it, returns the orphaned range.
  StatusOr<KeyRange> RemoveAndSplice(NodeIndex node);

  /// Rebuilds the successor lists of the up-to-kSuccessorListLen alive
  /// ring-predecessors of `around` (the nodes whose lists reference the
  /// ring segment that just changed) by running StabilizeOnce on each.
  void RepairSuccessorListsAround(NodeIndex around);

  std::vector<std::unique_ptr<ChordNode>> nodes_;
  std::map<NodeId, NodeIndex> ring_;  // alive nodes only
  // Parallel to nodes_; lazily populated. unique_ptr keeps growth cheap and
  // slot addresses stable across the vector's own reallocation.
  std::vector<std::unique_ptr<RouteCache>> route_caches_;
  uint64_t generation_ = 0;
};

}  // namespace rjoin::dht

#endif  // RJOIN_DHT_CHORD_NETWORK_H_
