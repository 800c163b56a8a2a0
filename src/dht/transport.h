#ifndef RJOIN_DHT_TRANSPORT_H_
#define RJOIN_DHT_TRANSPORT_H_

#include <utility>
#include <vector>

#include "core/interner.h"
#include "core/messages.h"
#include "dht/chord_network.h"
#include "dht/id.h"
#include "sim/latency.h"
#include "sim/simulator.h"
#include "stats/metrics.h"

namespace rjoin::dht {

/// Receiver interface: the RJoin engine implements this to get typed
/// message tasks delivered to individual nodes (a switch over
/// core::MessageKind replaces the old dynamic_cast chain).
class MessageHandler {
 public:
  virtual ~MessageHandler() = default;
  virtual void HandleMessage(NodeIndex self, core::MessageTask&& task) = 0;
};

/// The messaging API of Section 2 (originally from [18]), over interned
/// index keys:
///   SendKey(msg, id)       — deliver msg to Successor(id) in O(log N) hops;
///   MultiSendKeys(M, I)    — deliver message M_j to Successor(I_j) for all j;
///   SendDirect(msg, addr)  — deliver msg to a known address in one hop.
///
/// Every message transmission (creation and every DHT-routing forward) is
/// charged one unit of traffic to the transmitting node, matching the
/// traffic definition of Section 8. Sends route inline; delivery is
/// asynchronous through the sim::Simulator, with per-hop latency drawn from
/// the latency model (bounded by delta).
///
/// Messages are typed core::MessageTask payloads carried in pooled
/// core::Envelopes: the transport is the core::EnvelopeDispatcher the
/// simulator calls, handing delivered payloads to the MessageHandler. The
/// steady-state path — acquire envelope, route, schedule, pop, dispatch,
/// recycle — performs zero heap allocations per message.
class Transport : public core::EnvelopeDispatcher {
 public:
  /// Attaches itself to `sim` as its dispatcher.
  Transport(ChordNetwork* network, sim::Simulator* sim,
            sim::LatencyModel* latency);

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  void set_handler(MessageHandler* handler) { handler_ = handler; }

  /// Routes `task` from `src` to Successor(key) on the interner's cached
  /// ring identifier — no SHA-1, no key text, anywhere on the path — and
  /// memoizes the route in the sender's RouteCache, so a warm send resolves
  /// its path in O(1) instead of an O(log N) finger walk. Returns the
  /// number of hops.
  size_t SendKey(NodeIndex src, core::KeyId key, core::MessageTask task);

  /// The paper's multiSend(M, I), with destination coalescing: the batch is
  /// grouped by responsible node (resolved through the successor cache)
  /// and each group travels as ONE wire message — one route's worth of
  /// traffic charges and latency draws, one delivery event — whose
  /// envelope carries the remaining payloads as a `group` chain. This is
  /// the publication fan-out path (2k index messages per tuple). Returns
  /// total wire hops. Drains `*messages` in place and clears it, keeping
  /// its capacity — the publish path reuses one batch buffer forever.
  size_t MultiSendKeys(
      NodeIndex src,
      std::vector<std::pair<core::KeyId, core::MessageTask>>* messages);

  /// One-hop delivery to a node whose address is already known.
  void SendDirect(NodeIndex src, NodeIndex dst, core::MessageTask task);

  /// core::EnvelopeDispatcher: recycles a due envelope and hands its
  /// payload, then each coalesced co-payload, to the handler.
  void DispatchEnvelope(core::EnvelopeRef env) override;

  /// Charges `count` messages of RIC traffic to `node` without a payload.
  /// RIC lookups (Sections 6-7) are modeled, not sent: the engine charges
  /// their messages here and reads the rate directly, so every message the
  /// send calls above carry is non-RIC traffic.
  void ChargeTraffic(NodeIndex node, uint64_t count);

  /// Charges RIC traffic for an O(log N) route from src towards `key`,
  /// hop-by-hop at each forwarding node, without delivering a payload.
  /// Returns the hop count. Always recomputes, so the route caches and
  /// their hit counters see payload sends only.
  size_t ChargeRoute(NodeIndex src, const NodeId& key);

  /// Route-cache kill switch (RJOIN_ROUTE_CACHE=0 disables; default on).
  /// With the cache off every send recomputes its path — the oracle the
  /// cache must match bit-for-bit.
  void set_route_cache_enabled(bool on) { route_cache_enabled_ = on; }

  /// Process-wide destination-coalescing counters (all transports):
  /// `groups` wire messages carried `payloads` application payloads.
  struct CoalesceStats {
    uint64_t groups = 0;
    uint64_t payloads = 0;
  };
  static CoalesceStats AggregateCoalesce();

 private:
  stats::MetricsRegistry& Metrics() { return sim_->metrics(); }

  /// Reusable scratch path buffer.
  static std::vector<NodeIndex>& RouteScratch();

  /// A fresh envelope carrying `task` from `src`.
  core::EnvelopeRef NewEnvelope(NodeIndex src, core::MessageTask task);

  /// Sends `env` (src and dst set) as one direct hop: one traffic unit,
  /// one latency draw.
  void SendOneHop(core::EnvelopeRef env);

  /// A resolved forwarding tail: hops[0..count-1] are the nodes after the
  /// source on the greedy route, hops[count-1] the responsible node; count
  /// may be 0 when the source itself is responsible. Points into either the
  /// sender's RouteCache entry or RouteScratch — consume before the next
  /// resolve.
  struct RouteView {
    const NodeIndex* hops = nullptr;
    uint32_t count = 0;
    NodeIndex dst_or(NodeIndex src) const {
      return count == 0 ? src : hops[count - 1];
    }
  };

  /// Resolves the route src -> Successor(ring_id of key_id): cache hit when
  /// the cache is enabled and the topology generation still matches;
  /// otherwise one RoutePath walk, memoized for next time.
  RouteView ResolveRoute(NodeIndex src, core::KeyId key_id,
                         const NodeId& ring_id);

  /// One uncached RoutePath walk src -> Successor(ring_id), into
  /// RouteScratch.
  RouteView WalkRoute(NodeIndex src, const NodeId& ring_id);

  /// The one routed-send body of SendKey and each MultiSendKeys group:
  /// charges the route's transmissions, draws one latency per hop, records
  /// the hop histogram and trace, and delivers `env` (src set) to the
  /// route's last node. Returns the hop count.
  size_t SendRouted(core::EnvelopeRef env, RouteView route);

  /// Charges one message of traffic (`ric` marks RIC traffic) to every node
  /// that transmits along `route` from `src`: the source, then each
  /// forwarding hop before the last node.
  void ChargeHops(NodeIndex src, RouteView route, bool ric);

  /// Resolves Successor(ring_id of key_id) through the process-wide
  /// SuccessorCache (destination resolution is sender-independent, so the
  /// fan-out's grouping pass shares one memo across every sender). Falls
  /// back to the ring search when the cache is disabled.
  NodeIndex CachedSuccessorOf(core::KeyId key_id, const NodeId& ring_id);

  ChordNetwork* network_;
  sim::Simulator* sim_;
  sim::LatencyModel* latency_;
  MessageHandler* handler_ = nullptr;
  core::KeyInterner* interner_ = &core::KeyInterner::Global();
  bool route_cache_enabled_;
};

}  // namespace rjoin::dht

#endif  // RJOIN_DHT_TRANSPORT_H_
