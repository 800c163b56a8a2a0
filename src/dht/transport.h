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
#include "util/random.h"

namespace rjoin::dht {

/// Receiver interface: the RJoin engine implements this to get typed
/// message tasks delivered to individual nodes (a switch over
/// core::MessageKind replaces the old dynamic_cast chain).
class MessageHandler {
 public:
  virtual ~MessageHandler() = default;
  virtual void HandleMessage(NodeIndex self, core::MessageTask&& task) = 0;
};

/// Scheduling backend the sharded runtime plugs into the transport
/// (implemented by runtime::ShardRouter). When a router is attached, the
/// transport stops scheduling deliveries on the serial simulator and
/// instead:
///  * tags every message with (src, per-src emission seq) — the
///    deterministic identity its delivery order and latency draws hang off;
///  * draws per-hop latency from an Rng derived from that identity, so
///    delays do not depend on thread interleaving or shard count;
///  * hands the pooled envelope to the router, which places it in the
///    destination shard's event heap or mailbox.
/// Driver-phase sends (tuple publications, query submissions) defer the
/// envelope — still in its kRoute/kDirect stage — onto the source node's
/// shard, which moves the O(log N) routing work onto the worker threads
/// without any closure allocation.
class DeliveryRouter {
 public:
  virtual ~DeliveryRouter() = default;

  /// Virtual time at the caller (event time on a worker, round cursor on
  /// the driver).
  virtual sim::SimTime Now() const = 0;

  /// True when the calling thread is a shard worker executing events.
  virtual bool InWorker() const = 0;

  /// Registry the calling thread may write (its shard's delta registry on
  /// a worker, the main registry on the driver).
  virtual stats::MetricsRegistry* ActiveMetrics() = 0;

  /// Next emission sequence number of `src`.
  virtual uint64_t NextEmitSeq(NodeIndex src) = 0;

  /// Deterministic per-message RNG derived from (src, seq).
  virtual Rng MessageRng(NodeIndex src, uint64_t seq) = 0;

  /// Envelope from the pool of the shard that will execute the next stage:
  /// the calling worker's own pool, or `src`'s shard pool on the driver.
  virtual core::EnvelopeRef AcquireEnvelope(NodeIndex src) = 0;

  /// Runs `env` (and its `link` chain) as one event on `src`'s shard at
  /// the current time (driver-phase send deferral).
  virtual void Defer(NodeIndex src, core::EnvelopeRef env) = 0;

  /// Delivers `env` at Now() + delay on `env->dst`'s shard. Cross-node
  /// deliveries are deferred to at least the end of the current round
  /// (deterministically), preserving the round-lookahead invariant.
  virtual void Deliver(NodeIndex src, uint64_t seq, sim::SimTime delay,
                       core::EnvelopeRef env) = 0;

  /// Attaches the dispatcher the runtime must hand typed envelopes to
  /// (called by Transport::set_router).
  virtual void BindDispatcher(core::EnvelopeDispatcher* dispatcher) = 0;
};

/// The messaging API of Section 2 (originally from [18]), over interned
/// index keys:
///   SendKey(msg, id)       — deliver msg to Successor(id) in O(log N) hops;
///   MultiSendKeys(M, I)    — deliver message M_j to Successor(I_j) for all j;
///   SendDirect(msg, addr)  — deliver msg to a known address in one hop.
///
/// Every message transmission (creation and every DHT-routing forward) is
/// charged one unit of traffic to the transmitting node, matching the
/// traffic definition of Section 8. Delivery is asynchronous through the
/// discrete-event simulator — or, when a DeliveryRouter is attached, through
/// the sharded parallel runtime — with per-hop latency drawn from the
/// latency model (bounded by delta).
///
/// Messages are typed core::MessageTask payloads carried in pooled
/// core::Envelopes: the transport is the core::EnvelopeDispatcher both
/// event pumps call, finishing deferred routing stages and handing
/// delivered payloads to the MessageHandler. The steady-state path —
/// acquire envelope, route, schedule, pop, dispatch, recycle — performs
/// zero heap allocations per message.
class Transport : public core::EnvelopeDispatcher {
 public:
  Transport(ChordNetwork* network, sim::Simulator* simulator,
            sim::LatencyModel* latency, stats::MetricsRegistry* metrics,
            Rng rng);

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  void set_handler(MessageHandler* handler) { handler_ = handler; }

  /// Attaches the sharded runtime's router. nullptr restores the serial
  /// simulator path.
  void set_router(DeliveryRouter* router) {
    router_ = router;
    if (router_ != nullptr) router_->BindDispatcher(this);
  }

  /// Routes `task` from `src` to Successor(key) on the interner's cached
  /// ring identifier — no SHA-1, no key text, anywhere on the path — and
  /// memoizes the route in the sender's RouteCache, so a warm send resolves
  /// its path in O(1) instead of an O(log N) finger walk. Returns the
  /// number of hops (0 when the send was deferred onto a worker shard by
  /// the router).
  size_t SendKey(NodeIndex src, core::KeyId key, core::MessageTask task);

  /// The paper's multiSend(M, I), with destination coalescing: the batch is
  /// grouped by responsible node (resolved through the per-node route
  /// cache) and each group travels as ONE wire message — one emission seq,
  /// one route's worth of traffic charges and latency draws, one delivery
  /// event — whose envelope carries the remaining payloads as a `group`
  /// chain. Grouping is a pure function of the batch and the topology, so
  /// serial and sharded runs coalesce identically. This is the publication
  /// fan-out path (2k index messages per tuple). Returns total wire hops
  /// (0 when deferred). Drains `*messages` in place and clears it, keeping
  /// its capacity — the publish path reuses one batch buffer forever.
  size_t MultiSendKeys(
      NodeIndex src,
      std::vector<std::pair<core::KeyId, core::MessageTask>>* messages);

  /// One-hop delivery to a node whose address is already known.
  void SendDirect(NodeIndex src, NodeIndex dst, core::MessageTask task);

  /// core::EnvelopeDispatcher: executes a due envelope — kRoute/kDirect
  /// stages finish their routing work and reschedule the same envelope; a
  /// kRouteGroup chain (a deferred MultiSendKeys batch) coalesces and
  /// sends; kDeliver recycles the envelope and hands the payload to the
  /// handler; kControl closures run inline.
  void DispatchEnvelope(core::EnvelopeRef env) override;

  ChordNetwork* network() { return network_; }
  sim::Simulator* simulator() { return simulator_; }
  stats::MetricsRegistry* metrics() { return metrics_; }

  /// Charges `count` messages of RIC traffic to `node` without a payload.
  /// RIC lookups (Sections 6-7) are modeled, not sent: the engine charges
  /// their messages here and reads the rate directly, so every message the
  /// send calls above carry is non-RIC traffic.
  void ChargeTraffic(NodeIndex node, uint64_t count);

  /// Charges RIC traffic for an O(log N) route from src towards `key`,
  /// hop-by-hop at each forwarding node, without delivering a payload.
  /// Returns the hop count. Always recomputes: the charged source may live
  /// on a foreign shard, whose route cache this thread must not touch.
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
  /// Registry for the calling thread (shard delta under the router).
  stats::MetricsRegistry& Metrics() {
    return router_ != nullptr ? *router_->ActiveMetrics() : *metrics_;
  }

  /// Scratch path buffer for the calling thread (workers dispatch
  /// concurrently, so the buffer cannot live on the transport).
  static std::vector<NodeIndex>& RouteScratch();

  /// Fills a fresh route-stage envelope (router path).
  core::EnvelopeRef MakeRouted(NodeIndex src, const NodeId& key,
                               core::MessageTask task,
                               core::EnvelopeStage stage);

  /// Finishes the O(log N) routing of a kRoute envelope and reschedules it
  /// as kDeliver (router path). Returns the hop count.
  size_t FinishRoute(core::EnvelopeRef env);

  /// Finishes a kDirect envelope: one traffic unit, derived latency,
  /// reschedule as kDeliver (router path).
  void FinishDirect(core::EnvelopeRef env);

  /// Serial-path send bodies (route/charge/schedule on the simulator).
  size_t SerialSend(NodeIndex src, core::KeyId key, core::MessageTask task);
  void SerialDeliver(NodeIndex dst, core::MessageTask task,
                     sim::SimTime delay);

  /// A resolved forwarding tail: hops[0..count-1] are the nodes after the
  /// source on the greedy route, hops[count-1] the responsible node; count
  /// may be 0 when the source itself is responsible. Points into either the
  /// sender's RouteCache entry or the thread's RouteScratch — consume
  /// before the next resolve.
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

  /// Resolves Successor(ring_id of key_id) through the thread's
  /// SuccessorCache (destination resolution is sender-independent, so the
  /// fan-out's grouping pass shares one memo across every node this thread
  /// runs). Falls back to the ring search when the cache is disabled.
  NodeIndex CachedSuccessorOf(core::KeyId key_id, const NodeId& ring_id);

  /// Destination-coalesced emission of a kRouteGroup chain (serial inline,
  /// router worker-phase, or dispatched deferred chain). Returns total wire
  /// hops.
  size_t CoalesceAndSend(core::EnvelopeRef chain);

  ChordNetwork* network_;
  sim::Simulator* simulator_;
  sim::LatencyModel* latency_;
  stats::MetricsRegistry* metrics_;
  MessageHandler* handler_ = nullptr;
  DeliveryRouter* router_ = nullptr;
  core::KeyInterner* interner_ = &core::KeyInterner::Global();
  Rng rng_;
  bool route_cache_enabled_;
};

}  // namespace rjoin::dht

#endif  // RJOIN_DHT_TRANSPORT_H_
