#include "dht/transport.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "stats/trace.h"
#include "util/logging.h"

namespace rjoin::dht {

namespace {

// Typed-event shorthand: every emission/delivery is stamped with the
// executing event's virtual time (the tracer context).
void TraceMessage(stats::TraceCategory cat, core::MessageKind kind,
                  NodeIndex node, NodeIndex peer, uint64_t arg) {
  stats::Tracer::RecordAtContext(cat, static_cast<uint8_t>(kind), node, peer,
                                 arg);
}

// Process-wide destination-coalescing totals (same aggregation shape as the
// route-cache and pool counters).
std::atomic<uint64_t> g_coalesce_groups{0};
std::atomic<uint64_t> g_coalesce_payloads{0};

bool RouteCacheEnabledFromEnv() {
  const char* v = std::getenv("RJOIN_ROUTE_CACHE");
  return v == nullptr || std::strcmp(v, "0") != 0;
}

}  // namespace

Transport::Transport(ChordNetwork* network, sim::Simulator* simulator,
                     sim::LatencyModel* latency,
                     stats::MetricsRegistry* metrics, Rng rng)
    : network_(network),
      simulator_(simulator),
      latency_(latency),
      metrics_(metrics),
      rng_(rng),
      route_cache_enabled_(RouteCacheEnabledFromEnv()) {
  simulator_->set_dispatcher(this);
}

Transport::CoalesceStats Transport::AggregateCoalesce() {
  CoalesceStats s;
  s.groups = g_coalesce_groups.load(std::memory_order_relaxed);
  s.payloads = g_coalesce_payloads.load(std::memory_order_relaxed);
  return s;
}

std::vector<NodeIndex>& Transport::RouteScratch() {
  static thread_local std::vector<NodeIndex> path;
  return path;
}

core::EnvelopeRef Transport::MakeRouted(NodeIndex src, const NodeId& key,
                                        core::MessageTask task,
                                        core::EnvelopeStage stage) {
  core::EnvelopeRef env = router_->AcquireEnvelope(src);
  env->src = src;
  env->route_key = key;
  env->stage = stage;
  env->task = std::move(task);
  return env;
}

size_t Transport::SendKey(NodeIndex src, core::KeyId key,
                          core::MessageTask task) {
  const NodeId& ring_id = interner_->ring_id(key);
  if (router_ != nullptr) {
    core::EnvelopeRef env = MakeRouted(src, ring_id, std::move(task),
                                       core::EnvelopeStage::kRoute);
    env->route_key_id = key;  // lets the deferred stage hit the route cache
    if (!router_->InWorker()) {
      router_->Defer(src, std::move(env));
      return 0;
    }
    return FinishRoute(std::move(env));
  }
  return SerialSend(src, key, std::move(task));
}

Transport::RouteView Transport::ResolveRoute(NodeIndex src, core::KeyId key_id,
                                             const NodeId& ring_id) {
  if (route_cache_enabled_) {
    RouteCache& cache = network_->route_cache(src);
    const uint64_t gen = network_->topology_generation();
    if (const RouteCache::Entry* e = cache.Lookup(key_id, gen)) {
      return RouteView{e->hop, e->hops};
    }
    std::vector<NodeIndex>& path = RouteScratch();
    network_->RoutePath(src, ring_id, &path);
    cache.Insert(key_id, gen, path);
    return RouteView{path.data() + 1, static_cast<uint32_t>(path.size() - 1)};
  }
  std::vector<NodeIndex>& path = RouteScratch();
  network_->RoutePath(src, ring_id, &path);
  return RouteView{path.data() + 1, static_cast<uint32_t>(path.size() - 1)};
}

NodeIndex Transport::CachedSuccessorOf(core::KeyId key_id,
                                       const NodeId& ring_id) {
  if (!route_cache_enabled_) return network_->SuccessorOf(ring_id);
  SuccessorCache& cache = SuccessorCache::Tls();
  const uint64_t gen = network_->topology_generation();
  if (cache.swept_generation() != gen) {
    // First route under this topology on this thread: prewarm the whole
    // interned key set (successor knowledge is exactly the state a DHT
    // node maintains proactively). One O(K log N) sweep per generation per
    // thread; afterwards only keys interned mid-stream can miss.
    const uint32_t keys = interner_->size();
    for (uint32_t k = 0; k < keys; ++k) {
      cache.Insert(k, gen, network_->SuccessorOf(interner_->ring_id(k)));
    }
    cache.set_swept_generation(gen);
  }
  NodeIndex responsible = cache.Lookup(key_id, gen);
  if (responsible == kInvalidNode) {
    responsible = network_->SuccessorOf(ring_id);
    cache.Insert(key_id, gen, responsible);
  }
  return responsible;
}

size_t Transport::SerialSend(NodeIndex src, core::KeyId key_id,
                             core::MessageTask task) {
  const NodeId& key = interner_->ring_id(key_id);
  if (!network_->node(src).alive()) {
    // A departed node draining in-flight work: it cannot greedy-route (it
    // is off the ring) but still knows the responsible node — one direct
    // hop, like the forwarding rule of docs/churn.md.
    Metrics().AddTraffic(src);
    const NodeIndex dst = CachedSuccessorOf(key_id, key);
    stats::Tracer::RecordRouteHops(1);
    if (stats::Tracer::On())
      TraceMessage(stats::TraceCategory::kSend, task.kind(), src, dst, 1);
    SerialDeliver(dst, std::move(task), latency_->Delay(rng_));
    return 1;
  }
  const RouteView view = ResolveRoute(src, key_id, key);
  stats::MetricsRegistry& metrics = Metrics();
  sim::SimTime delay = 0;
  // Each node of the path except the last transmits the message once: the
  // source, then every forwarding hop before the responsible node.
  if (view.count > 0) {
    metrics.AddTraffic(src);
    delay += latency_->Delay(rng_);
    for (uint32_t i = 0; i + 1 < view.count; ++i) {
      metrics.AddTraffic(view.hops[i]);
      delay += latency_->Delay(rng_);
    }
  }
  const NodeIndex dst = view.dst_or(src);
  stats::Tracer::RecordRouteHops(view.count);
  if (stats::Tracer::On()) {
    TraceMessage(stats::TraceCategory::kRoute, task.kind(), src, dst,
                 view.count);
  }
  SerialDeliver(dst, std::move(task), delay);
  return view.count;
}

size_t Transport::FinishRoute(core::EnvelopeRef env) {
  if (!network_->node(env->src).alive()) {
    // Deferred route whose source left at a barrier in between: finish as
    // a one-hop direct send to the responsible node (the departed node
    // drains its outbox before disappearing).
    env->dst = CachedSuccessorOf(env->route_key_id, env->route_key);
    FinishDirect(std::move(env));
    return 1;
  }
  const RouteView view =
      ResolveRoute(env->src, env->route_key_id, env->route_key);
  stats::MetricsRegistry& metrics = Metrics();
  const uint64_t seq = router_->NextEmitSeq(env->src);
  Rng msg_rng = router_->MessageRng(env->src, seq);
  sim::SimTime delay = 0;
  if (view.count > 0) {
    metrics.AddTraffic(env->src);
    delay += latency_->Delay(msg_rng);
    for (uint32_t i = 0; i + 1 < view.count; ++i) {
      metrics.AddTraffic(view.hops[i]);
      delay += latency_->Delay(msg_rng);
    }
  }
  RJOIN_CHECK(handler_ != nullptr) << "no message handler registered";
  env->dst = view.dst_or(env->src);
  env->stage = core::EnvelopeStage::kDeliver;
  const NodeIndex src = env->src;
  const uint32_t hops = view.count;
  stats::Tracer::RecordRouteHops(hops);
  if (stats::Tracer::On()) {
    TraceMessage(stats::TraceCategory::kRoute, env->task.kind(), src, env->dst,
                 hops);
  }
  router_->Deliver(src, seq, delay, std::move(env));
  return hops;
}

void Transport::FinishDirect(core::EnvelopeRef env) {
  Metrics().AddTraffic(env->src);
  const uint64_t seq = router_->NextEmitSeq(env->src);
  Rng msg_rng = router_->MessageRng(env->src, seq);
  const sim::SimTime delay = latency_->Delay(msg_rng);
  RJOIN_CHECK(handler_ != nullptr) << "no message handler registered";
  env->stage = core::EnvelopeStage::kDeliver;
  const NodeIndex src = env->src;
  stats::Tracer::RecordRouteHops(1);
  if (stats::Tracer::On()) {
    TraceMessage(stats::TraceCategory::kSend, env->task.kind(), src, env->dst,
                 1);
  }
  router_->Deliver(src, seq, delay, std::move(env));
}

size_t Transport::MultiSendKeys(
    NodeIndex src,
    std::vector<std::pair<core::KeyId, core::MessageTask>>* messages) {
  // Materialize the batch as one kRouteGroup chain up front — the same
  // shape on every path, so the coalescing pass (and therefore grouping,
  // charging, and emission order) is identical for serial, worker-phase,
  // and deferred execution.
  core::EnvelopeRef head;
  core::Envelope* tail = nullptr;
  for (auto& [key, task] : *messages) {
    core::EnvelopeRef env = router_ != nullptr ? router_->AcquireEnvelope(src)
                                               : simulator_->pool().Acquire();
    env->src = src;
    env->route_key = interner_->ring_id(key);
    env->route_key_id = key;
    env->stage = core::EnvelopeStage::kRouteGroup;
    env->task = std::move(task);
    if (tail == nullptr) {
      head = std::move(env);
      tail = head.get();
    } else {
      tail->link = env.release();
      tail = tail->link;
    }
  }
  messages->clear();
  if (!head) return 0;
  if (router_ != nullptr && !router_->InWorker()) {
    router_->Defer(src, std::move(head));
    return 0;
  }
  return CoalesceAndSend(std::move(head));
}

namespace {

/// Per-thread grouping scratch for CoalesceAndSend: a dense dst -> group
/// slot map stamped per batch (no clearing between batches) plus the group
/// list itself. Workers coalesce concurrently, so this is thread-local like
/// RouteScratch.
struct CoalesceScratch {
  struct Group {
    NodeIndex dst = kInvalidNode;
    core::Envelope* head = nullptr;
    core::Envelope* member_tail = nullptr;  // last of head->group chain
    uint32_t payloads = 0;
  };
  std::vector<Group> groups;
  std::vector<uint32_t> slot_of_dst;  // group index, valid iff stamped
  std::vector<uint64_t> stamp;
  uint64_t batch = 0;

  static CoalesceScratch& Get() {
    static thread_local CoalesceScratch s;
    return s;
  }
};

}  // namespace

size_t Transport::CoalesceAndSend(core::EnvelopeRef chain) {
  const NodeIndex src = chain->src;
  const bool dead_src = !network_->node(src).alive();
  CoalesceScratch& scratch = CoalesceScratch::Get();
  if (scratch.slot_of_dst.size() < network_->num_total()) {
    scratch.slot_of_dst.resize(network_->num_total(), 0);
    scratch.stamp.resize(network_->num_total(), 0);
  }
  scratch.groups.clear();
  ++scratch.batch;

  // Pass 1: resolve each payload's responsible node through the thread's
  // SuccessorCache — responsibility is sender-independent, so this is the
  // resolution with actual reuse (a random publisher rarely repeats a
  // (src, key) pair, but the key's responsible node is hot) — and bucket
  // payloads by destination, in batch order. The first payload for a
  // destination becomes the group head; the rest chain off its `group`.
  // The same rule covers a departed sender: its one-hop forwarding target
  // IS the responsible node.
  uint64_t payloads = 0;
  core::Envelope* cur = chain.release();
  while (cur != nullptr) {
    core::Envelope* next = cur->link;
    cur->link = nullptr;
    ++payloads;
    const NodeIndex dst =
        CachedSuccessorOf(cur->route_key_id, cur->route_key);
    if (scratch.stamp[dst] == scratch.batch) {
      CoalesceScratch::Group& g = scratch.groups[scratch.slot_of_dst[dst]];
      if (g.member_tail == nullptr) {
        g.head->group = cur;
      } else {
        g.member_tail->link = cur;
      }
      g.member_tail = cur;
      ++g.payloads;
    } else {
      scratch.stamp[dst] = scratch.batch;
      scratch.slot_of_dst[dst] =
          static_cast<uint32_t>(scratch.groups.size());
      scratch.groups.push_back(
          CoalesceScratch::Group{dst, cur, nullptr, 1});
    }
    cur = next;
  }

  // Pass 2: emit one wire message per destination group, in first-seen
  // order — one emission seq, one route's charges and latency draws, one
  // delivery event carrying every payload of the group.
  RJOIN_CHECK(handler_ != nullptr) << "no message handler registered";
  size_t total_hops = 0;
  stats::MetricsRegistry& metrics = Metrics();
  for (CoalesceScratch::Group& g : scratch.groups) {
    core::EnvelopeRef env(g.head);
    env->stage = core::EnvelopeStage::kDeliver;
    env->dst = g.dst;
    uint64_t seq = 0;
    Rng msg_rng = rng_;  // serial path draws from the transport stream
    if (router_ != nullptr) {
      seq = router_->NextEmitSeq(src);
      msg_rng = router_->MessageRng(src, seq);
    }
    sim::SimTime delay = 0;
    size_t hops = 0;
    if (dead_src) {
      metrics.AddTraffic(src);
      delay = latency_->Delay(router_ != nullptr ? msg_rng : rng_);
      hops = 1;
    } else {
      // One wire-route walk per group. The per-node tail cache is NOT
      // consulted here: a random publisher's (src, key) pair has no reuse
      // by construction, so caching these walks would only pollute the
      // table (and the hit-rate signal) — the walk itself is already
      // amortized over every payload of the group.
      std::vector<NodeIndex>& path = RouteScratch();
      network_->RoutePath(src, env->route_key, &path);
      RJOIN_DCHECK(path.back() == g.dst);
      hops = path.size() - 1;
      if (hops > 0) {
        metrics.AddTraffic(src);
        delay += latency_->Delay(router_ != nullptr ? msg_rng : rng_);
        for (size_t i = 1; i + 1 < path.size(); ++i) {
          metrics.AddTraffic(path[i]);
          delay += latency_->Delay(router_ != nullptr ? msg_rng : rng_);
        }
      }
    }
    total_hops += hops;
    stats::Tracer::RecordRouteHops(hops);
    if (stats::Tracer::On()) {
      TraceMessage(dead_src ? stats::TraceCategory::kSend
                            : stats::TraceCategory::kRoute,
                   env->task.kind(), src, g.dst, hops);
    }
    if (router_ != nullptr) {
      router_->Deliver(src, seq, delay, std::move(env));
    } else {
      simulator_->Schedule(simulator_->Now() + delay, std::move(env));
    }
  }
  g_coalesce_groups.fetch_add(scratch.groups.size(),
                              std::memory_order_relaxed);
  g_coalesce_payloads.fetch_add(payloads, std::memory_order_relaxed);
  return total_hops;
}

void Transport::SendDirect(NodeIndex src, NodeIndex dst,
                           core::MessageTask task) {
  if (router_ != nullptr) {
    core::EnvelopeRef env = MakeRouted(src, NodeId(), std::move(task),
                                       core::EnvelopeStage::kDirect);
    env->dst = dst;
    if (!router_->InWorker()) {
      router_->Defer(src, std::move(env));
      return;
    }
    FinishDirect(std::move(env));
    return;
  }
  Metrics().AddTraffic(src);
  stats::Tracer::RecordRouteHops(1);
  if (stats::Tracer::On())
    TraceMessage(stats::TraceCategory::kSend, task.kind(), src, dst, 1);
  SerialDeliver(dst, std::move(task), latency_->Delay(rng_));
}

void Transport::DispatchEnvelope(core::EnvelopeRef env) {
  // Only a deferred MultiSendKeys batch arrives as a chain.
  RJOIN_DCHECK(env->link == nullptr ||
               env->stage == core::EnvelopeStage::kRouteGroup);
  switch (env->stage) {
    case core::EnvelopeStage::kRoute:
      FinishRoute(std::move(env));
      return;
    case core::EnvelopeStage::kDirect:
      FinishDirect(std::move(env));
      return;
    case core::EnvelopeStage::kRouteGroup:
      // A deferred MultiSendKeys batch: the whole chain coalesces by
      // destination instead of dispatching one envelope at a time.
      CoalesceAndSend(std::move(env));
      return;
    case core::EnvelopeStage::kDeliver:
      break;
  }
  if (env->task.kind() == core::MessageKind::kControl) {
    core::RunControl(std::move(env));
    return;
  }
  RJOIN_CHECK(handler_ != nullptr) << "no message handler registered";
  const NodeIndex dst = env->dst;
  core::Envelope* members = env->group;  // coalesced co-payloads, if any
  env->group = nullptr;
  if (stats::Tracer::On()) {
    TraceMessage(stats::TraceCategory::kDeliver, env->task.kind(), dst,
                 env->src, 0);
  }
  core::MessageTask task = std::move(env->task);
  // Recycle before handling: anything the handler emits reuses this
  // envelope first, keeping the pool's high-water mark at the true number
  // of concurrently in-flight messages.
  env.Reset();
  handler_->HandleMessage(dst, std::move(task));
  // Remaining payloads of a destination-coalesced group, in batch order —
  // each recycled before its handler runs, exactly like the head.
  while (members != nullptr) {
    core::EnvelopeRef m(members);
    members = m->link;
    m->link = nullptr;
    if (stats::Tracer::On()) {
      TraceMessage(stats::TraceCategory::kDeliver, m->task.kind(), dst,
                   m->src, 0);
    }
    core::MessageTask member_task = std::move(m->task);
    m.Reset();
    handler_->HandleMessage(dst, std::move(member_task));
  }
}

void Transport::ChargeTraffic(NodeIndex node, uint64_t count) {
  Metrics().AddTraffic(node, count, /*ric=*/true);
}

size_t Transport::ChargeRoute(NodeIndex src, const NodeId& key) {
  if (!network_->node(src).alive()) {
    Metrics().AddTraffic(src, 1, /*ric=*/true);  // departed: one hop
    return 1;
  }
  std::vector<NodeIndex>& path = RouteScratch();
  network_->RoutePath(src, key, &path);
  stats::MetricsRegistry& metrics = Metrics();
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    metrics.AddTraffic(path[i], 1, /*ric=*/true);
  }
  return path.size() - 1;
}

void Transport::SerialDeliver(NodeIndex dst, core::MessageTask task,
                              sim::SimTime delay) {
  RJOIN_CHECK(handler_ != nullptr) << "no message handler registered";
  core::EnvelopeRef env = simulator_->pool().Acquire();
  env->dst = dst;
  env->task = std::move(task);
  simulator_->Schedule(simulator_->Now() + delay, std::move(env));
}

}  // namespace rjoin::dht
