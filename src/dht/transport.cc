#include "dht/transport.h"

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
uint64_t g_coalesce_groups = 0;
uint64_t g_coalesce_payloads = 0;

bool RouteCacheEnabledFromEnv() {
  const char* v = std::getenv("RJOIN_ROUTE_CACHE");
  return v == nullptr || std::strcmp(v, "0") != 0;
}

}  // namespace

Transport::Transport(ChordNetwork* network, sim::Simulator* sim,
                     sim::LatencyModel* latency)
    : network_(network),
      sim_(sim),
      latency_(latency),
      route_cache_enabled_(RouteCacheEnabledFromEnv()) {
  sim_->set_dispatcher(this);
}

Transport::CoalesceStats Transport::AggregateCoalesce() {
  CoalesceStats s;
  s.groups = g_coalesce_groups;
  s.payloads = g_coalesce_payloads;
  return s;
}

std::vector<NodeIndex>& Transport::RouteScratch() {
  static std::vector<NodeIndex> path;
  return path;
}

core::EnvelopeRef Transport::NewEnvelope(NodeIndex src,
                                         core::MessageTask task) {
  core::EnvelopeRef env = sim_->pool().Acquire();
  env->src = src;
  env->task = std::move(task);
  return env;
}

size_t Transport::SendKey(NodeIndex src, core::KeyId key,
                          core::MessageTask task) {
  core::EnvelopeRef env = NewEnvelope(src, std::move(task));
  const NodeId& ring_id = interner_->ring_id(key);
  if (!network_->node(src).alive()) {
    // A departed node draining in-flight work: it cannot greedy-route (it
    // is off the ring) but still knows the responsible node — one direct
    // hop, like the forwarding rule of docs/churn.md.
    env->dst = CachedSuccessorOf(key, ring_id);
    SendOneHop(std::move(env));
    return 1;
  }
  const RouteView view = ResolveRoute(src, key, ring_id);
  stats::MetricsRegistry& metrics = Metrics();
  Rng& rng = sim_->rng();
  sim::SimTime delay = 0;
  // Each node of the path except the last transmits the message once: the
  // source, then every forwarding hop before the responsible node.
  if (view.count > 0) {
    metrics.AddTraffic(src);
    delay += latency_->Delay(rng);
    for (uint32_t i = 0; i + 1 < view.count; ++i) {
      metrics.AddTraffic(view.hops[i]);
      delay += latency_->Delay(rng);
    }
  }
  RJOIN_CHECK(handler_ != nullptr) << "no message handler registered";
  env->dst = view.dst_or(src);
  const uint32_t hops = view.count;
  stats::Tracer::RecordRouteHops(hops);
  if (stats::Tracer::On()) {
    TraceMessage(stats::TraceCategory::kRoute, env->task.kind(), src, env->dst,
                 hops);
  }
  sim_->Deliver(delay, std::move(env));
  return hops;
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
  SuccessorCache& cache = SuccessorCache::Global();
  const uint64_t gen = network_->topology_generation();
  if (cache.swept_generation() != gen) {
    // First route under this topology: prewarm the whole interned key set
    // (successor knowledge is exactly the state a DHT node maintains
    // proactively). One O(K log N) sweep per generation; afterwards only
    // keys interned mid-stream can miss.
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

void Transport::SendOneHop(core::EnvelopeRef env) {
  Metrics().AddTraffic(env->src);
  const sim::SimTime delay = latency_->Delay(sim_->rng());
  RJOIN_CHECK(handler_ != nullptr) << "no message handler registered";
  stats::Tracer::RecordRouteHops(1);
  if (stats::Tracer::On()) {
    TraceMessage(stats::TraceCategory::kSend, env->task.kind(), env->src,
                 env->dst, 1);
  }
  sim_->Deliver(delay, std::move(env));
}

namespace {

/// Reusable grouping scratch for MultiSendKeys: a dense dst -> group slot
/// map stamped per batch (no clearing between batches) plus the group list
/// itself.
struct CoalesceScratch {
  struct Group {
    NodeIndex dst = kInvalidNode;
    core::KeyId key = core::kInvalidKeyId;  // the head payload's key
    core::Envelope* head = nullptr;
    core::Envelope* member_tail = nullptr;  // last of head->group chain
  };
  std::vector<Group> groups;
  std::vector<uint32_t> slot_of_dst;  // group index, valid iff stamped
  std::vector<uint64_t> stamp;
  uint64_t batch = 0;

  static CoalesceScratch& Get() {
    static CoalesceScratch s;
    return s;
  }
};

}  // namespace

size_t Transport::MultiSendKeys(
    NodeIndex src,
    std::vector<std::pair<core::KeyId, core::MessageTask>>* messages) {
  if (messages->empty()) return 0;
  const bool dead_src = !network_->node(src).alive();
  CoalesceScratch& scratch = CoalesceScratch::Get();
  if (scratch.slot_of_dst.size() < network_->num_total()) {
    scratch.slot_of_dst.resize(network_->num_total(), 0);
    scratch.stamp.resize(network_->num_total(), 0);
  }
  scratch.groups.clear();
  ++scratch.batch;

  // Pass 1: resolve each payload's responsible node through the
  // SuccessorCache — responsibility is sender-independent, so this is the
  // resolution with actual reuse (a random publisher rarely repeats a
  // (src, key) pair, but the key's responsible node is hot) — and bucket
  // payloads by destination, in batch order. The first payload for a
  // destination becomes the group head; the rest chain off its `group`.
  // The same rule covers a departed sender: its one-hop forwarding target
  // IS the responsible node.
  const uint64_t payloads = messages->size();
  for (auto& [key, task] : *messages) {
    core::Envelope* env = NewEnvelope(src, std::move(task)).release();
    const NodeIndex dst = CachedSuccessorOf(key, interner_->ring_id(key));
    if (scratch.stamp[dst] == scratch.batch) {
      CoalesceScratch::Group& g = scratch.groups[scratch.slot_of_dst[dst]];
      if (g.member_tail == nullptr) {
        g.head->group = env;
      } else {
        g.member_tail->link = env;
      }
      g.member_tail = env;
    } else {
      scratch.stamp[dst] = scratch.batch;
      scratch.slot_of_dst[dst] =
          static_cast<uint32_t>(scratch.groups.size());
      scratch.groups.push_back(CoalesceScratch::Group{dst, key, env, nullptr});
    }
  }
  messages->clear();

  // Pass 2: emit one wire message per destination group, in first-seen
  // order — one route's charges and latency draws, one delivery event
  // carrying every payload of the group.
  RJOIN_CHECK(handler_ != nullptr) << "no message handler registered";
  size_t total_hops = 0;
  stats::MetricsRegistry& metrics = Metrics();
  Rng& rng = sim_->rng();
  for (CoalesceScratch::Group& g : scratch.groups) {
    core::EnvelopeRef env(g.head);
    env->dst = g.dst;
    sim::SimTime delay = 0;
    size_t hops = 0;
    if (dead_src) {
      metrics.AddTraffic(src);
      delay = latency_->Delay(rng);
      hops = 1;
    } else {
      // One wire-route walk per group. The per-node tail cache is NOT
      // consulted here: a random publisher's (src, key) pair has no reuse
      // by construction, so caching these walks would only pollute the
      // table (and the hit-rate signal) — the walk itself is already
      // amortized over every payload of the group.
      std::vector<NodeIndex>& path = RouteScratch();
      network_->RoutePath(src, interner_->ring_id(g.key), &path);
      RJOIN_DCHECK(path.back() == g.dst);
      hops = path.size() - 1;
      if (hops > 0) {
        metrics.AddTraffic(src);
        delay += latency_->Delay(rng);
        for (size_t i = 1; i + 1 < path.size(); ++i) {
          metrics.AddTraffic(path[i]);
          delay += latency_->Delay(rng);
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
    sim_->Deliver(delay, std::move(env));
  }
  g_coalesce_groups += scratch.groups.size();
  g_coalesce_payloads += payloads;
  return total_hops;
}

void Transport::SendDirect(NodeIndex src, NodeIndex dst,
                           core::MessageTask task) {
  core::EnvelopeRef env = NewEnvelope(src, std::move(task));
  env->dst = dst;
  SendOneHop(std::move(env));
}

void Transport::DispatchEnvelope(core::EnvelopeRef env) {
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

}  // namespace rjoin::dht
