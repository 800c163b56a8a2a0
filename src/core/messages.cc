#include "core/messages.h"

#include <algorithm>
#include <memory>
#include <mutex>

#include "core/handoff.h"
#include "stats/alloc_tracker.h"
#include "util/logging.h"

namespace rjoin::core {

const char* MessageKindName(MessageKind kind) {
  switch (kind) {
    case MessageKind::kNone:
      return "none";
    case MessageKind::kTuplePublish:
      return "tuple_publish";
    case MessageKind::kQueryIndex:
      return "query_index";
    case MessageKind::kRewrite:
      return "rewrite";
    case MessageKind::kAnswerDeliver:
      return "answer_deliver";
    case MessageKind::kControl:
      return "control";
    case MessageKind::kNodeJoin:
      return "node_join";
    case MessageKind::kNodeLeave:
      return "node_leave";
    case MessageKind::kStateHandoff:
      return "state_handoff";
    case MessageKind::kReplicaUpdate:
      return "replica_update";
    case MessageKind::kNodeCrash:
      return "node_crash";
  }
  return "unknown";
}

// StateHandoff's special members live here so HandoffBatch can stay an
// incomplete type in messages.h (every Envelope user would otherwise pull
// in the whole node-state surface).
StateHandoff::StateHandoff() = default;
StateHandoff::StateHandoff(std::unique_ptr<HandoffBatch> b)
    : batch(std::move(b)) {}
StateHandoff::StateHandoff(StateHandoff&&) noexcept = default;
StateHandoff& StateHandoff::operator=(StateHandoff&&) noexcept = default;
StateHandoff::~StateHandoff() = default;

// ReplicaUpdate boxes its snapshot slice for the same reason.
ReplicaUpdate::ReplicaUpdate() = default;
ReplicaUpdate::ReplicaUpdate(Op o) : op(o) {}
ReplicaUpdate::ReplicaUpdate(ReplicaUpdate&&) noexcept = default;
ReplicaUpdate& ReplicaUpdate::operator=(ReplicaUpdate&&) noexcept = default;
ReplicaUpdate::~ReplicaUpdate() = default;

ReplicaUpdate ReplicaUpdate::CopyDelta() const {
  RJOIN_DCHECK(snapshot == nullptr);
  ReplicaUpdate copy(op);
  copy.key = key;
  copy.from = from;
  copy.seq = seq;
  copy.prev = prev;
  copy.rate = rate;
  copy.expires = expires;
  copy.tuple = tuple;
  copy.residual = residual;
  return copy;
}

namespace {

// Totals of pools that have been destroyed, plus a registry of live pools
// so Aggregate() can fold in their current counters. The mutex guards only
// registration and aggregation — never the per-message hot path.
std::mutex g_pools_mutex;
std::vector<const MessagePool*>& LivePools() {
  static std::vector<const MessagePool*> pools;
  return pools;
}
std::atomic<uint64_t> g_retired_envelopes_allocated{0};
std::atomic<uint64_t> g_retired_acquired{0};
std::atomic<uint64_t> g_retired_released{0};

}  // namespace

void EnvelopeRef::Reset() {
  if (env_ != nullptr) {
    MessagePool::Release(env_);
    env_ = nullptr;
  }
}

MessagePool::MessagePool(size_t slab_envelopes)
    : base_slab_size_(slab_envelopes > 0 ? slab_envelopes : 1),
      owner_(std::this_thread::get_id()) {
  std::lock_guard<std::mutex> lock(g_pools_mutex);
  LivePools().push_back(this);
}

MessagePool::~MessagePool() {
  std::allocator<Envelope> storage;
  for (const Slab& slab : slabs_) {
    std::destroy_n(slab.envelopes, slab.used);
    storage.deallocate(slab.envelopes, slab.size);
  }
  // Deregister and fold the counters into the retired totals under one
  // lock, so a concurrent Aggregate() sees the pool either live or
  // retired — never both (which would double-count it).
  std::lock_guard<std::mutex> lock(g_pools_mutex);
  auto& pools = LivePools();
  for (size_t i = 0; i < pools.size(); ++i) {
    if (pools[i] == this) {
      pools[i] = pools.back();
      pools.pop_back();
      break;
    }
  }
  g_retired_envelopes_allocated.fetch_add(
      envelopes_allocated_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  g_retired_acquired.fetch_add(acquired_.load(std::memory_order_relaxed),
                               std::memory_order_relaxed);
  g_retired_released.fetch_add(released_.load(std::memory_order_relaxed),
                               std::memory_order_relaxed);
}

Envelope* MessagePool::NewEnvelope() {
  // Slab growth is capacity acquisition (only while the in-flight
  // high-water mark rises), not per-envelope traffic — charge it to the
  // capacity plane so the per-record message plane stays a clean ratchet.
  stats::AllocScope plane(stats::AllocPlane::kPoolCapacity);
  if (slabs_.empty() || slabs_.back().used == slabs_.back().size) {
    // Doubling growth (capped): a still-rising in-flight high-water mark
    // costs O(log) slabs, not linear in envelopes.
    const size_t size =
        slabs_.empty() ? base_slab_size_
                       : std::min(slabs_.back().size * 2, kMaxSlabEnvelopes);
    slabs_.push_back(Slab{std::allocator<Envelope>().allocate(size), size, 0});
    slabs_allocated_.fetch_add(1, std::memory_order_relaxed);
  }
  Slab& slab = slabs_.back();
  Envelope* env = std::construct_at(slab.envelopes + slab.used++);
  env->origin = this;
  envelopes_allocated_.fetch_add(1, std::memory_order_relaxed);
  return env;
}

EnvelopeRef MessagePool::Acquire() {
  acquired_.fetch_add(1, std::memory_order_relaxed);
  Envelope* env = free_;
  if (env == nullptr) {
    // Reclaim everything other threads returned since the last miss.
    env = remote_free_.exchange(nullptr, std::memory_order_acquire);
  }
  if (env != nullptr) {
    free_ = env->link;
    env->link = nullptr;
    recycled_.fetch_add(1, std::memory_order_relaxed);
  } else {
    env = NewEnvelope();
  }
  // Hand out a clean envelope; Release() already dropped the payload.
  env->time = 0;
  env->src = dht::kInvalidNode;
  env->seq = 0;
  env->order = 0;
  env->dst = dht::kInvalidNode;
  env->emit_time = 0;
  env->route_key_id = kInvalidKeyId;
  env->stage = EnvelopeStage::kDeliver;
  env->group = nullptr;
  return EnvelopeRef(env);
}

void MessagePool::Release(Envelope* env) {
  // An envelope may still carry a MultiSendKeys chain behind it (teardown
  // of a never-dispatched batch); `link` doubles as the freelist pointer,
  // so walk the chain before repurposing it.
  while (env != nullptr) {
    Envelope* next = env->link;
    if (env->group != nullptr) {
      // Coalesced delivery group still attached (teardown of an undelivered
      // group head): splice the members — themselves link-chained — into the
      // pending walk so each returns to its own origin pool exactly once.
      Envelope* tail = env->group;
      while (tail->link != nullptr) tail = tail->link;
      tail->link = next;
      next = env->group;
      env->group = nullptr;
    }
    RJOIN_DCHECK(env->origin != nullptr);
    env->task.Reset();  // free payload internals on the releasing thread
    MessagePool* pool = env->origin;
    pool->released_.fetch_add(1, std::memory_order_relaxed);
    if (std::this_thread::get_id() == pool->owner_) {
      env->link = pool->free_;
      pool->free_ = env;
    } else {
      Envelope* head = pool->remote_free_.load(std::memory_order_relaxed);
      do {
        env->link = head;
      } while (!pool->remote_free_.compare_exchange_weak(
          head, env, std::memory_order_release, std::memory_order_relaxed));
    }
    env = next;
  }
}

MessagePool::Stats MessagePool::stats() const {
  Stats s;
  s.slabs_allocated = slabs_allocated_.load(std::memory_order_relaxed);
  s.envelopes_allocated =
      envelopes_allocated_.load(std::memory_order_relaxed);
  s.acquired = acquired_.load(std::memory_order_relaxed);
  s.recycled = recycled_.load(std::memory_order_relaxed);
  s.released = released_.load(std::memory_order_relaxed);
  return s;
}

MessagePool::GlobalStats MessagePool::Aggregate() {
  GlobalStats g;
  // Retired totals and the live list are read under the same lock the
  // destructor folds them under, so every pool counts exactly once.
  std::lock_guard<std::mutex> lock(g_pools_mutex);
  g.envelopes_allocated =
      g_retired_envelopes_allocated.load(std::memory_order_relaxed);
  g.acquired = g_retired_acquired.load(std::memory_order_relaxed);
  g.released = g_retired_released.load(std::memory_order_relaxed);
  for (const MessagePool* pool : LivePools()) {
    g.envelopes_allocated +=
        pool->envelopes_allocated_.load(std::memory_order_relaxed);
    g.acquired += pool->acquired_.load(std::memory_order_relaxed);
    g.released += pool->released_.load(std::memory_order_relaxed);
  }
  return g;
}

}  // namespace rjoin::core
