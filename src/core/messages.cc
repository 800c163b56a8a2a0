#include "core/messages.h"

#include <algorithm>
#include <memory>
#include <vector>

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
// so Aggregate() can fold in their current counters.
MessagePool::GlobalStats g_retired;
std::vector<const MessagePool*>& LivePools() {
  static std::vector<const MessagePool*> pools;
  return pools;
}

}  // namespace

void EnvelopeRef::Reset() {
  if (env_ != nullptr) {
    MessagePool::Release(env_);
    env_ = nullptr;
  }
}

MessagePool::MessagePool(size_t slab_envelopes)
    : base_slab_size_(slab_envelopes > 0 ? slab_envelopes : 1) {
  LivePools().push_back(this);
}

MessagePool::~MessagePool() {
  std::allocator<Envelope> storage;
  for (const Slab& slab : slabs_) {
    std::destroy_n(slab.envelopes, slab.used);
    storage.deallocate(slab.envelopes, slab.size);
  }
  std::erase(LivePools(), this);
  g_retired.envelopes_allocated += stats_.envelopes_allocated;
  g_retired.acquired += stats_.acquired;
  g_retired.released += stats_.released;
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
    ++stats_.slabs_allocated;
  }
  Slab& slab = slabs_.back();
  Envelope* env = std::construct_at(slab.envelopes + slab.used++);
  env->origin = this;
  ++stats_.envelopes_allocated;
  return env;
}

EnvelopeRef MessagePool::Acquire() {
  ++stats_.acquired;
  Envelope* env = free_;
  if (env != nullptr) {
    free_ = env->link;
    env->link = nullptr;
    ++stats_.recycled;
  } else {
    env = NewEnvelope();
  }
  // Hand out a clean envelope; Release() already dropped the payload.
  env->time = 0;
  env->src = dht::kInvalidNode;
  env->dst = dht::kInvalidNode;
  env->order = 0;
  env->group = nullptr;
  return EnvelopeRef(env);
}

void MessagePool::Release(Envelope* env) {
  // An envelope may carry a chain behind it (the members of a delivery
  // group); `link` doubles as the freelist pointer, so walk the chain
  // before repurposing it.
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
    env->task.Reset();
    MessagePool* pool = env->origin;
    ++pool->stats_.released;
    env->link = pool->free_;
    pool->free_ = env;
    env = next;
  }
}

MessagePool::GlobalStats MessagePool::Aggregate() {
  GlobalStats g = g_retired;
  for (const MessagePool* pool : LivePools()) {
    g.envelopes_allocated += pool->stats_.envelopes_allocated;
    g.acquired += pool->stats_.acquired;
    g.released += pool->stats_.released;
  }
  return g;
}

}  // namespace rjoin::core
