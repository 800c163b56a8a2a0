#ifndef RJOIN_CORE_MESSAGES_H_
#define RJOIN_CORE_MESSAGES_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/key.h"
#include "core/residual.h"
#include "core/ric.h"
#include "core/tuple_ref.h"
#include "dht/chord_node.h"
#include "dht/id.h"
#include "sim/time.h"
#include "sql/tuple.h"
#include "sql/value.h"

namespace rjoin::core {

// ---------------------------------------------------------------------------
// The typed message plane. Every payload that crosses the (simulated)
// network is one of the alternatives below, defined once and dispatched by
// a switch in the engine — no virtual message hierarchy, no dynamic_cast,
// and no type-erased closure per delivery. Payloads travel inside pooled
// Envelopes (see MessagePool), so the steady-state delivery path performs
// zero heap allocations per message.
// ---------------------------------------------------------------------------

/// Discriminator of MessageTask. Values mirror the variant's alternative
/// indices (static_asserted below), so kind() is a free read.
enum class MessageKind : uint8_t {
  kNone = 0,       ///< empty task (pooled envelope at rest)
  kTuplePublish,   ///< Procedure 1: a tuple indexed under one of its 2k keys
  kQueryIndex,     ///< Procedure 2: an *input* query being indexed
  kRewrite,        ///< Procedure 3: a rewritten residual being (re)indexed
  kAnswerDeliver,  ///< a completed join row returning to Owner(q)
  kControl,        ///< a closure on the event plane (tests schedule these)
  kNodeJoin,       ///< churn: a node joining the ring at a given position
  kNodeLeave,      ///< churn: a voluntary, graceful departure
  kStateHandoff,   ///< churn: NodeState slices moving to a new owner
  kReplicaUpdate,  ///< replication: one key's mirror (delta or snapshot)
  kNodeCrash,      ///< failure injection: a silent kill — no handoff
};

const char* MessageKindName(MessageKind kind);

/// Procedure 1's newTuple(t, Key, IP(x), Level): a tuple indexed under one
/// of its 2k keys (k attribute-level + k value-level). The key is an
/// interned id — the canonical text and level were interned once at
/// publication; receivers resolve level/text through the KeyInterner
/// without hashing anything. The tuple travels as a pooled-record handle
/// (core::TupleRef): the 2k copies of a publish share one flat record and
/// each message holds a 4-byte reference, not a shared_ptr control block.
struct TuplePublish {
  TupleRef tuple;
  KeyId key = kInvalidKeyId;
  dht::NodeIndex publisher = dht::kInvalidNode;
};

/// Procedure 2's Eval(q, Key, Owner(q)): an input query being indexed at
/// the node responsible for `key`. Carries piggy-backed RIC info
/// (Section 7) so the receiver can index further rewrites cheaply.
struct QueryIndex {
  Residual residual;
  KeyId key = kInvalidKeyId;
  RicVec piggyback;
};

/// Procedure 3's Eval(q', Key, Owner(q)): a rewritten residual being
/// re-indexed after a binding. Same wire shape as QueryIndex; the distinct
/// kind keeps tuple-triggered traffic separable from query-submission
/// traffic at every dispatch point.
struct Rewrite {
  Residual residual;
  KeyId key = kInvalidKeyId;
  RicVec piggyback;
};

/// An answer tuple sent back to the node that submitted the input query
/// (sendDirect to Owner(q)). The row is a flat array of interned ValueIds
/// (select lists are bounded by kMaxSelectItems): the message is POD, the
/// owner's AnswerLog keeps the flat row, and an Answer with sql::Values is
/// built only when the log is read.
struct AnswerDeliver {
  uint64_t query_id = 0;
  uint64_t completed_at = 0;
  /// Publication time of the tuple whose arrival completed the residual —
  /// the start of the end-to-end answer-latency measurement
  /// (docs/observability.md).
  uint64_t pub_time = 0;
  uint16_t row_len = 0;
  ValueId row[kMaxSelectItems] = {};
};

/// A closure riding the event plane. Only tests create them, on the
/// simulator's queue directly. Not a network message; the closure may
/// allocate, which is fine off the steady-state delivery path.
struct Control {
  std::function<void()> run;
};

/// Live churn, join half: a node announcing it wants to join the ring at
/// `id`, delivered to a bootstrap node, which applies it on delivery (see
/// docs/churn.md).
struct NodeJoin {
  dht::NodeId id;
  dht::NodeIndex bootstrap = dht::kInvalidNode;
};

/// Live churn, leave half: node `node` departs gracefully. Applied like
/// NodeJoin; the departing node's responsibility range is
/// handed to its successor as a StateHandoff.
struct NodeLeave {
  dht::NodeIndex node = dht::kInvalidNode;
};

/// Live churn, transfer half: the NodeState slices of a moved key range,
/// boxed so the rare churn path does not grow every pooled Envelope. The
/// batch definition lives in core/handoff.h; the out-of-line special
/// members keep HandoffBatch an incomplete type here.
struct HandoffBatch;
struct StateHandoff {
  StateHandoff();
  explicit StateHandoff(std::unique_ptr<HandoffBatch> b);
  StateHandoff(StateHandoff&&) noexcept;
  StateHandoff& operator=(StateHandoff&&) noexcept;
  StateHandoff(const StateHandoff&) = delete;
  StateHandoff& operator=(const StateHandoff&) = delete;
  ~StateHandoff();

  std::unique_ptr<HandoffBatch> batch;
};

/// Successor-list replication (docs/failures.md): one mirror of one key,
/// sent by the key's owner to each of its next r-1 successors. A delta
/// carries the one record a delivery stored, inline; a whole-slice REPLACE
/// snapshot is boxed and travels only when a successor may lack the
/// owner's baseline for the key. Every mirror carries the owner's sequence
/// number and the number of the key's previous mirror, so a replica
/// applies a delta only on top of exactly the state it extends and asks
/// for a REPLACE (kResync) when it detects a gap.
struct KeySlice;  // core/handoff.h
struct ReplicaUpdate {
  enum class Op : uint8_t {
    kReplace,  ///< whole-slice snapshot in `snapshot`
    kQuery,    ///< delta: `residual` was stored
    kTuple,    ///< delta: value-level `tuple` arrived and was stored
    kAltt,     ///< delta: attribute-level `tuple` was stored until `expires`
    kRate,     ///< delta: `tuple` arrived and stored nothing (ALTT off)
    kResync,   ///< replica `from` -> owner: gap detected, send a REPLACE
  };

  ReplicaUpdate();
  explicit ReplicaUpdate(Op o);
  ReplicaUpdate(ReplicaUpdate&&) noexcept;
  ReplicaUpdate& operator=(ReplicaUpdate&&) noexcept;
  ReplicaUpdate(const ReplicaUpdate&) = delete;
  ReplicaUpdate& operator=(const ReplicaUpdate&) = delete;
  ~ReplicaUpdate();

  /// Copy of an inline delta, for the second and later successors
  /// (snapshots are never copied; each target gets its own box).
  ReplicaUpdate CopyDelta() const;

  Op op = Op::kReplace;
  KeyId key = kInvalidKeyId;
  dht::NodeIndex from = dht::kInvalidNode;  ///< owner, or the requester
  uint64_t seq = 0;   ///< owner's sequence number of this mirror
  uint64_t prev = 0;  ///< sequence number of the key's previous mirror
  /// Tuple deltas: the owner's absolute rate bucket after the arrival.
  RateBucket rate;
  uint64_t expires = 0;  ///< kAltt: the entry's absolute expiry
  TupleRef tuple;        ///< tuple deltas
  Residual residual;     ///< kQuery
  std::unique_ptr<KeySlice> snapshot;  ///< kReplace
};

/// Failure injection: node `node` is killed silently — no goodbye, no
/// handoff; its state survives only as replica slices at its successors.
/// Applied on delivery like NodeJoin/NodeLeave.
/// `take_successors` > 0 additionally kills that many adjacent ring
/// successors in the same instant (the correlated-kill worst case that
/// defeats a replication factor of take_successors + 1).
struct NodeCrash {
  dht::NodeIndex node = dht::kInvalidNode;
  uint32_t take_successors = 0;
};

/// Move-only tagged union of every payload kind. The alternative order
/// must match MessageKind (see the static_asserts below).
class MessageTask {
 public:
  MessageTask() = default;
  MessageTask(TuplePublish&& p) : v_(std::move(p)) {}
  MessageTask(QueryIndex&& p) : v_(std::move(p)) {}
  MessageTask(Rewrite&& p) : v_(std::move(p)) {}
  MessageTask(AnswerDeliver&& p) : v_(std::move(p)) {}
  MessageTask(Control&& p) : v_(std::move(p)) {}
  MessageTask(NodeJoin&& p) : v_(std::move(p)) {}
  MessageTask(NodeLeave&& p) : v_(std::move(p)) {}
  MessageTask(StateHandoff&& p) : v_(std::move(p)) {}
  MessageTask(ReplicaUpdate&& p) : v_(std::move(p)) {}
  MessageTask(NodeCrash&& p) : v_(std::move(p)) {}

  MessageTask(MessageTask&&) noexcept = default;
  MessageTask& operator=(MessageTask&&) noexcept = default;
  MessageTask(const MessageTask&) = delete;
  MessageTask& operator=(const MessageTask&) = delete;

  MessageKind kind() const { return static_cast<MessageKind>(v_.index()); }
  bool empty() const { return kind() == MessageKind::kNone; }

  TuplePublish& tuple_publish() { return std::get<TuplePublish>(v_); }
  QueryIndex& query_index() { return std::get<QueryIndex>(v_); }
  Rewrite& rewrite() { return std::get<Rewrite>(v_); }
  AnswerDeliver& answer() { return std::get<AnswerDeliver>(v_); }
  Control& control() { return std::get<Control>(v_); }
  NodeJoin& node_join() { return std::get<NodeJoin>(v_); }
  NodeLeave& node_leave() { return std::get<NodeLeave>(v_); }
  StateHandoff& state_handoff() { return std::get<StateHandoff>(v_); }
  ReplicaUpdate& replica_update() { return std::get<ReplicaUpdate>(v_); }
  NodeCrash& node_crash() { return std::get<NodeCrash>(v_); }

  /// Drops the payload (back to kNone), releasing whatever it owned.
  void Reset() { v_.emplace<std::monostate>(); }

 private:
  using Variant =
      std::variant<std::monostate, TuplePublish, QueryIndex, Rewrite,
                   AnswerDeliver, Control, NodeJoin, NodeLeave, StateHandoff,
                   ReplicaUpdate, NodeCrash>;

  template <MessageKind K, typename T>
  static constexpr bool kMatches =
      std::is_same_v<std::variant_alternative_t<static_cast<size_t>(K),
                                                Variant>,
                     T>;
  static_assert(kMatches<MessageKind::kNone, std::monostate>);
  static_assert(kMatches<MessageKind::kTuplePublish, TuplePublish>);
  static_assert(kMatches<MessageKind::kQueryIndex, QueryIndex>);
  static_assert(kMatches<MessageKind::kRewrite, Rewrite>);
  static_assert(kMatches<MessageKind::kAnswerDeliver, AnswerDeliver>);
  static_assert(kMatches<MessageKind::kControl, Control>);
  static_assert(kMatches<MessageKind::kNodeJoin, NodeJoin>);
  static_assert(kMatches<MessageKind::kNodeLeave, NodeLeave>);
  static_assert(kMatches<MessageKind::kStateHandoff, StateHandoff>);
  static_assert(kMatches<MessageKind::kReplicaUpdate, ReplicaUpdate>);
  static_assert(kMatches<MessageKind::kNodeCrash, NodeCrash>);

  Variant v_;

 public:
  /// Number of MessageKinds, kNone included (kinds are dense from 0).
  static constexpr size_t kNumKinds = std::variant_size_v<Variant>;
};

// ---------------------------------------------------------------------------
// Envelope: the one in-flight message representation, shared by the
// sim::EventQueue and the dht::Transport. Envelopes are slab-allocated by a
// MessagePool and recycled through a freelist, so a message in steady state
// costs zero heap allocations end to end.
// ---------------------------------------------------------------------------

class MessagePool;

struct Envelope {
  // --- scheduling identity -------------------------------------------------
  sim::SimTime time = 0;             ///< virtual delivery time
  dht::NodeIndex src = dht::kInvalidNode;  ///< emitting node
  dht::NodeIndex dst = dht::kInvalidNode;  ///< receiving node
  uint64_t order = 0;   ///< EventQueue insertion seq (FIFO on ties)

  // --- payload -------------------------------------------------------------
  MessageTask task;

  // --- plumbing ------------------------------------------------------------
  Envelope* link = nullptr;   ///< delivery-group chain / pool freelist
  /// Head of a destination-coalesced delivery group: extra payloads that
  /// ride this envelope to the same dst (chained through their own `link`).
  /// The group shares this envelope's (src, time) identity and was charged
  /// as one wire message.
  Envelope* group = nullptr;
  MessagePool* origin = nullptr;  ///< pool the storage belongs to
};

// The variant is sized by Rewrite/QueryIndex; the inline replica delta must
// not widen it (docs/messaging.md records the sizes).
static_assert(sizeof(ReplicaUpdate) <= sizeof(Rewrite),
              "replica deltas must fit the rewrite-sized payload slot");
static_assert(sizeof(Envelope) == 432, "pooled Envelope size changed");

/// Move-only owner of a pooled Envelope; releasing returns the envelope
/// (payload dropped) to its pool's freelist.
class EnvelopeRef {
 public:
  EnvelopeRef() = default;
  explicit EnvelopeRef(Envelope* env) : env_(env) {}
  EnvelopeRef(EnvelopeRef&& other) noexcept : env_(other.env_) {
    other.env_ = nullptr;
  }
  EnvelopeRef& operator=(EnvelopeRef&& other) noexcept {
    if (this != &other) {
      Reset();
      env_ = other.env_;
      other.env_ = nullptr;
    }
    return *this;
  }
  EnvelopeRef(const EnvelopeRef&) = delete;
  EnvelopeRef& operator=(const EnvelopeRef&) = delete;
  ~EnvelopeRef() { Reset(); }

  /// Returns the envelope to its pool (no-op when empty).
  void Reset();

  Envelope* get() const { return env_; }
  Envelope* release() {
    Envelope* e = env_;
    env_ = nullptr;
    return e;
  }
  Envelope* operator->() const { return env_; }
  Envelope& operator*() const { return *env_; }
  explicit operator bool() const { return env_ != nullptr; }

 private:
  Envelope* env_ = nullptr;
};

/// Slab/freelist allocator for Envelopes; the simulator owns one and only
/// its thread touches it. Slabs are never freed until the pool dies, so
/// pointers stay valid for the pool's whole lifetime.
class MessagePool {
 public:
  static constexpr size_t kDefaultSlabEnvelopes = 256;

  explicit MessagePool(size_t slab_envelopes = kDefaultSlabEnvelopes);
  ~MessagePool();
  MessagePool(const MessagePool&) = delete;
  MessagePool& operator=(const MessagePool&) = delete;

  /// Hands out a clean envelope (freelist hit in steady state; slab growth
  /// only while the in-flight high-water mark is still rising).
  EnvelopeRef Acquire();

  /// Returns `env`, and every envelope chained behind it, to its origin
  /// pool, dropping the payloads first. Used by EnvelopeRef — call that
  /// instead where possible.
  static void Release(Envelope* env);

  /// Allocation counters of this pool. `envelopes_allocated` only grows
  /// while the high-water mark of in-flight messages grows; in steady state
  /// every Acquire is a `recycled` freelist hit — the zero-allocation
  /// property the messaging tests assert.
  struct Stats {
    uint64_t slabs_allocated = 0;
    uint64_t envelopes_allocated = 0;
    uint64_t acquired = 0;
    uint64_t recycled = 0;
    uint64_t released = 0;  ///< envelopes returned to the freelist

    /// Envelopes handed out and not yet returned. Zero after a full drain —
    /// the no-envelope-lost/duplicated balance the churn tests assert.
    uint64_t outstanding() const { return acquired - released; }
  };
  Stats stats() const { return stats_; }

  /// Process-wide totals across all pools, live and destroyed. The bench
  /// reporter diffs these around a figure to derive `allocs_per_tuple` and
  /// `messages_per_sec`.
  struct GlobalStats {
    uint64_t envelopes_allocated = 0;
    uint64_t acquired = 0;
    uint64_t released = 0;

    /// Envelopes in flight across every pool. Zero once every simulator has
    /// drained — the balance the pool-balance suite asserts.
    uint64_t outstanding() const { return acquired - released; }
  };
  static GlobalStats Aggregate();

 private:
  friend class EnvelopeRef;

  Envelope* NewEnvelope();

  /// Each slab doubles the previous one up to this cap, so a pool whose
  /// in-flight high-water mark keeps rising costs O(log) slab allocations
  /// instead of high_water / slab_size (same policy as core::SlabPool).
  static constexpr size_t kMaxSlabEnvelopes = 16384;

  /// Raw storage for `size` envelopes, of which the first `used` have been
  /// constructed: an envelope is built when first handed out, as
  /// core::SlabPool builds its nodes, so the untouched tail of the newest
  /// slab stays out of the resident set.
  struct Slab {
    Envelope* envelopes;
    size_t size;
    size_t used;
  };

  const size_t base_slab_size_;
  std::vector<Slab> slabs_;
  Envelope* free_ = nullptr;
  Stats stats_;
};

/// Executes due envelopes. dht::Transport is the one implementation: it
/// hands delivered payloads to the engine's dispatch switch. The simulator
/// calls this for every non-Control envelope it pops.
class EnvelopeDispatcher {
 public:
  virtual ~EnvelopeDispatcher() = default;
  virtual void DispatchEnvelope(EnvelopeRef env) = 0;
};

/// Executes a Control envelope: the closure moves out and the envelope
/// recycles *before* the closure runs, so anything it schedules reuses the
/// freed envelope first.
inline void RunControl(EnvelopeRef env) {
  std::function<void()> run = std::move(env->task.control().run);
  env.Reset();
  run();
}

}  // namespace rjoin::core

#endif  // RJOIN_CORE_MESSAGES_H_
