#ifndef RJOIN_CORE_ENGINE_H_
#define RJOIN_CORE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/answer_log.h"
#include "core/handoff.h"
#include "core/interner.h"
#include "core/key.h"
#include "core/key_map.h"
#include "core/messages.h"
#include "core/node_state.h"
#include "core/planner.h"
#include "core/residual.h"
#include "dht/chord_network.h"
#include "dht/load_balancer.h"
#include "dht/transport.h"
#include "sim/simulator.h"
#include "sql/parser.h"
#include "sql/schema.h"
#include "stats/metrics.h"
#include "util/random.h"
#include "util/status.h"

namespace rjoin::core {

/// Tunables of the RJoin engine. Defaults follow the paper's algorithm
/// (RIC-driven planning, ALTT enabled).
struct EngineConfig {
  /// Where-to-index strategy (Section 6 / Fig. 2 baselines).
  PlannerPolicy policy = PlannerPolicy::kRic;

  /// Indexing levels available to rewritten queries. kValuePreferred
  /// (Section 3's default) preserves completeness with a finite ALTT Delta;
  /// kIncludeAttribute (the Section 6 generalization) requires
  /// altt_delta = kInfiniteDelta for completeness.
  RewriteIndexLevels rewrite_levels = RewriteIndexLevels::kValuePreferred;

  /// Charge the network messages of RIC requests (Sections 6-7). Disable to
  /// model an oracle with free statistics (used in ablation benches).
  bool charge_ric_messages = true;

  /// Section 7's traffic minimization: cache RIC info in candidate tables
  /// and piggy-back it on rewritten queries. Disabling this pays the full
  /// k*O(log N) chain for every indexing decision (ablation baseline).
  bool reuse_ric_info = true;

  /// Keep attribute-level tuples for Delta ticks so delayed input queries
  /// still meet them (the eventual-completeness fix of Section 4).
  bool enable_altt = true;

  /// Delta for the ALTT; 0 derives it from the estimated network size and
  /// the latency bound (Section 4's overestimate); kInfiniteDelta keeps
  /// attribute-level tuples forever (the paper's "extreme solution", also
  /// usable for one-time queries).
  uint64_t altt_delta = 0;

  static constexpr uint64_t kInfiniteDelta = UINT64_MAX;

  /// Observation-epoch length for tuple-rate tracking (RIC, Section 6).
  uint64_t ric_epoch = 256;

  /// How long a cached candidate-table entry counts as fresh (Section 7);
  /// stale entries are refreshed with a 2-message direct exchange.
  uint64_t ct_validity = 4096;

  /// Record every published tuple (for oracle-based tests).
  bool keep_history = false;

  /// Replication factor for attribute-level indexing, the load-spreading
  /// scheme of [18] referenced in Section 3: queries indexed at attribute
  /// level are stored at `attr_replication` shard positions and each
  /// tuple's attribute-level copy is delivered to exactly one shard, so hot
  /// attribute-level nodes split their processing load r ways without
  /// duplicating answers. 1 disables replication.
  uint32_t attr_replication = 1;

  /// Successor-list replication factor r (docs/failures.md): every
  /// state-mutating delivery at a key's owner mirrors the record it stored
  /// to the next r-1 ring successors as a ReplicaUpdate delta, and a
  /// silent crash promotes the surviving slices at the successor. 1
  /// disables the whole subsystem (no replica stores, no mirror traffic —
  /// the single `replication > 1` branch is the entire cost when off).
  uint32_t replication = 1;

  /// Seed for the engine's internal randomness (kRandom policy).
  uint64_t seed = 42;
};

/// The RJoin engine: implements the recursive-join algorithm of the paper on
/// top of a Chord overlay. One engine instance hosts the application-layer
/// state of *all* simulated nodes and implements the message handlers of
/// Procedures 1-3.
///
/// Typical use:
///   auto net = dht::ChordNetwork::Create(1000);
///   ... build MetricsRegistry, Simulator, Transport ...
///   RJoinEngine engine(cfg, &catalog, net.get(), &transport, &sim);
///   engine.SubmitQuerySql(owner, "SELECT R.B, S.B FROM R,S,P WHERE ...");
///   engine.PublishTuple(publisher, "R", {Value::Int(3), Value::Int(5)});
///   sim.Run();
///   for (const Answer& a : engine.answers()) ...
class RJoinEngine : public dht::MessageHandler {
 public:
  /// `sim` is the event pump `transport` sends through.
  RJoinEngine(EngineConfig config, const sql::Catalog* catalog,
              dht::ChordNetwork* network, dht::Transport* transport,
              sim::Simulator* sim);

  RJoinEngine(const RJoinEngine&) = delete;
  RJoinEngine& operator=(const RJoinEngine&) = delete;

  /// Submits a continuous query from `owner`. The query is validated,
  /// compiled, and indexed in the network (attribute level). Returns the
  /// query id used to collect answers.
  StatusOr<uint64_t> SubmitQuery(dht::NodeIndex owner, sql::Query spec);

  /// Convenience: parse then submit.
  StatusOr<uint64_t> SubmitQuerySql(dht::NodeIndex owner,
                                    std::string_view sql_text);

  /// Submits a one-time (snapshot) query: evaluated over the tuples already
  /// published at submission time, never stored for future triggers.
  /// Completeness requires the ALTT to retain history — Section 4's "Delta
  /// can be infinity" mode (EngineConfig::kInfiniteDelta); with a finite
  /// Delta only the last Delta's worth of attribute-level history is seen.
  StatusOr<uint64_t> SubmitOneTimeQuery(dht::NodeIndex owner,
                                        sql::Query spec);

  /// Publishes a tuple from `publisher` (Procedure 1: 2k messages). Returns
  /// the published tuple (with pub_time/seq_no assigned) as a pooled-record
  /// handle; all 2k indexed copies share that one flat record. `values` is
  /// borrowed (interned into the flat plane), so callers can reuse one row
  /// buffer across publishes.
  StatusOr<TupleRef> PublishTuple(dht::NodeIndex publisher,
                                  const std::string& relation,
                                  const std::vector<sql::Value>& values);

  /// Batched Procedure 1: publishes every row of `rows` as one tuple of
  /// `relation`, in order — one PublishTuple per row, so the messages,
  /// routing, and metrics are those of the equivalent PublishTuple
  /// sequence. The whole batch is validated before anything is sent, so a
  /// bad row means no tuple of the batch is published. `rows` is borrowed,
  /// never consumed — callers reuse one row-buffer across batches.
  StatusOr<std::vector<TupleRef>> PublishBatch(
      dht::NodeIndex publisher, const std::string& relation,
      const std::vector<std::vector<sql::Value>>& rows);

  /// Records the rate observations a tuple would generate, without
  /// publishing it: each responsible node counts one arrival under the
  /// tuple's 2k keys. Models the stream history a long-running network has
  /// already seen — Section 6's RIC decisions "observe what has happened
  /// during the last time window", which requires a last window to exist.
  /// A one-row ObserveStreamHistoryBulk.
  Status ObserveStreamHistory(const std::string& relation,
                              const std::vector<sql::Value>& values);

  /// ObserveStreamHistory over rows of one relation: the relation's
  /// attribute-level keys and their responsible nodes are resolved once for
  /// the whole batch instead of once per row. Validates every row first;
  /// a bad row records nothing.
  Status ObserveStreamHistoryBulk(
      const std::string& relation,
      const std::vector<std::vector<sql::Value>>& rows);

  /// dht::MessageHandler: the dispatch switch of the typed message plane,
  /// one handler per MessageKind.
  void HandleMessage(dht::NodeIndex self, core::MessageTask&& task) override;

  /// Garbage collection: drops expired window residuals everywhere, and
  /// stored value-level tuples that cannot participate in any future window
  /// (Section 5's status-reduction mechanism). Tuples are dropped only when
  /// every live continuous query is windowed AND the ALTT Delta is finite:
  /// Delta = kInfiniteDelta promises one-time queries — which count as
  /// neither windowed nor unwindowed and may arrive after any sweep — the
  /// whole published history.
  void SweepWindows();

  // ------------------------------------------------------ live churn ----

  /// Schedules an in-band ring join at virtual time `when` (clamped to
  /// now): a NodeJoin message is delivered to `bootstrap` and applied
  /// there. The join splices the ring, grows the node space, and hands the
  /// moved key range (pred, id] from the joiner's successor to the joiner
  /// as a StateHandoff. Driver-phase only.
  Status ScheduleJoin(sim::SimTime when, const dht::NodeId& id,
                      dht::NodeIndex bootstrap);

  /// Schedules an in-band graceful leave of `node` at virtual time `when`.
  /// The orphaned range (pred, node] is handed to the successor; messages
  /// still in flight toward the departed node are drained by one-hop
  /// forwarding to the current owner. Driver-phase only.
  Status ScheduleLeave(sim::SimTime when, dht::NodeIndex node);

  /// Schedules a silent failure of `node` at virtual time `when`: no
  /// goodbye, no handoff — the node's state dies with it, and the successor
  /// promotes whatever replica slices it holds (docs/failures.md).
  /// `take_successors` additionally crashes that many adjacent ring
  /// successors in the same instant (correlated failure: with
  /// take_successors >= replication - 1 every replica of some keys is gone
  /// and answer loss is expected). Driver-phase only.
  Status ScheduleCrash(sim::SimTime when, dht::NodeIndex node,
                       uint32_t take_successors = 0);

  /// Counters of the churn subsystem.
  struct ChurnStats {
    uint64_t joins_applied = 0;
    uint64_t leaves_applied = 0;
    uint64_t crashes_applied = 0;  ///< silent failures (no handoff emitted)
    uint64_t ops_rejected = 0;  ///< join/leave/crash requests that were invalid
    uint64_t handoff_messages = 0;  ///< StateHandoff envelopes emitted
    uint64_t handoff_queries = 0;
    uint64_t handoff_tuples = 0;
    uint64_t handoff_altt = 0;
    uint64_t handoff_rates = 0;
    uint64_t handoff_bytes = 0;  ///< approximate payload bytes moved
    uint64_t handoffs_installed = 0;
    uint64_t handoffs_reforwarded = 0;  ///< batches split toward newer owners
    uint64_t handoff_recovery_ticks = 0;  ///< sum(install time - emit time)
    uint64_t forwarded_messages = 0;  ///< mis-addressed payloads re-sent
  };
  const ChurnStats& churn_stats() const { return churn_; }

  /// Counters of the successor-list replication subsystem
  /// (docs/failures.md).
  struct ReplicationStats {
    uint64_t replica_updates = 0;  ///< mirrors sent (deltas and snapshots)
    uint64_t replica_keys = 0;     ///< keys mirrored across all updates
    uint64_t replica_bytes = 0;    ///< approximate mirrored payload bytes
    /// Sequence gaps replicas detected, each answered by a REPLACE resync.
    /// Zero whenever mirrors between two nodes arrive in emission order
    /// (every fixed-latency run).
    uint64_t mirror_gaps = 0;
    uint64_t promotions_emitted = 0;    ///< promoted batches sent at crashes
    uint64_t promotions_installed = 0;  ///< promoted batches installed
    uint64_t promoted_records = 0;      ///< records recovered from replicas
    uint64_t answers_lost = 0;  ///< answers addressed to crashed owners
  };
  const ReplicationStats& replication_stats() const { return replication_; }

  /// Per-promotion recovery times (install time - crash time, virtual
  /// ticks), in install order — the input of the bench's
  /// recovery_rounds_p99 scalar.
  const std::vector<uint64_t>& promotion_recovery_ticks() const {
    return promotion_recovery_ticks_;
  }

  /// Nodes the engine hosts state for (grows with joins; includes departed
  /// nodes, which keep their index forever).
  size_t num_nodes() const { return states_.size(); }

  /// All answers delivered so far (across queries), in delivery order.
  const AnswerLog& answers() const { return answers_; }

  /// Answers of one query.
  std::vector<Answer> AnswersFor(uint64_t query_id) const;

  /// Published-tuple history (only if keep_history).
  const std::vector<sql::TuplePtr>& history() const { return history_; }

  /// The resolved ALTT Delta actually in use.
  uint64_t altt_delta() const { return altt_delta_; }

  /// Total live stored residuals / value-level tuples (walks all nodes;
  /// prefer MetricsRegistry counters in hot loops).
  size_t CountStoredQueries() const;
  size_t CountStoredTuples() const;

  /// Per-key cumulative storage responsibility, as ring positions with
  /// weights — the input of the id-movement balancer (Fig. 9).
  std::vector<dht::KeyLoad> KeyLoadProfile() const;

  /// The compiled query with id `query_id`, or nullptr for an unknown id.
  /// The record stays in place for the engine's lifetime.
  const InputQuery* FindQuery(uint64_t query_id) const;

  /// Read-only node-state access (pool-balance assertions, handoff
  /// inspection in tests); node-local mutation stays engine-internal.
  const NodeState& state_of(dht::NodeIndex n) const { return *states_[n]; }

  const EngineConfig& config() const { return config_; }

 private:
  NodeState& state(dht::NodeIndex n) { return *states_[n]; }

  /// Virtual time for stamps and window math: the executing event's time,
  /// or the simulator's clock on the driver.
  uint64_t Now() const { return sim_->Now(); }

  stats::MetricsRegistry& Metrics() { return sim_->metrics(); }

  /// Shared body of SubmitQuery and SubmitOneTimeQuery: compiles `spec`,
  /// stores the record under the next query id and indexes it.
  StatusOr<uint64_t> Submit(dht::NodeIndex owner, const sql::Query& spec,
                            bool one_time);

  /// Decides where to index `residual` (planner policies of Section 6,
  /// RIC gathering and candidate-table reuse of Section 7) and ships it.
  void IndexResidual(dht::NodeIndex src, Residual residual);

  /// RIC acquisition for a candidate set; fills predicted rates and
  /// responsible nodes, charging messages per Sections 6-7 when enabled.
  void GatherRic(dht::NodeIndex src, const std::vector<KeyId>& candidates,
                 std::vector<uint64_t>* rates,
                 std::vector<dht::NodeIndex>* nodes);

  void OnNewTuple(dht::NodeIndex self, TuplePublish& msg);
  /// Shared body of kQueryIndex and kRewrite (Procedures 2 and 3 store and
  /// probe identically; only the message kind differs on the wire).
  void OnEval(dht::NodeIndex self, KeyId key, Residual&& residual,
              const RicVec& piggyback);
  /// Appends a delivered answer row to the log (DISTINCT decided here) and
  /// counts it, unless the owner crashed.
  void OnAnswer(dht::NodeIndex self, AnswerDeliver& msg);

  // ---- churn plumbing (docs/churn.md) ----

  /// Wraps a churn task into an envelope delivered to `dst` at `when`.
  Status ScheduleChurnEvent(sim::SimTime when, dht::NodeIndex dst,
                            MessageTask task);
  /// kNodeJoin / kNodeLeave / kNodeCrash handler bodies.
  void ApplyJoin(const dht::NodeId& id, dht::NodeIndex bootstrap);
  void ApplyLeave(dht::NodeIndex node);
  /// Silent failure (docs/failures.md): crashes `node` plus the next
  /// `take_successors` alive ring successors — all removed before any
  /// recovery starts, so a correlated kill of a whole replica set really
  /// loses the data — then, per orphaned range, promotes the surviving
  /// replica slices at the new owner.
  void ApplyCrash(dht::NodeIndex node, uint32_t take_successors);
  /// Destroys a crashed node's entire NodeState payload (stored queries,
  /// tuples, ALTT entries, replica store) with metric and pool-balance
  /// bookkeeping — nothing is emitted; the data is simply gone.
  void DropAllState(dht::NodeIndex node);

  // ---- successor-list replication (core/replication.cc) ----

  /// `node`'s replica store, created on first use.
  ReplicaStore& ReplicasOf(dht::NodeIndex node);
  /// Re-aims the mirrors of every node whose replica target set changed
  /// around ring `position` (the node owning the position plus its
  /// replication-1 alive predecessors) — called when a churn op is
  /// applied, so replica placement tracks the new topology. The churn op
  /// applies inside an event, so every send after it queues behind the
  /// re-aim snapshots.
  void RefreshReplicasAround(const dht::NodeId& position);
  /// Forgets every baseline of `node` and sends a REPLACE of each owned
  /// key to its current successors.
  void Reaim(dht::NodeIndex node);
  /// Mirrors a stored residual / a tuple arrival (`op` says where the tuple
  /// went) at `key`'s owner `self` as one delta per successor.
  void MirrorStored(dht::NodeIndex self, KeyId key, const Residual& residual);
  void MirrorArrival(dht::NodeIndex self, KeyId key, ReplicaUpdate::Op op,
                     const TupleRef& tuple, uint64_t expires);
  /// Sends `delta` to self's successors as the key's next mirror — or, when
  /// they hold no baseline for it, a REPLACE snapshot instead. Callers gate
  /// on config_.replication > 1.
  void MirrorDelta(dht::NodeIndex self, ReplicaUpdate&& delta);
  /// Sends a REPLACE of `key`'s current slice to every successor under a
  /// fresh sequence number.
  void MirrorSnapshot(dht::NodeIndex self, KeyId key);
  /// One REPLACE snapshot of `key` at sequence number `seq` to `dst`.
  void SendSnapshot(dht::NodeIndex self, dht::NodeIndex dst, KeyId key,
                    uint64_t seq);
  /// kReplicaUpdate handler: applies a mirror from the key's current owner
  /// (requesting a resync on a gap) and serves resync requests.
  void OnReplicaUpdate(dht::NodeIndex self, ReplicaUpdate& msg);
  /// Warmup write-through: copies `owner`'s rate bucket for `key` straight
  /// into its successors' replica slices (no messages — stream history
  /// models traffic that already happened). Driver-phase only.
  void WriteThroughRateReplica(dht::NodeIndex owner, KeyId key);
  /// SweepWindows' replica pass: slices age by the owners' rules, locally.
  void SweepReplicaSlices(bool drop_tuples);
  /// Grows every per-node table for a freshly joined node `index`.
  void GrowForNode(dht::NodeIndex index);
  /// Post-churn responsibility check: true when `self` no longer owns
  /// `key` and the payload was re-sent (one direct hop) to the owner.
  bool MaybeForward(dht::NodeIndex self, KeyId key, MessageTask* task);

  // ---- moving key slices (core/handoff.cc) ----

  /// The one slice extractor: `key`'s stored residuals, value tuples, ALTT
  /// entries live at Now() and rate bucket at `node`. take = false copies
  /// (a REPLACE snapshot); take = true removes the key's records from
  /// `node` (expired ALTT entries are discarded, not moved) with the
  /// storage-metric and DISTINCT-fingerprint bookkeeping, and appends each
  /// residual's projection memory to `projections`.
  KeySlice SliceOf(dht::NodeIndex node, KeyId key, bool take,
                   std::vector<FlatU64Set>* projections = nullptr);
  /// Takes the slices of every key in `range` from `from` (ring order) and
  /// ships them to `to` as one StateHandoff.
  void EmitHandoff(dht::NodeIndex from, dht::NodeIndex to,
                   const dht::KeyRange& range);
  /// Moves the replica slices `owner` holds for keys in `range` into one
  /// promoted HandoffBatch stamped with the crash time and self-delivers it
  /// as a StateHandoff (the install loop of a graceful handoff doubles as
  /// the promotion path). Moved-out slices are left empty, so overlapping
  /// correlated ranges never promote a slice twice.
  void PromoteReplicas(dht::NodeIndex owner, const dht::KeyRange& range,
                       uint64_t crash_time);
  /// kStateHandoff handler, the one install loop: checks ownership once per
  /// slice, re-forwards whole slices whose key moved again while the batch
  /// was in flight, and installs the rest (probing against pre-handoff
  /// local state only — moved-vs-moved pairs were already evaluated at the
  /// old owner).
  void OnStateHandoff(dht::NodeIndex self, StateHandoff& msg);

  /// Procedure 3's store step, the one body of fresh deliveries (OnEval)
  /// and handoff installs: DISTINCT set semantics (a residual identical to
  /// one stored under `key` is dropped), the probe of what `self` stores
  /// under `key`, then storage. `seen`, when given, is the DISTINCT
  /// projection memory the residual brings along. A fresh one-time
  /// residual, or a fresh one whose window already closed (Section 5), is
  /// probed but not stored; a `moved` one is stored as its old owner kept
  /// it (docs/churn.md). Returns the stored query, or nullptr.
  const StoredQuery* ProbeAndStore(dht::NodeIndex self, KeyId key,
                                   Residual&& residual, FlatU64Set* seen,
                                   bool moved);

  /// Procedure 2's walk, the one body of fresh deliveries (OnNewTuple) and
  /// handoff installs: visits the queries `self` stores under `key` in
  /// arrival order, drops each one whose window `tuple` closes (Section 5)
  /// and triggers the rest with `tuple`. With `bound`, visits only the
  /// first *bound queries and lowers *bound by one per drop, so the count
  /// keeps naming the same prefix for the next walk.
  void TriggerStored(dht::NodeIndex self, KeyId key, const TupleRef& tuple,
                     uint32_t* bound = nullptr);

  /// Probes `sq` against everything already stored at `self` under `key`:
  /// the value-level tuple bucket, or the non-expired ALTT entries for an
  /// attribute-level key.
  void ProbeStoredState(dht::NodeIndex self, KeyId key, StoredQuery& sq);

  /// The trigger kernel, the one test of a stored query against tuples, all
  /// of the same relation (one index key maps to one relation): phase 1
  /// evaluates the temporal check, window admission, and the residual's
  /// ColumnPredicates over value-id columns in a tight loop, collecting
  /// matched refs into a reusable buffer; phase 2 runs the DISTINCT rule
  /// and binds the matches (which may emit async messages — never touching
  /// the spans). Callers pass one span per tuple-bucket chunk (probing the
  /// chunk storage in place), a single gathered span (ALTT), or a one-tuple
  /// span (an arriving tuple).
  void ProbeTupleSpans(dht::NodeIndex self, KeyId key, StoredQuery& sq,
                       const TupleSpan* spans, uint32_t num_spans);

  void CompleteOrForward(dht::NodeIndex self, Residual next,
                         uint64_t pub_time);

  /// Window-expiry check for a stored residual against the next possible
  /// tuple position (garbage-collection view; used by sweeps and when a
  /// residual arrives for storage).
  bool IsExpired(const Residual& r) const;

  /// Window GC for stored value tuples: true when `t` is older than the
  /// largest live window under both clocks, so it can never join again.
  bool TupleOutOfWindows(const TupleRef& t) const;

  /// Fingerprint for DISTINCT set semantics of a stored residual: the
  /// interned key id folded into the residual's 64-bit content fingerprint
  /// (bound value ids, which are a per-process bijection with values).
  /// Two different residuals can collide in 64 bits (probability
  /// ~n^2/2^64) — the FlatU64Set trade, applied here too.
  static uint64_t StoredFingerprint(KeyId key, const Residual& r);

  /// Unlinks the pool node `idx` (whose predecessor in the bucket list is
  /// `prev_idx`, or kNil when idx is the head) and frees it, with metric +
  /// fingerprint bookkeeping.
  void DropStoredQuery(dht::NodeIndex self, KeyId key, BucketList& bucket,
                       uint32_t prev_idx, uint32_t idx);

  EngineConfig config_;
  const sql::Catalog* catalog_;
  dht::ChordNetwork* network_;
  dht::Transport* transport_;
  sim::Simulator* sim_;
  KeyInterner* interner_ = &KeyInterner::Global();
  Rng rng_;  ///< the kRandom planner's draws

  std::vector<std::unique_ptr<NodeState>> states_;
  /// Compiled queries, query id q at index q - 1 (ids are dense from 1).
  /// Slabs never move, so residuals hold plain pointers to their origin.
  using QueryTable = SlabSpine<InputQuery, 9, 1u << 13>;
  QueryTable queries_;
  AnswerLog answers_;

  std::vector<sql::TuplePtr> history_;
  KeyIdMap<uint64_t> key_load_;

  /// Reusable Procedure-1 emission buffer: PublishTuple fills it and
  /// MultiSendKeys drains it in place, so a steady-state publish performs
  /// no vector allocation. Driver-phase only (like publishing).
  std::vector<std::pair<KeyId, MessageTask>> publish_batch_;

  // ---- churn state ----

  ChurnStats churn_;
  ReplicationStats replication_;
  std::vector<uint64_t> promotion_recovery_ticks_;
  /// Crashed-node flags (indexed like states_; nodes that joined later are
  /// appended false). A crashed node is gone for good: answers addressed to
  /// it count as lost instead of delivering, and late ReplicaUpdates to it
  /// drop. Graceful leavers are NOT marked — a leaver departs the overlay
  /// but still collects its answers (the pre-existing churn semantics).
  std::vector<uint8_t> crashed_;
  /// Arms the per-message responsibility check (MaybeForward) the first
  /// time any churn is applied; before that, the hot path is untouched.
  /// Never disarmed: candidate tables keep stale responsible-node
  /// addresses long after all in-flight mail has drained, and a fresh CT
  /// hit SendDirects to that cached address — so mis-addressed deliveries
  /// remain possible for the rest of the run, not just until the queue
  /// empties.
  bool forwarding_armed_ = false;

  uint64_t next_query_id_ = 1;
  uint64_t next_tuple_id_ = 1;
  uint64_t global_seq_ = 0;  // publication sequence (tuple-window clock)
  uint64_t altt_delta_ = 0;
  uint64_t num_windowed_queries_ = 0;
  uint64_t num_unwindowed_queries_ = 0;
  uint64_t max_window_span_ = 0;  // largest window size over live queries
};

}  // namespace rjoin::core

#endif  // RJOIN_CORE_ENGINE_H_
