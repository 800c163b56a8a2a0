#include "core/engine.h"

#include "sql/evaluator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <utility>

#include "core/replication.h"
#include "stats/alloc_tracker.h"
#include "stats/trace.h"
#include "util/hash.h"
#include "util/logging.h"

namespace rjoin::core {

namespace {

constexpr uint32_t kNil = SlabPool<StoredQuery>::kNil;

constexpr uint64_t kFnvPrime = 1099511628211ull;

/// Reusable per-thread match buffer of the batched probe kernel (phase 1
/// collects pointers to matched refs here; phase 2 consumes them). The
/// pointers address chunk/span storage that phase 2 never mutates.
std::vector<const TupleRef*>& MatchBuffer() {
  static thread_local std::vector<const TupleRef*> buf;
  buf.clear();
  return buf;
}

/// Reusable per-thread span list: the value-bucket probe describes its
/// chunk chain as (data, count) runs so the kernel reads chunk storage in
/// place — no gather, no refcount traffic.
std::vector<TupleSpan>& SpanListBuffer() {
  static thread_local std::vector<TupleSpan> buf;
  buf.clear();
  return buf;
}

/// Reusable per-thread span buffer: the ALTT probe gathers its non-expired
/// chain entries into contiguous storage for the batched kernel. Cleared
/// after use so the handles do not pin records between probes.
std::vector<TupleRef>& AlttSpanBuffer() {
  static thread_local std::vector<TupleRef> buf;
  buf.clear();
  return buf;
}

/// Reusable per-thread candidate buffer for IndexResidual (one rewrite hop
/// enumerates its indexing candidates allocation-free once warm).
std::vector<KeyId>& CandidateBuffer() {
  static thread_local std::vector<KeyId> buf;
  return buf;
}

/// Reusable per-thread RIC gather scratch (rates / responsible nodes /
/// positions of candidate-table misses).
std::vector<uint64_t>& RicRateBuffer() {
  static thread_local std::vector<uint64_t> buf;
  return buf;
}
std::vector<dht::NodeIndex>& RicNodeBuffer() {
  static thread_local std::vector<dht::NodeIndex> buf;
  return buf;
}
std::vector<size_t>& RicMissBuffer() {
  static thread_local std::vector<size_t> buf;
  buf.clear();
  return buf;
}

}  // namespace

RJoinEngine::RJoinEngine(EngineConfig config, const sql::Catalog* catalog,
                         dht::ChordNetwork* network, dht::Transport* transport,
                         sim::EventPump* pump)
    : config_(config),
      catalog_(catalog),
      network_(network),
      transport_(transport),
      pump_(pump),
      rng_(config.seed),
      runtime_(dynamic_cast<runtime::ShardedRuntime*>(pump)) {
  Metrics().Resize(network_->num_total());
  states_.reserve(network_->num_total());
  for (size_t i = 0; i < network_->num_total(); ++i) {
    states_.push_back(std::make_unique<NodeState>(config_.ric_epoch));
  }
  crashed_.assign(network_->num_total(), 0);
  transport_->set_handler(this);

  if (config_.altt_delta != 0) {
    altt_delta_ = config_.altt_delta;
  } else {
    // Section 4: overestimate the time for any message to cross the network
    // — O(log N) hops, each bounded by delta — from a locally estimated
    // network size. Factor 4 is the safety margin ("overestimate").
    const double est = network_->EstimateSize(network_->AliveNodes().front());
    const double hops = std::max(1.0, std::log2(std::max(2.0, est)));
    // The latency bound per hop is not visible here; transports in this
    // repo use single-digit tick hops, so bound a hop by 16 ticks.
    altt_delta_ = static_cast<uint64_t>(4.0 * hops * 16.0);
  }

  if (runtime_ != nullptr) {
    RJOIN_CHECK(runtime_->num_nodes() == states_.size())
        << "runtime sized for a different network";
    sinks_ = std::vector<ShardSink>(runtime_->shards());
    frozen_rates_.assign(states_.size(), {});
    planner_seq_.assign(states_.size(), 0);
    runtime_->AddBarrierHook(this);
  }
}

void RJoinEngine::OnBarrier(sim::SimTime round_start) {
  // Append the answers staged by the previous epoch. Each shard staged its
  // own in EventKey order; sorting the union restores the global delivery
  // order, so row ids and DISTINCT's first answer match any shard count.
  {
    stats::AllocScope plane(stats::AllocPlane::kPoolCapacity);
    answer_merge_.clear();
    for (const ShardSink& sink : sinks_) {
      for (const auto& staged : sink.answers) answer_merge_.push_back(&staged);
    }
  }
  std::sort(answer_merge_.begin(), answer_merge_.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  for (const auto* staged : answer_merge_) {
    AppendAnswer(staged->second, staged->first.time);
  }
  for (ShardSink& sink : sinks_) sink.answers.clear();
  for (ShardSink& sink : sinks_) {
    sink.key_load.ForEach(
        [this](KeyId key, uint64_t count) { key_load_[key] += count; });
    sink.key_load.clear();
  }

  // Churn: fold worker-side counters, then apply the ring mutations staged
  // by the previous round in global EventKey order. Workers are parked, so
  // this is the one place the topology, the node tables, and the handoff
  // envelopes may change (see docs/churn.md).
  bool churn_applied = false;
  {
    std::vector<std::pair<runtime::EventKey, ChurnOp>> ops;
    std::vector<std::pair<runtime::EventKey, uint64_t>> ticks;
    for (ShardSink& sink : sinks_) {
      churn_ += std::exchange(sink.churn, ChurnStats{});
      replication_ += std::exchange(sink.replica, ReplicationStats{});
      ticks.insert(ticks.end(), sink.promotion_ticks.begin(),
                   sink.promotion_ticks.end());
      sink.promotion_ticks.clear();
      ops.insert(ops.end(), std::make_move_iterator(sink.churn_ops.begin()),
                 std::make_move_iterator(sink.churn_ops.end()));
      sink.churn_ops.clear();
    }
    if (!ticks.empty()) {
      // Recovery samples merge in global EventKey order, so the series is
      // identical for any shard count.
      std::sort(ticks.begin(), ticks.end(), [](const auto& a, const auto& b) {
        return a.first < b.first;
      });
      for (const auto& [key, t] : ticks) promotion_recovery_ticks_.push_back(t);
    }
    if (!ops.empty()) {
      std::sort(ops.begin(), ops.end(), [](const auto& a, const auto& b) {
        return a.first < b.first;
      });
      for (const auto& [key, op] : ops) ApplyChurn(op);
      churn_applied = true;
    }
  }
  // A responsibility change invalidates the frozen per-epoch rate
  // snapshots (rates moved between nodes, and new nodes have none), so
  // force a rebuild below — at a barrier, hence shard-count-invariant.
  if (churn_applied) frozen_valid_ = false;

  // Refresh the frozen rate snapshots when entering a new RIC epoch: for
  // the rest of the epoch, worker-side RIC lookups see the rates as of this
  // barrier — a deterministic function of the round schedule, which is
  // itself independent of the shard count.
  const uint64_t epoch =
      config_.ric_epoch == 0 ? 0 : round_start / config_.ric_epoch;
  if (!frozen_valid_ || epoch != frozen_epoch_) {
    for (size_t n = 0; n < states_.size(); ++n) {
      frozen_rates_[n].clear();
      states_[n]->rates.SnapshotInto(round_start, &frozen_rates_[n]);
    }
    frozen_epoch_ = epoch;
    frozen_valid_ = true;
  }
}

sim::SimTime RJoinEngine::NextRendezvous(sim::SimTime after) {
  // Frozen rate snapshots hold for one RIC epoch; overlap may not cross a
  // boundary or workers would read rates one epoch stale. Everything else
  // OnBarrier does (answer publication, counter folds) is order-preserving
  // at any rendezvous spacing.
  if (config_.ric_epoch == 0) return runtime::kNoRendezvous;
  return ((after / config_.ric_epoch) + 1) * config_.ric_epoch;
}

uint64_t RJoinEngine::ReadRate(dht::NodeIndex cand, KeyId key,
                               uint64_t now) {
  if (WorkerSink() >= 0) {
    const uint64_t* rate = frozen_rates_[cand].Find(key);
    return rate == nullptr ? 0 : *rate;
  }
  return state(cand).rates.Rate(key, now);
}

StatusOr<uint64_t> RJoinEngine::SubmitQuery(dht::NodeIndex owner,
                                            sql::Query spec) {
  return Submit(owner, spec, /*one_time=*/false);
}

StatusOr<uint64_t> RJoinEngine::SubmitOneTimeQuery(dht::NodeIndex owner,
                                                   sql::Query spec) {
  if (spec.window.use_windows) {
    return Status::InvalidArgument(
        "one-time queries take a snapshot; window clauses do not apply");
  }
  return Submit(owner, spec, /*one_time=*/true);
}

StatusOr<uint64_t> RJoinEngine::Submit(dht::NodeIndex owner,
                                       const sql::Query& spec,
                                       bool one_time) {
  auto compiled = InputQuery::Create(next_query_id_, owner, Now(), spec,
                                     catalog_, one_time);
  if (!compiled.ok()) return compiled.status();
  RJOIN_CHECK(next_query_id_ <= QueryTable::kCapacity) << "query table full";
  const uint64_t id = next_query_id_++;
  const uint32_t slot = static_cast<uint32_t>(id - 1);
  if (QueryTable::OpensSlab(slot)) {
    stats::AllocScope plane(stats::AllocPlane::kPoolCapacity);
    queries_.AddSlab(slot);
  }
  InputQuery& q = queries_.at(slot);
  q = *compiled;

  if (!one_time) {
    const sql::WindowSpec& w = q.window();
    if (w.use_windows) {
      ++num_windowed_queries_;
      max_window_span_ = std::max(max_window_span_, w.size);
    } else {
      ++num_unwindowed_queries_;
    }
  }
  IndexResidual(owner, Residual(&q));
  return id;
}

StatusOr<uint64_t> RJoinEngine::SubmitQuerySql(dht::NodeIndex owner,
                                               std::string_view sql_text) {
  auto parsed = sql::Parser::Parse(sql_text);
  if (!parsed.ok()) return parsed.status();
  return SubmitQuery(owner, std::move(*parsed));
}

StatusOr<TupleRef> RJoinEngine::PublishTuple(
    dht::NodeIndex publisher, const std::string& relation,
    const std::vector<sql::Value>& values) {
  const sql::Schema* schema = catalog_->Find(relation);
  if (schema == nullptr) {
    return Status::NotFound("unknown relation " + relation);
  }
  if (schema->arity() != values.size()) {
    return Status::InvalidArgument("tuple arity mismatch for " + relation);
  }
  // One flat pooled record per published tuple; the 2k indexed copies below
  // share it through 4-byte handles.
  TupleRef t = TuplePool::Global().Make(relation, values, Now(),
                                        ++global_seq_, next_tuple_id_++);
  if (config_.keep_history) history_.push_back(t.Materialize());

  // Procedure 1: index the tuple under 2k keys — one attribute-level and
  // one value-level key per attribute — with one multiSend. Keys are
  // interned once here; every later layer carries the u32 id and routes on
  // the entry's cached ring identifier. MultiSendKeys coalesces the fan-out
  // by responsible node (one wire message per destination) and resolves
  // destinations through the publisher's route cache. The emission buffer
  // is a reused member: the transport drains it in place, keeping its
  // capacity.
  std::vector<std::pair<KeyId, MessageTask>>& batch = publish_batch_;
  batch.reserve(2 * schema->arity());
  // Under attribute-level replication ([18]), each tuple's attribute-level
  // copy goes to exactly one shard of the replica set.
  const uint32_t shard =
      config_.attr_replication > 1
          ? static_cast<uint32_t>(t->seq_no % config_.attr_replication)
          : 0;
  // Keys resolve from the record's relation id and column value ids.
  const uint32_t rel = t->relation;
  const ValueId* cols = t.rec().columns();
  for (size_t i = 0; i < schema->arity(); ++i) {
    const int attr = static_cast<int>(i);
    TuplePublish attr_msg;
    attr_msg.tuple = t;
    attr_msg.key = interner_->WithShard(
        interner_->ResolveAttribute(*catalog_, rel, attr), shard);
    attr_msg.publisher = publisher;
    const KeyId attr_key = attr_msg.key;
    batch.emplace_back(attr_key, MessageTask(std::move(attr_msg)));

    TuplePublish value_msg;
    value_msg.tuple = t;
    value_msg.key = interner_->ResolveValue(*catalog_, rel, attr, cols[i]);
    value_msg.publisher = publisher;
    const KeyId value_key = value_msg.key;
    batch.emplace_back(value_key, MessageTask(std::move(value_msg)));
  }
  transport_->MultiSendKeys(publisher, &batch);
  return t;
}

StatusOr<std::vector<TupleRef>> RJoinEngine::PublishBatch(
    dht::NodeIndex publisher, const std::string& relation,
    const std::vector<std::vector<sql::Value>>& rows) {
  const sql::Schema* schema = catalog_->Find(relation);
  if (schema == nullptr) {
    return Status::NotFound("unknown relation " + relation);
  }
  // Validate up front: a bad row must not leave part of the batch published.
  for (const auto& row : rows) {
    if (schema->arity() != row.size()) {
      return Status::InvalidArgument("tuple arity mismatch for " + relation);
    }
  }
  std::vector<TupleRef> published;
  published.reserve(rows.size());
  for (const auto& row : rows) {
    published.push_back(PublishTuple(publisher, relation, row).value());
  }
  return published;
}

Status RJoinEngine::ObserveStreamHistoryBulk(
    const std::string& relation,
    const std::vector<std::vector<sql::Value>>& rows) {
  const sql::Schema* schema = catalog_->Find(relation);
  if (schema == nullptr) {
    return Status::NotFound("unknown relation " + relation);
  }
  for (const auto& row : rows) {
    if (schema->arity() != row.size()) {
      return Status::InvalidArgument("tuple arity mismatch for " + relation);
    }
  }
  const uint64_t now = Now();
  // Attribute-level observations are row-independent: resolve the
  // responsible node once per attribute and record one arrival per row.
  for (size_t i = 0; i < schema->arity(); ++i) {
    const KeyId ak = interner_->InternAttribute(relation,
                                                schema->attributes()[i]);
    const dht::NodeIndex owner = network_->SuccessorOf(interner_->ring_id(ak));
    NodeState& st = state(owner);
    for (size_t r = 0; r < rows.size(); ++r) st.rates.Record(ak, now);
    if (config_.replication > 1) WriteThroughRateReplica(owner, ak);
  }
  for (const auto& row : rows) {
    for (size_t i = 0; i < schema->arity(); ++i) {
      const KeyId vk =
          interner_->InternValue(relation, schema->attributes()[i], row[i]);
      const dht::NodeIndex owner =
          network_->SuccessorOf(interner_->ring_id(vk));
      state(owner).rates.Record(vk, now);
      if (config_.replication > 1) WriteThroughRateReplica(owner, vk);
    }
  }
  return Status::Ok();
}

Status RJoinEngine::ObserveStreamHistory(
    const std::string& relation, const std::vector<sql::Value>& values) {
  return ObserveStreamHistoryBulk(relation, {values});
}

void RJoinEngine::HandleMessage(dht::NodeIndex self, MessageTask&& task) {
  switch (task.kind()) {
    case MessageKind::kTuplePublish:
      if (forwarding_armed_ &&
          MaybeForward(self, task.tuple_publish().key, &task)) {
        return;
      }
      OnNewTuple(self, task.tuple_publish());
      return;
    case MessageKind::kQueryIndex: {
      if (forwarding_armed_ &&
          MaybeForward(self, task.query_index().key, &task)) {
        return;
      }
      QueryIndex& m = task.query_index();
      OnEval(self, m.key, std::move(m.residual), m.piggyback);
      return;
    }
    case MessageKind::kRewrite: {
      if (forwarding_armed_ && MaybeForward(self, task.rewrite().key, &task)) {
        return;
      }
      Rewrite& m = task.rewrite();
      OnEval(self, m.key, std::move(m.residual), m.piggyback);
      return;
    }
    case MessageKind::kAnswerDeliver:
      OnAnswer(self, task.answer());
      return;
    case MessageKind::kNodeJoin: {
      const NodeJoin& m = task.node_join();
      StageOrApplyChurn(ChurnOp{.kind = ChurnOp::Kind::kJoin,
                                .id = m.id,
                                .bootstrap = m.bootstrap});
      return;
    }
    case MessageKind::kNodeLeave:
      StageOrApplyChurn(ChurnOp{.kind = ChurnOp::Kind::kLeave,
                                .node = task.node_leave().node});
      return;
    case MessageKind::kNodeCrash: {
      const NodeCrash& m = task.node_crash();
      StageOrApplyChurn(ChurnOp{.kind = ChurnOp::Kind::kCrash,
                                .node = m.node,
                                .take_successors = m.take_successors});
      return;
    }
    case MessageKind::kStateHandoff:
      OnStateHandoff(self, task.state_handoff());
      return;
    case MessageKind::kReplicaUpdate:
      OnReplicaUpdate(self, task.replica_update());
      return;
    case MessageKind::kNone:
    case MessageKind::kControl:  // the pump runs closures before dispatch
      break;
  }
  RJOIN_CHECK(false) << "undispatchable message kind "
                     << MessageKindName(task.kind());
}

bool RJoinEngine::MaybeForward(dht::NodeIndex self, KeyId key,
                               MessageTask* task) {
  const dht::NodeIndex owner =
      network_->SuccessorOf(interner_->ring_id(key));
  if (owner == self) return false;
  // Responsibility for `key` moved while this message was in flight (or the
  // sender used a stale cached address). The old owner knows the current
  // one — its successor chain is exact after the churn splice — so one
  // direct hop completes the delivery. Departed nodes drain their mail the
  // same way.
  transport_->SendDirect(self, owner, std::move(*task));
  AddChurnCounters(ChurnStats{.forwarded_messages = 1});
  return true;
}

// ------------------------------------------------------------- churn ----

Status RJoinEngine::ScheduleJoin(sim::SimTime when, const dht::NodeId& id,
                                 dht::NodeIndex bootstrap) {
  if (bootstrap >= states_.size()) {
    return Status::InvalidArgument("bootstrap node does not exist");
  }
  return ScheduleChurnEvent(when, bootstrap,
                            MessageTask(NodeJoin{id, bootstrap}));
}

Status RJoinEngine::ScheduleLeave(sim::SimTime when, dht::NodeIndex node) {
  // The leave announcement is staged wherever it lands; deliver it to the
  // departing node when it already exists, else to node 0 (a leave may be
  // scheduled ahead of the join that creates its target — validity is
  // checked at application time).
  const dht::NodeIndex dst = node < states_.size() ? node : 0;
  return ScheduleChurnEvent(when, dst, MessageTask(NodeLeave{node}));
}

Status RJoinEngine::ScheduleCrash(sim::SimTime when, dht::NodeIndex node,
                                  uint32_t take_successors) {
  // Same addressing rule as a leave: the kill notice travels in-band to the
  // victim when it exists (node 0 otherwise) and is validated when applied.
  const dht::NodeIndex dst = node < states_.size() ? node : 0;
  return ScheduleChurnEvent(when, dst,
                            MessageTask(NodeCrash{node, take_successors}));
}

Status RJoinEngine::ScheduleChurnEvent(sim::SimTime when, dht::NodeIndex dst,
                                       MessageTask task) {
  RJOIN_CHECK(WorkerSink() < 0) << "churn is scheduled from the driver";
  EnvelopeRef env = pump_->AcquireFor(dst);
  env->time = std::max<sim::SimTime>(when, pump_->Now());
  env->src = dst;
  env->seq = pump_->NextEmitSeq(dst);
  env->dst = dst;
  env->task = std::move(task);
  pump_->ScheduleEnvelope(std::move(env));
  return Status::Ok();
}

void RJoinEngine::StageOrApplyChurn(ChurnOp op) {
  const int shard = WorkerSink();
  if (shard >= 0) {
    // Worker context: ring mutations are serial-phase work. Stage the
    // request keyed by this event's (time, src, seq); the driver applies
    // all staged ops at the next rendezvous in global EventKey order,
    // which is the same for any shard count.
    const runtime::EventKey key = runtime_->CurrentEventKey();
    sinks_[shard].churn_ops.emplace_back(key, std::move(op));
    // Cap the epoch: no shard may outrun the staged mutation. At this
    // instant no watermark can have passed key.time + lookahead (the
    // staging shard's published floor is still <= key.time), so the cap
    // holds for every shard — and the resulting rendezvous schedule is a
    // pure function of the event population, hence shard-count-invariant.
    runtime_->RequestRendezvousBy(
        sim::SaturatingAdd(key.time, runtime_->lookahead()));
    return;
  }
  // Serial simulator (or driver phase): nothing else is running, apply now.
  ApplyChurn(op);
}

void RJoinEngine::ApplyChurn(const ChurnOp& op) {
  switch (op.kind) {
    case ChurnOp::Kind::kJoin:
      ApplyJoin(op.id, op.bootstrap);
      return;
    case ChurnOp::Kind::kLeave:
      ApplyLeave(op.node);
      return;
    case ChurnOp::Kind::kCrash:
      ApplyCrash(op.node, op.take_successors);
      return;
  }
}

void RJoinEngine::ApplyJoin(const dht::NodeId& id, dht::NodeIndex bootstrap) {
  if (bootstrap >= network_->num_total() ||
      !network_->node(bootstrap).alive()) {
    ++churn_.ops_rejected;
    return;
  }
  auto joined = network_->JoinAndSplice(id, bootstrap);
  if (!joined.ok()) {
    ++churn_.ops_rejected;
    return;
  }
  GrowForNode(*joined);
  ++churn_.joins_applied;
  forwarding_armed_ = true;
  if (stats::Tracer::On()) {
    stats::Tracer::Record(stats::TraceCategory::kChurn,
                          static_cast<uint8_t>(stats::ChurnTraceKind::kJoin),
                          *joined, bootstrap, 0, Now());
  }
  // The joiner takes (pred, id] from its successor, the old owner.
  const dht::NodeIndex pred = network_->node(*joined).predecessor();
  const dht::NodeIndex old_owner = network_->node(*joined).successor();
  if (old_owner != *joined) {
    EmitHandoff(old_owner, *joined,
                dht::KeyRange{network_->node(pred).id(), id});
  }
  // The joiner displaced a slot in its predecessors' successor sets: their
  // mirrors must reach the new replica targets.
  if (config_.replication > 1) RefreshReplicasAround(id);
}

void RJoinEngine::ApplyLeave(dht::NodeIndex node) {
  if (node >= network_->num_total() || !network_->node(node).alive()) {
    ++churn_.ops_rejected;
    return;
  }
  auto range = network_->LeaveNode(node);
  if (!range.ok()) {
    ++churn_.ops_rejected;
    return;
  }
  ++churn_.leaves_applied;
  forwarding_armed_ = true;
  if (stats::Tracer::On()) {
    stats::Tracer::Record(stats::TraceCategory::kChurn,
                          static_cast<uint8_t>(stats::ChurnTraceKind::kLeave),
                          node, network_->SuccessorOf(range->high), 0, Now());
  }
  // The departed node's range belongs to its successor now (the first
  // alive node past the range's high end).
  const dht::NodeIndex new_owner = network_->SuccessorOf(range->high);
  EmitHandoff(node, new_owner, *range);
  // The leaver's predecessors lost a replica target; re-aim their mirrors.
  if (config_.replication > 1) RefreshReplicasAround(range->high);
}

void RJoinEngine::ApplyCrash(dht::NodeIndex node, uint32_t take_successors) {
  if (node >= network_->num_total() || !network_->node(node).alive()) {
    ++churn_.ops_rejected;
    return;
  }
  // Victim set: the node plus its next take_successors alive successors —
  // resolved before anything dies, so "correlated" means ring-adjacent at
  // crash time.
  std::vector<dht::NodeIndex> victims{node};
  if (take_successors > 0) {
    std::vector<dht::NodeIndex> adjacent;
    network_->SuccessorsOf(node, take_successors, &adjacent);
    victims.insert(victims.end(), adjacent.begin(), adjacent.end());
  }

  // Phase 1: every victim dies before any recovery starts. A correlated
  // kill of a key's whole replica set must genuinely lose the data — a
  // victim never gets to promote slices of a fellow victim.
  std::vector<dht::KeyRange> orphaned;
  for (dht::NodeIndex v : victims) {
    auto range = network_->CrashNode(v);
    if (!range.ok()) {
      ++churn_.ops_rejected;  // e.g. the last alive node refuses to crash
      continue;
    }
    DropAllState(v);
    crashed_[v] = 1;
    ++churn_.crashes_applied;
    forwarding_armed_ = true;
    if (stats::Tracer::On()) {
      stats::Tracer::Record(
          stats::TraceCategory::kChurn,
          static_cast<uint8_t>(stats::ChurnTraceKind::kCrash), v,
          network_->SuccessorOf(range->high), 0, Now());
    }
    orphaned.push_back(*range);
  }

  // Phase 2: per orphaned range, the surviving successor promotes whatever
  // replica slices it holds. Stamped with the crash time, so the recovery
  // metric spans detection (the generation bump at this barrier) through
  // install.
  const uint64_t crash_time = Now();
  for (const dht::KeyRange& range : orphaned) {
    PromoteReplicas(network_->SuccessorOf(range.high), range, crash_time);
  }
  if (config_.replication > 1) {
    for (const dht::KeyRange& range : orphaned) {
      RefreshReplicasAround(range.high);
    }
  }
}

void RJoinEngine::DropAllState(dht::NodeIndex node) {
  NodeState& st = state(node);
  st.queries.ForEach([&](KeyId key, BucketList& bucket) {
    while (bucket.head != kNil) {
      DropStoredQuery(node, key, bucket, kNil, bucket.head);
    }
  });
  st.tuples.ForEach([&](KeyId, TupleBucket& bucket) {
    for (uint32_t i = 0; i < bucket.size; ++i) Metrics().RemoveStore(node);
    TupleBucketClear(st.tuple_chunks, bucket);
  });
  st.altt.ForEach([&](KeyId, BucketList& dq) {
    while (dq.head != kNil) BucketUnlink(st.altt_pool, dq, kNil, dq.head);
  });
  st.replicas.reset();
}

void RJoinEngine::GrowForNode(dht::NodeIndex index) {
  RJOIN_CHECK(index == states_.size())
      << "joins must append node indices sequentially";
  states_.push_back(std::make_unique<NodeState>(config_.ric_epoch));
  crashed_.push_back(0);
  Metrics().Resize(states_.size());
  if (runtime_ != nullptr) {
    runtime_->GrowNodes(states_.size());
    frozen_rates_.emplace_back();
    planner_seq_.push_back(0);
  }
}

void RJoinEngine::AddChurnCounters(const ChurnStats& delta) {
  const int shard = WorkerSink();
  (shard >= 0 ? sinks_[shard].churn : churn_) += delta;
}

void RJoinEngine::AddReplicaCounters(const ReplicationStats& delta) {
  const int shard = WorkerSink();
  (shard >= 0 ? sinks_[shard].replica : replication_) += delta;
}

void RJoinEngine::RecordPromotionTicks(uint64_t ticks) {
  const int shard = WorkerSink();
  if (shard >= 0) {
    sinks_[shard].promotion_ticks.emplace_back(runtime_->CurrentEventKey(),
                                               ticks);
    return;
  }
  promotion_recovery_ticks_.push_back(ticks);
}

bool RJoinEngine::IsExpired(const Residual& r) const {
  if (r.IsInputQuery()) return false;  // Continuous queries never expire.
  const sql::WindowSpec& w = r.origin()->window();
  if (!w.use_windows || w.size == 0) return false;
  const uint64_t next_pos = w.unit == sql::WindowSpec::Unit::kTime
                                ? Now()
                                : global_seq_ + 1;
  if (w.kind == sql::WindowSpec::Kind::kSliding) {
    return next_pos > r.window_min() &&
           next_pos - r.window_min() + 1 > w.size;
  }
  return next_pos / w.size > r.window_min() / w.size;  // Tumbling epoch.
}

bool RJoinEngine::TupleOutOfWindows(const TupleRef& t) const {
  // Conservative: use both clocks; out of range only for the larger of
  // the two interpretations.
  const uint64_t now_time = Now();
  const uint64_t now_seq = global_seq_ + 1;
  const bool time_out =
      now_time > t->pub_time && now_time - t->pub_time + 1 > max_window_span_;
  const bool seq_out =
      now_seq > t->seq_no && now_seq - t->seq_no + 1 > max_window_span_;
  return time_out && seq_out;
}

uint64_t RJoinEngine::StoredFingerprint(KeyId key, const Residual& r) {
  uint64_t h = r.ContentFingerprint64();
  h ^= static_cast<uint64_t>(key) + 1;
  h *= kFnvPrime;
  return h;
}

void RJoinEngine::DropStoredQuery(dht::NodeIndex self, KeyId key,
                                  BucketList& bucket, uint32_t prev_idx,
                                  uint32_t idx) {
  NodeState& st = state(self);
  StoredQuery& sq = st.query_pool.at(idx).value;
  if (sq.residual.origin()->distinct()) {
    st.distinct_fingerprints.Erase(StoredFingerprint(key, sq.residual));
    st.projection_pool.Free(sq.projections);
  }
  Metrics().RemoveStore(self);
  BucketUnlink(st.query_pool, bucket, prev_idx, idx);
}

StoredQuery& RJoinEngine::AppendStoredQuery(NodeState& st, BucketList& bucket,
                                            StoredQuery&& sq) {
  stats::AllocScope plane(stats::AllocPlane::kResidual);
  const uint32_t idx = BucketAppend(st.query_pool, bucket);
  auto& node = st.query_pool.at(idx);
  node.value = std::move(sq);
  return node.value;
}

void RJoinEngine::ProbeStoredState(dht::NodeIndex self, KeyId key,
                                   StoredQuery& sq) {
  NodeState& st = state(self);
  if (interner_->level(key) == Level::kValue) {
    if (const TupleBucket* bucket = st.tuples.Find(key)) {
      // Probing only emits async messages; the chunk chain is stable, so
      // the kernel reads it in place, one span per chunk.
      std::vector<TupleSpan>& spans = SpanListBuffer();
      for (uint32_t cur = bucket->head; cur != kNil;
           cur = st.tuple_chunks.at(cur).next) {
        const TupleChunk& chunk = st.tuple_chunks.at(cur).value;
        spans.push_back(TupleSpan{chunk.refs, chunk.count});
      }
      ProbeTupleSpans(self, key, sq, spans.data(),
                      static_cast<uint32_t>(spans.size()));
      spans.clear();
    }
  } else if (config_.enable_altt) {
    if (const BucketList* dq = st.altt.Find(key)) {
      // Gather the non-expired chain into a reusable contiguous span, then
      // run the same batched kernel the value bucket uses.
      std::vector<TupleRef>& span = AlttSpanBuffer();
      const uint64_t now = Now();
      for (uint32_t cur = dq->head; cur != kNil;
           cur = st.altt_pool.at(cur).next) {
        const AlttEntry& e = st.altt_pool.at(cur).value;
        if (e.expires < now) continue;
        span.push_back(e.tuple);
      }
      const TupleSpan whole{span.data(), static_cast<uint32_t>(span.size())};
      ProbeTupleSpans(self, key, sq, &whole, 1);
      span.clear();  // Drop the refs: the span must not pin records.
    }
  }
}

void RJoinEngine::ProbeTupleSpans(dht::NodeIndex self, KeyId key,
                                  StoredQuery& sq, const TupleSpan* spans,
                                  uint32_t num_spans) {
  while (num_spans > 0 && spans[0].count == 0) {
    ++spans;
    --num_spans;
  }
  if (num_spans == 0) return;
  Residual& r = sq.residual;
  const InputQuery& q = *r.origin();
  // Every tuple under one index key belongs to one relation, so the FROM
  // position and the temporal bounds are loop invariants of the spans.
  const int rel = q.RelIndexOf(spans[0].data[0]->relation);
  if (rel < 0 || r.IsBound(rel)) return;
  const bool one_time = q.one_time();
  const uint64_t ins_time = q.ins_time();

  // Hoist the predicate program: original selections on `rel` plus join
  // predicates whose other side is bound, each reduced to one (column,
  // value-id) equality. Phase 1 below is then a tight u32-compare loop.
  struct Pred {
    int attr;
    ValueId vid;
  };
  static thread_local std::vector<Pred> preds;
  preds.clear();
  for (int i = 0; i < q.num_selections(); ++i) {
    const InputQuery::Selection sel = q.selection(i);
    if (sel.rel == rel) preds.push_back(Pred{sel.attr, sel.value_id});
  }
  for (int i = 0; i < q.num_joins(); ++i) {
    const InputQuery::Join j = q.join(i);
    if (j.left_rel == rel && r.IsBound(j.right_rel)) {
      preds.push_back(Pred{j.left_attr,
                           r.BoundValueId(j.right_rel, j.right_attr)});
    } else if (j.right_rel == rel && r.IsBound(j.left_rel)) {
      preds.push_back(Pred{j.right_attr,
                           r.BoundValueId(j.left_rel, j.left_attr)});
    }
  }

  // Phase 1: pure evaluation over the spans — temporal check, window
  // admission, predicate program — collecting matched refs. No sends, no
  // mutation, no allocation (the match buffer is reused).
  std::vector<const TupleRef*>& matches = MatchBuffer();
  for (uint32_t s = 0; s < num_spans; ++s) {
    const TupleRef* tuples = spans[s].data;
    const uint32_t count = spans[s].count;
    for (uint32_t i = 0; i < count; ++i) {
      const TuplePool::Rec& rec = tuples[i].rec();
      if (one_time) {
        // One-time semantics: a snapshot over what existed at submission.
        if (rec.pub_time > ins_time) continue;
      } else {
        // Temporal condition of Definition 1 / Procedure 2.
        if (rec.pub_time < ins_time) continue;
      }
      if (!r.WindowAdmits(rel, tuples[i])) continue;
      const ValueId* cols = rec.columns();
      bool ok = true;
      for (const Pred& p : preds) {
        if (cols[p.attr] != p.vid) {
          ok = false;
          break;
        }
      }
      if (ok) matches.push_back(&tuples[i]);
    }
  }

  // Phase 2: DISTINCT rule + bind + forward for the matches. Sends are
  // async (never re-entering this node's state), so the spans stay stable.
  FlatU64Set* seen =
      q.distinct() && interner_->level(key) == Level::kValue
          ? &state(self).ProjectionsOf(sq)
          : nullptr;
  for (const TupleRef* match : matches) {
    const TupleRef& t = *match;
    if (seen != nullptr && !seen->Insert(ProjectionFingerprint(q, rel, t))) {
      continue;
    }
    CompleteOrForward(self, r.Bind(rel, t), t->pub_time);
  }
}

void RJoinEngine::TryTrigger(dht::NodeIndex self, StoredQuery& sq,
                             KeyId key, const TupleRef& t) {
  Residual& r = sq.residual;
  const int rel = r.origin()->RelIndexOf(t->relation);
  if (rel < 0 || r.IsBound(rel)) return;
  if (r.origin()->one_time()) {
    // One-time semantics: a snapshot over what existed at submission.
    if (t->pub_time > r.origin()->ins_time()) return;
  } else {
    // Temporal condition of Definition 1 / Procedure 2: pubT(t) >= insT(q).
    if (t->pub_time < r.origin()->ins_time()) return;
  }
  if (!r.WindowAdmits(rel, t)) return;
  if (!r.Matches(rel, t)) return;

  // DISTINCT rule of Section 4: a new tuple triggers this stored query only
  // if its projection over the referenced attributes is new. Projections
  // are 64-bit fingerprints over interned value ids (see FlatU64Set) —
  // no rendering, no allocation per trigger.
  if (r.origin()->distinct() && interner_->level(key) == Level::kValue) {
    if (!state(self).ProjectionsOf(sq).Insert(
            ProjectionFingerprint(*r.origin(), rel, t))) {
      return;
    }
  }

  CompleteOrForward(self, r.Bind(rel, t), t->pub_time);
}

void RJoinEngine::CompleteOrForward(dht::NodeIndex self, Residual next,
                                    uint64_t pub_time) {
  if (next.IsComplete()) {
    // The answer row ships as a flat array of interned value ids — the
    // message is POD; the owner materializes values at the sink.
    AnswerDeliver msg;
    msg.query_id = next.origin()->query_id();
    msg.completed_at = Now();
    msg.pub_time = pub_time;
    msg.row_len = static_cast<uint16_t>(next.ExtractAnswerIds(msg.row));
    transport_->SendDirect(self, next.origin()->owner(),
                           MessageTask(std::move(msg)));
    return;
  }
  IndexResidual(self, std::move(next));
}

void RJoinEngine::OnNewTuple(dht::NodeIndex self, TuplePublish& msg) {
  Metrics().AddQpl(self);
  NodeState& st = state(self);
  st.rates.Record(msg.key, Now());

  if (BucketList* bucket = st.queries.Find(msg.key)) {
    // Walk the intrusive list in arrival order; drops unlink in place.
    uint32_t prev = kNil;
    uint32_t cur = bucket->head;
    while (cur != kNil) {
      StoredQuery& sq = st.query_pool.at(cur).value;
      // Section 5: a triggering tuple that falls beyond the residual's
      // window proves the window closed — the residual is deleted.
      if (sq.residual.WindowClosedBy(msg.tuple)) {
        const uint32_t next = st.query_pool.at(cur).next;
        DropStoredQuery(self, msg.key, *bucket, prev, cur);
        cur = next;
        continue;
      }
      TryTrigger(self, sq, msg.key, msg.tuple);
      prev = cur;
      cur = st.query_pool.at(cur).next;
    }
  }

  ReplicaUpdate::Op stored = ReplicaUpdate::Op::kRate;
  uint64_t expires = 0;
  if (interner_->level(msg.key) == Level::kValue) {
    // Procedure 2: value-level tuples are stored for future rewritten
    // queries. Storing a TupleRef is one u32 handle copy plus a refcount;
    // only bucket growth allocates (charged to the tuple plane).
    {
      stats::AllocScope plane(stats::AllocPlane::kTuple);
      TupleBucketAppend(st.tuple_chunks, st.tuples[msg.key], msg.tuple);
    }
    Metrics().AddStore(self);
    RecordKeyLoad(msg.key);
    stored = ReplicaUpdate::Op::kTuple;
  } else if (config_.enable_altt) {
    // Section 4 fix: keep attribute-level tuples for Delta so that delayed
    // input queries are not starved (Example 1).
    stats::AllocScope plane(stats::AllocPlane::kTuple);
    BucketList& dq = st.altt[msg.key];
    const uint64_t now = Now();
    expires = altt_delta_ > UINT64_MAX - now
                  ? UINT64_MAX
                  : now + altt_delta_;  // Saturating.
    stored = ReplicaUpdate::Op::kAltt;
    const uint32_t idx = BucketAppend(st.altt_pool, dq);
    st.altt_pool.at(idx).value = AlttEntry{msg.tuple, expires};
    Metrics().AddAlttStore(self);
    // Amortized expiry: entries append in arrival order, so stale ones
    // cluster at the head.
    while (dq.head != kNil &&
           st.altt_pool.at(dq.head).value.expires < now) {
      BucketUnlink(st.altt_pool, dq, kNil, dq.head);
    }
  }

  // Replication: every tuple delivery mutates the key's slice (at least
  // the rate bucket) — mirror the arrival to the successors.
  if (config_.replication > 1) {
    MirrorArrival(self, msg.key, stored, msg.tuple, expires);
  }
}

void RJoinEngine::OnEval(dht::NodeIndex self, KeyId key, Residual&& residual,
                         const RicVec& piggyback) {
  Metrics().AddQpl(self);
  NodeState& st = state(self);
  for (const RicEntry& e : piggyback) st.ct.Merge(e);

  // DISTINCT set semantics: identical rewritten queries are handled once.
  const bool distinct = residual.origin()->distinct();
  uint64_t fp = 0;
  if (distinct) {
    fp = StoredFingerprint(key, residual);
    if (st.distinct_fingerprints.Contains(fp)) return;
  }

  // Procedure 3: probe already-present tuples first — stored tuples can be
  // older than the residual, so this must happen even if the residual's
  // window admits no *future* tuples anymore.
  StoredQuery sq{std::move(residual)};
  if (distinct) sq.projections = st.projection_pool.Allocate();
  ProbeStoredState(self, key, sq);

  // Store for future tuples unless this is a one-time query (they never
  // wait for future tuples: probe-and-forget) or the window has already
  // closed (Section 5's status reduction).
  if (sq.residual.origin()->one_time() || IsExpired(sq.residual)) {
    if (distinct) st.projection_pool.Free(sq.projections);
    return;
  }
  if (distinct) {
    stats::AllocScope plane(stats::AllocPlane::kResidual);
    st.distinct_fingerprints.Insert(fp);
  }
  const StoredQuery& kept =
      AppendStoredQuery(st, st.queries[key], std::move(sq));
  Metrics().AddStore(self);
  RecordKeyLoad(key);

  // Replication: the slice gained a stored residual. (Probe-and-forget
  // paths above change nothing durable, so they skip the mirror.)
  if (config_.replication > 1) MirrorStored(self, key, kept.residual);
}

void RJoinEngine::OnAnswer(dht::NodeIndex self, AnswerDeliver& msg) {
  if (!crashed_.empty() && crashed_[self]) {
    // The query's owner crashed: nobody is listening. This is the answer
    // loss the replication bench measures — graceful leavers, by contrast,
    // keep collecting their answers (they left the overlay, not the app).
    AddReplicaCounters(ReplicationStats{.answers_lost = 1});
    return;
  }
  // End-to-end answer latency in virtual time: publication of the tuple
  // that completed the residual -> delivery of the answer at Owner(q).
  const uint64_t latency = Now() >= msg.pub_time ? Now() - msg.pub_time : 0;
  stats::Tracer::RecordAnswerLatency(latency);
  if (stats::Tracer::On()) {
    stats::Tracer::Record(stats::TraceCategory::kAnswer, 0, self,
                          static_cast<uint32_t>(msg.query_id), latency, Now());
  }
  // A worker stages the flat row with its EventKey; the barrier appends
  // it (runtime::EventKey::time is the delivery time).
  const int shard = WorkerSink();
  if (shard >= 0) {
    stats::AllocScope plane(stats::AllocPlane::kPoolCapacity);
    sinks_[shard].answers.emplace_back(runtime_->CurrentEventKey(), msg);
    return;
  }
  AppendAnswer(msg, Now());
}

void RJoinEngine::AppendAnswer(const AnswerDeliver& msg,
                               uint64_t delivered_at) {
  // Owner-side duplicate suppression for DISTINCT queries is a local
  // computation at the querying node, no network cost.
  const InputQuery* q = FindQuery(msg.query_id);
  const bool distinct = q != nullptr && q->distinct();
  if (answers_.Append(msg.query_id, msg.row, msg.row_len, delivered_at,
                      distinct)) {
    Metrics().AddAnswer();
  }
}

void RJoinEngine::GatherRic(dht::NodeIndex src,
                            const std::vector<KeyId>& candidates,
                            std::vector<uint64_t>* rates,
                            std::vector<dht::NodeIndex>* nodes) {
  const uint64_t now = Now();
  NodeState& st = state(src);
  rates->resize(candidates.size());
  nodes->resize(candidates.size());

  std::vector<size_t>& unknown = RicMissBuffer();
  for (size_t i = 0; i < candidates.size(); ++i) {
    const KeyId key = candidates[i];
    const RicEntry* cached =
        config_.reuse_ric_info ? st.ct.Find(key) : nullptr;
    if (IsFresh(cached, now, config_.ct_validity)) {
      // Fresh cache hit (Section 7): no messages at all.
      (*rates)[i] = cached->rate;
      (*nodes)[i] = cached->node;
    } else if (cached != nullptr) {
      // Stale but the responsible node's address is known: refresh with a
      // 2-message direct exchange instead of an O(log N) route.
      const dht::NodeIndex cand =
          network_->SuccessorOf(interner_->ring_id(key));
      if (config_.charge_ric_messages) {
        transport_->ChargeTraffic(src, 1);
        transport_->ChargeTraffic(cand, 1);
      }
      const uint64_t rate = ReadRate(cand, key, now);
      (*rates)[i] = rate;
      (*nodes)[i] = cand;
      st.ct.Merge(
          RicEntry{.key = key, .node = cand, .rate = rate, .timestamp = now});
    } else {
      unknown.push_back(i);
    }
  }

  if (unknown.empty()) return;

  // Section 6's chained request: the message hops through the unknown
  // candidates (each leg an O(log N) route, piggy-backing answers), and the
  // last candidate returns everything to src directly — k*O(log N) + 1
  // messages; the later index message is the "+1" more.
  dht::NodeIndex prev = src;
  for (size_t i : unknown) {
    const dht::NodeId& ring = interner_->ring_id(candidates[i]);
    const dht::NodeIndex cand = network_->SuccessorOf(ring);
    if (config_.charge_ric_messages) transport_->ChargeRoute(prev, ring);
    const uint64_t rate = ReadRate(cand, candidates[i], now);
    (*rates)[i] = rate;
    (*nodes)[i] = cand;
    st.ct.Merge(RicEntry{
        .key = candidates[i], .node = cand, .rate = rate, .timestamp = now});
    prev = cand;
  }
  if (config_.charge_ric_messages) {
    transport_->ChargeTraffic(prev, 1);  // Direct reply to src.
  }
}

void RJoinEngine::IndexResidual(dht::NodeIndex src, Residual residual) {
  // Candidate enumeration fills a reusable thread-local buffer — the
  // per-rewrite hot path does not allocate here once warm.
  std::vector<KeyId>& candidates = CandidateBuffer();
  IndexingCandidates(residual, config_.rewrite_levels, *interner_,
                     &candidates);
  RJOIN_CHECK(!candidates.empty())
      << "residual of query " << residual.origin()->query_id()
      << " has no indexing candidates";

  size_t chosen = 0;
  bool address_known = false;
  dht::NodeIndex chosen_node = dht::kInvalidNode;

  switch (config_.policy) {
    case PlannerPolicy::kFirstInClause:
      chosen = 0;
      break;
    case PlannerPolicy::kRandom:
      if (runtime_ != nullptr) {
        // Derived per-decision RNG: a pure function of (seed, deciding
        // node, decision index), so draws are identical for any shard
        // count and any thread interleaving.
        chosen = static_cast<size_t>(
            Rng(MixSeed(config_.seed, src, ++planner_seq_[src]))
                .NextBounded(candidates.size()));
      } else {
        chosen = static_cast<size_t>(rng_.NextBounded(candidates.size()));
      }
      break;
    case PlannerPolicy::kWorst: {
      // Adversarial oracle: reads true rates without RIC traffic.
      uint64_t worst_rate = 0;
      const uint64_t now = Now();
      for (size_t i = 0; i < candidates.size(); ++i) {
        const dht::NodeIndex cand =
            network_->SuccessorOf(interner_->ring_id(candidates[i]));
        const uint64_t rate = ReadRate(cand, candidates[i], now);
        if (rate > worst_rate) {
          worst_rate = rate;
          chosen = i;
        }
      }
      // Prefer attribute-level keys on ties: they see every tuple of the
      // relation-attribute pair, the worst possible placement.
      if (worst_rate == 0) {
        for (size_t i = 0; i < candidates.size(); ++i) {
          if (interner_->level(candidates[i]) == Level::kAttribute) {
            chosen = i;
            break;
          }
        }
      }
      break;
    }
    case PlannerPolicy::kRic: {
      std::vector<uint64_t>& rates = RicRateBuffer();
      std::vector<dht::NodeIndex>& nodes = RicNodeBuffer();
      GatherRic(src, candidates, &rates, &nodes);
      uint64_t best = UINT64_MAX;
      for (size_t i = 0; i < candidates.size(); ++i) {
        // Strictly lower rate wins; on ties prefer value-level keys (finer
        // grain, better load distribution), then clause order.
        const bool better =
            rates[i] < best ||
            (rates[i] == best &&
             interner_->level(candidates[chosen]) == Level::kAttribute &&
             interner_->level(candidates[i]) == Level::kValue);
        if (better) {
          best = rates[i];
          chosen = i;
        }
      }
      chosen_node = nodes[chosen];
      address_known = chosen_node != dht::kInvalidNode;
      break;
    }
  }

  const KeyId key = candidates[chosen];

  // Section 7: pack the RIC info we hold for this residual's candidate keys
  // so the next node can avoid re-asking (typically only the one new
  // implied triple needs a lookup there).
  NodeState& st = state(src);
  RicVec piggyback;
  if (config_.reuse_ric_info) {
    for (KeyId c : candidates) {
      if (const RicEntry* e = st.ct.Find(c)) {
        if (!piggyback.TryPush(*e)) break;  // Inline cap: first kCap win.
      }
    }
  }

  // Attribute-level placements are replicated across the shard positions of
  // [18]; each tuple reaches exactly one shard, so replicas split the load
  // without duplicating answers. Value-level placements are single-copy.
  // Input queries ship as kQueryIndex (Procedure 2), rewritten residuals as
  // kRewrite (Procedure 3) — same wire shape, separable traffic.
  const bool is_input = residual.IsInputQuery();
  if (!is_input) {
    // Rewrite-chain depth: how many relations the shipped residual has
    // bound so far (hop i of the k-1 hop chain of Procedure 3).
    stats::Tracer::RecordRewriteDepth(residual.num_bound());
    if (stats::Tracer::On()) {
      stats::Tracer::Record(stats::TraceCategory::kRewrite, 0, src, key,
                            residual.num_bound(), Now());
    }
  }
  const uint32_t copies = (interner_->level(key) == Level::kAttribute)
                              ? config_.attr_replication
                              : 1;
  for (uint32_t s = 0; s < copies; ++s) {
    const KeyId copy_key = copies > 1 ? interner_->WithShard(key, s) : key;
    Residual copy_residual =
        (s + 1 == copies) ? std::move(residual) : residual;
    MessageTask task =
        is_input ? MessageTask(QueryIndex{std::move(copy_residual), copy_key,
                                          piggyback})
                 : MessageTask(
                       Rewrite{std::move(copy_residual), copy_key, piggyback});
    if (address_known && copies == 1) {
      // The RIC exchange told us the responsible node's address: one hop.
      transport_->SendDirect(src, chosen_node, std::move(task));
    } else {
      transport_->SendKey(src, copy_key, std::move(task));
    }
  }
}

void RJoinEngine::SweepWindows() {
  // Stored tuples go only when every continuous query is windowed and Delta
  // is finite: one-time queries count in neither query counter, and an
  // infinite Delta promises them the whole history (SubmitOneTimeQuery).
  const bool drop_tuples = altt_delta_ != EngineConfig::kInfiniteDelta &&
                           num_unwindowed_queries_ == 0 &&
                           num_windowed_queries_ > 0 && max_window_span_ > 0;
  // Without a windowed query IsExpired() never fires and no tuple is
  // window-bound: the owner-side walk would visit every stored residual
  // for nothing. (Replica ALTT entries still expire below.)
  const size_t owners = num_windowed_queries_ > 0 ? states_.size() : 0;
  for (dht::NodeIndex n = 0; n < owners; ++n) {
    NodeState& st = *states_[n];
    st.queries.ForEach([&](KeyId key, BucketList& bucket) {
      uint32_t prev = kNil;
      uint32_t cur = bucket.head;
      while (cur != kNil) {
        const uint32_t next = st.query_pool.at(cur).next;
        if (IsExpired(st.query_pool.at(cur).value.residual)) {
          DropStoredQuery(n, key, bucket, prev, cur);
        } else {
          prev = cur;
        }
        cur = next;
      }
    });
    if (!drop_tuples) continue;
    // A stored tuple older than the largest window can never combine with
    // future tuples for any live (all-windowed) query.
    st.tuples.ForEach([&](KeyId, TupleBucket& bucket) {
      // Rebuild compactly through a reusable scratch: survivors move out
      // (no refcount traffic), the chunks recycle through the pool's
      // freelist, and the survivors move back in — so every chunk stays
      // full except the tail, the invariant the probe's span walk assumes.
      static thread_local std::vector<TupleRef> survivors;
      survivors.clear();
      TupleBucketForEach(st.tuple_chunks, bucket, [&](TupleRef& t) {
        if (TupleOutOfWindows(t)) {
          Metrics().RemoveStore(n);
        } else {
          survivors.push_back(std::move(t));
        }
      });
      if (survivors.size() == bucket.size) {
        // Nothing expired: put the moved refs back in place instead of
        // reshuffling chunks.
        size_t i = 0;
        TupleBucketForEach(st.tuple_chunks, bucket,
                           [&](TupleRef& t) { t = std::move(survivors[i++]); });
      } else {
        TupleBucketClear(st.tuple_chunks, bucket);
        for (TupleRef& t : survivors) {
          TupleBucketAppend(st.tuple_chunks, bucket, std::move(t));
        }
      }
      survivors.clear();
    });
  }
  if (config_.replication > 1) SweepReplicaSlices(drop_tuples);
}

std::vector<Answer> RJoinEngine::AnswersFor(uint64_t query_id) const {
  return answers_.For(query_id);
}

size_t RJoinEngine::CountStoredQueries() const {
  size_t n = 0;
  for (const auto& st : states_) {
    n += st->query_pool.live();
  }
  return n;
}

size_t RJoinEngine::CountStoredTuples() const {
  size_t n = 0;
  for (const auto& st : states_) {
    st->tuples.ForEach(
        [&](KeyId, const TupleBucket& bucket) { n += bucket.size; });
  }
  return n;
}

std::vector<dht::KeyLoad> RJoinEngine::KeyLoadProfile() const {
  std::vector<dht::KeyLoad> out;
  out.reserve(key_load_.size());
  key_load_.ForEach([&](KeyId key, const uint64_t& weight) {
    out.push_back({interner_->ring_id(key), weight});
  });
  return out;
}

const InputQuery* RJoinEngine::FindQuery(uint64_t query_id) const {
  if (query_id == 0 || query_id >= next_query_id_) return nullptr;
  return &queries_.at(static_cast<uint32_t>(query_id - 1));
}

void RJoinEngine::RecordKeyLoad(KeyId key) {
  const int shard = WorkerSink();
  if (shard >= 0) {
    ++sinks_[shard].key_load[key];
    return;
  }
  ++key_load_[key];
}

}  // namespace rjoin::core
