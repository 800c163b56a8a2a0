#include "core/handoff.h"

#include <iterator>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/replication.h"
#include "stats/alloc_tracker.h"
#include "stats/trace.h"

namespace rjoin::core {

namespace {

constexpr uint32_t kNil = SlabPool<StoredQuery>::kNil;

uint32_t QueriesStoredUnder(const NodeState& st, KeyId key) {
  uint32_t n = 0;
  if (const BucketList* bucket = st.queries.Find(key)) {
    for (uint32_t cur = bucket->head; cur != kNil;
         cur = st.query_pool.at(cur).next) {
      ++n;
    }
  }
  return n;
}

}  // namespace

KeySlice RJoinEngine::SliceOf(dht::NodeIndex node, KeyId key, bool take,
                              std::vector<FlatU64Set>* projections) {
  RJOIN_DCHECK(!take || projections != nullptr);
  NodeState& st = state(node);
  KeySlice slice(key);
  if (BucketList* bucket = st.queries.Find(key)) {
    for (uint32_t cur = bucket->head; cur != kNil;
         cur = st.query_pool.at(cur).next) {
      slice.queries.push_back(st.query_pool.at(cur).value.residual);
    }
    while (take && bucket->head != kNil) {
      const StoredQuery& sq = st.query_pool.at(bucket->head).value;
      projections->push_back(sq.projections == SlabPool<FlatU64Set>::kNil
                                 ? FlatU64Set{}
                                 : std::move(st.ProjectionsOf(sq)));
      DropStoredQuery(node, key, *bucket, kNil, bucket->head);
    }
  }
  if (TupleBucket* bucket = st.tuples.Find(key)) {
    slice.tuples.reserve(bucket->size);
    TupleBucketForEach(st.tuple_chunks, *bucket,
                       [&](const TupleRef& t) { slice.tuples.push_back(t); });
    if (take) {
      for (uint32_t i = 0; i < bucket->size; ++i) Metrics().RemoveStore(node);
      TupleBucketClear(st.tuple_chunks, *bucket);
    }
  }
  if (BucketList* dq = st.altt.Find(key)) {
    const uint64_t now = Now();
    for (uint32_t cur = dq->head; cur != kNil;
         cur = st.altt_pool.at(cur).next) {
      // Expired entries stay behind: the owner's amortized expiry would
      // discard them anyway.
      const AlttEntry& e = st.altt_pool.at(cur).value;
      if (e.expires >= now) slice.altt.push_back(e);
    }
    while (take && dq->head != kNil) {
      BucketUnlink(st.altt_pool, *dq, kNil, dq->head);
    }
  }
  slice.rate = take ? st.rates.ExtractKey(key) : st.rates.PeekKey(key);
  return slice;
}

void RJoinEngine::EmitHandoff(dht::NodeIndex from, dht::NodeIndex to,
                              const dht::KeyRange& range) {
  auto batch = std::make_unique<HandoffBatch>();
  batch->emitted_at = Now();
  for (KeyId key : SliceKeys(state(from), *interner_, [&](KeyId k) {
         return range.Contains(interner_->ring_id(k));
       })) {
    KeySlice slice = SliceOf(from, key, /*take=*/true, &batch->projections);
    if (slice.empty()) continue;
    churn_.handoff_queries += slice.queries.size();
    churn_.handoff_tuples += slice.tuples.size();
    churn_.handoff_altt += slice.altt.size();
    churn_.handoff_rates += slice.rate.empty() ? 0 : 1;
    batch->slices.push_back(std::move(slice));
  }
  if (batch->slices.empty()) return;  // Nothing to move: no message.
  churn_.handoff_messages += 1;
  churn_.handoff_bytes += batch->ApproxBytes();
  transport_->SendDirect(from, to, MessageTask(StateHandoff{std::move(batch)}));
}

void RJoinEngine::PromoteReplicas(dht::NodeIndex owner,
                                  const dht::KeyRange& range,
                                  uint64_t crash_time) {
  if (config_.replication <= 1) return;
  NodeState& st = state(owner);
  if (st.replicas == nullptr) return;  // Never mirrored to: nothing survives.
  auto batch = std::make_unique<HandoffBatch>();
  batch->emitted_at = crash_time;
  batch->promoted = true;
  for (KeyId key : KeysInRangeSorted(st.replicas->slices, *interner_,
                                     range.low, range.high)) {
    // Move, don't copy: a second orphaned range overlapping this key
    // (correlated kills) must not promote the slice twice. Late mirrors
    // from the dead owner are dropped by OnReplicaUpdate's ownership rule.
    KeySlice& held = st.replicas->slices.Find(key)->slice;
    if (held.empty()) continue;
    RJOIN_DCHECK(held.key == key);
    batch->slices.push_back(std::exchange(held, KeySlice(key)));
  }
  if (batch->slices.empty()) return;
  ++replication_.promotions_emitted;
  if (stats::Tracer::On()) {
    stats::Tracer::Record(stats::TraceCategory::kChurn,
                          static_cast<uint8_t>(stats::ChurnTraceKind::kPromote),
                          owner, owner, batch->records(), Now());
  }
  // The new owner IS the survivor: the promotion is a self-addressed
  // handoff, so the install passes (probe pre-existing state, re-arm ALTT
  // expiries, merge rates, re-forward keys that moved again) are exactly
  // the graceful-leave code path.
  transport_->SendDirect(owner, owner,
                         MessageTask(StateHandoff{std::move(batch)}));
}

void RJoinEngine::InstallQuery(dht::NodeIndex self, KeyId key,
                               Residual&& residual, FlatU64Set&& seen) {
  NodeState& st = state(self);
  Metrics().AddQpl(self);
  const bool distinct = residual.origin()->distinct();
  uint64_t fp = 0;
  StoredQuery sq{std::move(residual)};
  if (distinct) {
    fp = StoredFingerprint(key, sq.residual);
    // An identical rewritten query was already indexed at the new owner
    // after the responsibility change: set semantics keep one copy.
    if (st.distinct_fingerprints.Contains(fp)) return;
    sq.projections = st.projection_pool.Allocate();
    st.ProjectionsOf(sq) = std::move(seen);
  }

  // Probe the destination's pre-handoff state, exactly as OnEval probes on
  // arrival: tuples that landed here after the ring change but before this
  // batch are precisely the ones the moved query has never seen. (Moved
  // tuples of the same batch install after the queries, so they are not
  // visible here — those pairs were already evaluated at the old owner.)
  ProbeStoredState(self, key, sq);

  if (IsExpired(sq.residual)) {  // Window closed while in flight.
    if (distinct) st.projection_pool.Free(sq.projections);
    return;
  }
  if (distinct) st.distinct_fingerprints.Insert(fp);
  AppendStoredQuery(st, st.queries[key], std::move(sq));
  Metrics().AddStore(self);
}

void RJoinEngine::OnStateHandoff(dht::NodeIndex self, StateHandoff& msg) {
  RJOIN_CHECK(msg.batch != nullptr);
  HandoffBatch& b = *msg.batch;
  NodeState& st = state(self);
  const uint64_t now = Now();

  // A slice this node installs. `preexisting` is the number of queries
  // stored under the key before this batch: the moved-tuple trigger walk
  // below visits only those (moved queries append behind them, and every
  // moved-vs-moved pair was already evaluated at the old owner).
  // `projections` points at the slice's first residual's FlatU64Set
  // (null for promotions, which carry none).
  struct Owned {
    KeySlice* slice;
    FlatU64Set* projections;
    uint32_t preexisting;
    bool touched;  ///< installed a record or merged a rate
  };
  std::vector<Owned> owned;

  // Ownership, once per slice. Chained churn: responsibility for a key may
  // have moved again while the batch was in flight; its whole slice goes
  // on toward the current owner (std::map: deterministic emission order),
  // sent after the installs.
  std::map<dht::NodeIndex, std::unique_ptr<HandoffBatch>> reforward;
  FlatU64Set* next_projection =
      b.projections.empty() ? nullptr : b.projections.data();
  for (KeySlice& s : b.slices) {
    FlatU64Set* projections = next_projection;
    if (next_projection != nullptr) next_projection += s.queries.size();
    const dht::NodeIndex owner =
        network_->SuccessorOf(interner_->ring_id(s.key));
    if (owner == self) {
      const bool moves_tuples = !s.tuples.empty() || !s.altt.empty();
      owned.push_back(Owned{
          &s, projections,
          moves_tuples ? QueriesStoredUnder(st, s.key) : 0, false});
      continue;
    }
    std::unique_ptr<HandoffBatch>& out = reforward[owner];
    if (out == nullptr) {
      out = std::make_unique<HandoffBatch>();
      out->emitted_at = b.emitted_at;  // recovery measures the full trip
      out->promoted = b.promoted;  // a split promotion is still a promotion
    }
    if (projections != nullptr) {
      out->projections.insert(
          out->projections.end(), std::make_move_iterator(projections),
          std::make_move_iterator(projections + s.queries.size()));
    }
    out->slices.push_back(std::move(s));
  }

  // The limited trigger walk shared by moved tuples and moved ALTT
  // entries: visit at most `preexisting` stored queries; drops shrink the
  // count so later moved tuples stay inside the pre-existing prefix.
  auto trigger_preexisting = [&](Owned& o, const TupleRef& tuple) {
    const KeyId key = o.slice->key;
    BucketList* bucket = st.queries.Find(key);
    if (bucket == nullptr) return;
    uint32_t remaining = o.preexisting;
    uint32_t prev = kNil;
    uint32_t cur = bucket->head;
    while (cur != kNil && remaining > 0) {
      --remaining;
      StoredQuery& sq = st.query_pool.at(cur).value;
      const uint32_t next = st.query_pool.at(cur).next;
      if (sq.residual.WindowClosedBy(tuple)) {
        DropStoredQuery(self, key, *bucket, prev, cur);
        --o.preexisting;
        cur = next;
        continue;
      }
      TryTrigger(self, sq, key, tuple);
      prev = cur;
      cur = next;
    }
  };

  // The install passes run over the owned slices in batch order, record
  // kind by record kind: every query, then every tuple, then every ALTT
  // entry, then every rate bucket.
  uint64_t installed_records = 0;
  // Pass A: stored queries (probe pre-handoff tuples/ALTT, then store).
  for (Owned& o : owned) {
    std::vector<Residual>& queries = o.slice->queries;
    for (size_t i = 0; i < queries.size(); ++i) {
      o.touched = true;
      ++installed_records;
      InstallQuery(self, o.slice->key, std::move(queries[i]),
                   o.projections == nullptr ? FlatU64Set{}
                                            : std::move(o.projections[i]));
    }
  }
  // Pass B: value-level tuples (trigger pre-existing queries, then store).
  for (Owned& o : owned) {
    for (TupleRef& t : o.slice->tuples) {
      Metrics().AddQpl(self);
      o.touched = true;
      ++installed_records;
      trigger_preexisting(o, t);
      stats::AllocScope plane(stats::AllocPlane::kTuple);
      TupleBucketAppend(st.tuple_chunks, st.tuples[o.slice->key],
                        std::move(t));
      Metrics().AddStore(self);
    }
  }
  // Pass C: ALTT entries — same walk, then append with the ORIGINAL
  // absolute expiry, so the Section 4 Delta bound spans the handoff.
  for (Owned& o : owned) {
    for (AlttEntry& e : o.slice->altt) {
      if (e.expires < now) continue;  // Delta elapsed in flight.
      Metrics().AddQpl(self);
      o.touched = true;
      ++installed_records;
      trigger_preexisting(o, e.tuple);
      stats::AllocScope plane(stats::AllocPlane::kTuple);
      const uint32_t idx = BucketAppend(st.altt_pool, st.altt[o.slice->key]);
      st.altt_pool.at(idx).value = std::move(e);
    }
  }
  // Pass D: rates merge (the migrate half of the RIC policy; see
  // docs/churn.md).
  for (Owned& o : owned) {
    if (o.slice->rate.empty()) continue;
    o.touched = true;
    if (b.promoted) ++installed_records;
    st.rates.MergeSlice(o.slice->key, o.slice->rate);
  }

  ChurnStats churn;
  const uint64_t trip_ticks = now >= b.emitted_at ? now - b.emitted_at : 0;
  if (b.promoted) {
    // Promotions ride the handoff plane but count on their own ledger:
    // their latency is the crash-recovery metric, not handoff recovery.
    AddReplicaCounters(ReplicationStats{.promotions_installed = 1,
                                        .promoted_records = installed_records});
    RecordPromotionTicks(trip_ticks);
  } else {
    churn.handoffs_installed = 1;
    churn.handoff_recovery_ticks = trip_ticks;
  }
  for (auto& [owner, out] : reforward) {
    ++churn.handoffs_reforwarded;
    transport_->SendDirect(self, owner,
                           MessageTask(StateHandoff{std::move(out)}));
  }
  AddChurnCounters(churn);

  // Replication: the moved (or promoted) slices now live here — overwrite
  // the stale copies at this node's successors so a later crash promotes
  // current data, not the pre-churn snapshot. Batch order is ring order.
  if (config_.replication > 1) {
    for (const Owned& o : owned) {
      if (o.touched) MirrorSnapshot(self, o.slice->key);
    }
  }
}

}  // namespace rjoin::core
