#include "core/replication.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "core/handoff.h"
#include "stats/alloc_tracker.h"
#include "stats/trace.h"

namespace rjoin::core {

namespace {

constexpr uint32_t kNil = SlabPool<StoredQuery>::kNil;

/// Reusable per-thread replica target set (the mirror fan-out resolves its
/// successor list allocation-free once warm).
std::vector<dht::NodeIndex>& ReplicaTargetBuffer() {
  static thread_local std::vector<dht::NodeIndex> buf;
  return buf;
}

}  // namespace

void SnapshotKey(NodeState& st, KeyId key, uint64_t now,
                 ReplicaKeySlice* out) {
  if (const BucketList* bucket = st.queries.Find(key)) {
    for (uint32_t cur = bucket->head; cur != kNil;
         cur = st.query_pool.at(cur).next) {
      // Bare residual copies: the ProjectionSet is not mirrored.
      out->queries.push_back(st.query_pool.at(cur).value.residual);
    }
  }
  if (const TupleBucket* bucket = st.tuples.Find(key)) {
    TupleBucketForEach(st.tuple_chunks, *bucket,
                       [&](const TupleRef& t) { out->tuples.push_back(t); });
  }
  if (const BucketList* dq = st.altt.Find(key)) {
    for (uint32_t cur = dq->head; cur != kNil;
         cur = st.altt_pool.at(cur).next) {
      const AlttEntry& e = st.altt_pool.at(cur).value;
      if (e.expires < now) continue;  // Owner would expire it anyway.
      out->altt.push_back(AlttEntry{e.tuple, e.expires});
    }
  }
  st.rates.PeekKey(key, &out->rate_epoch, &out->rate_current,
                   &out->rate_previous);
}

uint64_t MirrorBytes(const ReplicaUpdate& mirror) {
  using Op = ReplicaUpdate::Op;
  uint64_t bytes = HandoffBatch::kHeaderBytes + sizeof(KeyId);
  switch (mirror.op) {
    case Op::kReplace: {
      const ReplicaKeySlice& s = *mirror.snapshot;
      bytes += s.queries.size() * HandoffBatch::kQueryBytes;
      for (const TupleRef& t : s.tuples) bytes += HandoffBatch::TupleBytes(t);
      for (const AlttEntry& e : s.altt) {
        bytes += HandoffBatch::AlttBytes(e.tuple);
      }
      if (s.rate_current > 0 || s.rate_previous > 0) {
        bytes += HandoffBatch::kRateBytes;
      }
      return bytes;
    }
    case Op::kQuery:
      return bytes + HandoffBatch::kQueryBytes;
    case Op::kTuple:
    case Op::kRate:
      return bytes + HandoffBatch::TupleBytes(mirror.tuple) +
             HandoffBatch::kRateBytes;
    case Op::kAltt:
      return bytes + HandoffBatch::AlttBytes(mirror.tuple) +
             HandoffBatch::kRateBytes;
    case Op::kResync:
    case Op::kReaim:
      break;
  }
  return bytes;
}

MirrorVerdict ApplyMirror(ReplicaKeySlice& slice, ReplicaUpdate& mirror,
                          uint64_t now) {
  using Op = ReplicaUpdate::Op;
  // One owner's sequence numbers only grow, so a mirror numbered at or
  // below the slice's is already covered by a later REPLACE.
  if (slice.owner == mirror.from && mirror.seq <= slice.seq) {
    return MirrorVerdict::kStale;
  }
  if (mirror.op == Op::kReplace) {
    ReplicaKeySlice& snap = *mirror.snapshot;
    slice.queries.swap(snap.queries);
    slice.tuples.swap(snap.tuples);
    slice.altt.swap(snap.altt);
    slice.rate_epoch = snap.rate_epoch;
    slice.rate_current = snap.rate_current;
    slice.rate_previous = snap.rate_previous;
    slice.owner = mirror.from;
    slice.seq = mirror.seq;
    return MirrorVerdict::kApplied;
  }
  if (slice.owner != mirror.from || slice.seq != mirror.prev) {
    return MirrorVerdict::kGap;
  }
  slice.seq = mirror.seq;
  if (mirror.op == Op::kQuery) {
    slice.queries.push_back(std::move(mirror.residual));
    return MirrorVerdict::kApplied;
  }
  // A tuple arrival: the owner's drop rule first (a tuple beyond a
  // residual's window proves it closed), then the record it stored.
  std::erase_if(slice.queries, [&](const Residual& r) {
    return r.WindowClosedBy(mirror.tuple);
  });
  slice.rate_epoch = mirror.rate_epoch;
  slice.rate_current = mirror.rate_current;
  slice.rate_previous = mirror.rate_previous;
  if (mirror.op == Op::kTuple) {
    slice.tuples.push_back(std::move(mirror.tuple));
  } else if (mirror.op == Op::kAltt) {
    slice.altt.push_back(AlttEntry{std::move(mirror.tuple), mirror.expires});
    // The owner's amortized expiry: stale entries cluster at the head.
    auto live =
        std::find_if(slice.altt.begin(), slice.altt.end(),
                     [&](const AlttEntry& e) { return e.expires >= now; });
    slice.altt.erase(slice.altt.begin(), live);
  }
  return MirrorVerdict::kApplied;
}

// --------------------------------------------------- engine: owner side ----

ReplicaStore& RJoinEngine::ReplicasOf(dht::NodeIndex node) {
  std::unique_ptr<ReplicaStore>& store = state(node).replicas;
  if (store == nullptr) store = std::make_unique<ReplicaStore>();
  return *store;
}

void RJoinEngine::MirrorStored(dht::NodeIndex self, KeyId key,
                               const Residual& residual) {
  ReplicaUpdate delta(ReplicaUpdate::Op::kQuery);
  delta.key = key;
  delta.residual = residual;
  MirrorDelta(self, std::move(delta));
}

void RJoinEngine::MirrorArrival(dht::NodeIndex self, KeyId key,
                                ReplicaUpdate::Op op, const TupleRef& tuple,
                                uint64_t expires) {
  ReplicaUpdate delta(op);
  delta.key = key;
  delta.tuple = tuple;
  delta.expires = expires;
  state(self).rates.PeekKey(key, &delta.rate_epoch, &delta.rate_current,
                            &delta.rate_previous);
  MirrorDelta(self, std::move(delta));
}

void RJoinEngine::MirrorDelta(dht::NodeIndex self, ReplicaUpdate&& delta) {
  std::vector<dht::NodeIndex>& succs = ReplicaTargetBuffer();
  network_->SuccessorsOf(self, config_.replication - 1, &succs);
  if (succs.empty()) return;
  // Mirror traffic lives on its own allocation plane: the zero-alloc
  // budget of the publish/rewrite hot paths is accounted with replication
  // off, where this function is never reached.
  stats::AllocScope plane(stats::AllocPlane::kOther);
  ReplicaStore& store = ReplicasOf(self);
  if (store.reaim_pending) {
    // The re-aim snapshots are taken after this delivery's mutation, so
    // they already carry the record.
    Reaim(self);
    return;
  }
  uint64_t& last = store.last_mirror[delta.key];
  if (last == 0) {
    MirrorSnapshot(self, delta.key);  // No baseline at the successors yet.
    return;
  }
  delta.from = self;
  delta.prev = last;
  delta.seq = last = ++store.mirror_clock;
  const uint64_t fanout = succs.size();
  AddReplicaCounters(ReplicaSinkCounters{.updates = fanout,
                                         .keys = fanout,
                                         .bytes = fanout * MirrorBytes(delta)});
  for (size_t i = 0; i + 1 < fanout; ++i) {
    transport_->SendDirect(self, succs[i], MessageTask(delta.CopyDelta()));
  }
  transport_->SendDirect(self, succs.back(), MessageTask(std::move(delta)));
}

void RJoinEngine::MirrorSnapshot(dht::NodeIndex self, KeyId key) {
  std::vector<dht::NodeIndex>& succs = ReplicaTargetBuffer();
  network_->SuccessorsOf(self, config_.replication - 1, &succs);
  if (succs.empty()) return;
  ReplicaStore& store = ReplicasOf(self);
  const uint64_t seq = ++store.mirror_clock;
  store.last_mirror[key] = seq;
  for (dht::NodeIndex dst : succs) SendSnapshot(self, dst, key, seq);
}

void RJoinEngine::SendSnapshot(dht::NodeIndex self, dht::NodeIndex dst,
                               KeyId key, uint64_t seq) {
  // Snapshots are move-only (pooled records inside), so each target gets
  // its own copy of the slice.
  stats::AllocScope plane(stats::AllocPlane::kOther);
  ReplicaUpdate snap(ReplicaUpdate::Op::kReplace);
  snap.key = key;
  snap.from = self;
  snap.seq = seq;
  snap.snapshot = std::make_unique<ReplicaKeySlice>();
  SnapshotKey(state(self), key, Now(), snap.snapshot.get());
  AddReplicaCounters(ReplicaSinkCounters{
      .updates = 1, .keys = 1, .bytes = MirrorBytes(snap)});
  transport_->SendDirect(self, dst, MessageTask(std::move(snap)));
}

void RJoinEngine::RefreshReplicasAround(const dht::NodeId& position) {
  // Nodes whose successor window shifted: the owner at `position` and its
  // replication-1 alive ring predecessors. (The owner's own keys may also
  // have changed hands — installs re-baseline those as they arrive; this
  // pass re-aims the stale topology.)
  dht::NodeIndex at = network_->SuccessorOf(position);
  const size_t hops =
      std::min<size_t>(config_.replication - 1, network_->num_alive() - 1);
  RequestReaim(at);
  for (size_t i = 0; i < hops; ++i) {
    at = network_->node(at).predecessor();
    RequestReaim(at);
  }
}

void RJoinEngine::RequestReaim(dht::NodeIndex node) {
  if (runtime_ == nullptr) {
    // Serial path: the churn op applies inside an event and every send
    // after it queues behind these snapshots.
    Reaim(node);
    return;
  }
  // At a barrier the snapshots would be deferred to the node's shard,
  // where an event of the same instant could send a delta ahead of them.
  // So the node re-aims on its own shard instead: from the first mirror it
  // emits, or from this self-addressed event, whichever runs first.
  ReplicaStore& store = ReplicasOf(node);
  if (store.reaim_pending) return;
  store.reaim_pending = true;
  RJOIN_CHECK(ScheduleChurnEvent(Now(), node,
                                 MessageTask(ReplicaUpdate(
                                     ReplicaUpdate::Op::kReaim)))
                  .ok());
}

void RJoinEngine::Reaim(dht::NodeIndex node) {
  ReplicaStore& store = ReplicasOf(node);
  store.reaim_pending = false;
  // Baselines at the old successor window no longer count: a key that is
  // not re-sent below starts over with a REPLACE at its next mirror.
  store.last_mirror.clear();
  NodeState& st = state(node);
  stats::AllocScope plane(stats::AllocPlane::kOther);
  std::vector<KeyId> keys;
  st.queries.ForEach([&](KeyId key, const BucketList&) { keys.push_back(key); });
  st.tuples.ForEach([&](KeyId key, const TupleBucket&) { keys.push_back(key); });
  st.altt.ForEach([&](KeyId key, const BucketList&) { keys.push_back(key); });
  st.rates.AppendTrackedKeys(&keys);
  std::erase_if(keys, [&](KeyId k) {
    return network_->SuccessorOf(interner_->ring_id(k)) != node;
  });
  SortKeysByRingId(&keys, *interner_);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (KeyId key : keys) MirrorSnapshot(node, key);
}

void RJoinEngine::WriteThroughRateReplica(dht::NodeIndex owner, KeyId key) {
  uint64_t epoch = 0;
  uint64_t current = 0;
  uint64_t previous = 0;
  if (!state(owner).rates.PeekKey(key, &epoch, &current, &previous)) return;
  std::vector<dht::NodeIndex>& succs = ReplicaTargetBuffer();
  network_->SuccessorsOf(owner, config_.replication - 1, &succs);
  for (dht::NodeIndex dst : succs) {
    ReplicaKeySlice& slice = ReplicasOf(dst).slices[key];
    slice.rate_epoch = epoch;
    slice.rate_current = current;
    slice.rate_previous = previous;
  }
}

// ------------------------------------------------- engine: replica side ----

void RJoinEngine::OnReplicaUpdate(dht::NodeIndex self, ReplicaUpdate& msg) {
  if (!crashed_.empty() && crashed_[self]) return;  // Mail to the dead.
  stats::AllocScope plane(stats::AllocPlane::kOther);
  if (msg.op == ReplicaUpdate::Op::kReaim) {
    if (ReplicasOf(self).reaim_pending) Reaim(self);
    return;
  }
  const dht::NodeIndex owner =
      network_->SuccessorOf(interner_->ring_id(msg.key));
  if (msg.op == ReplicaUpdate::Op::kResync) {
    // Ownership may have moved on since the gap; the new owner re-baselines
    // its successors itself.
    if (owner != self) return;
    const uint64_t* last = ReplicasOf(self).last_mirror.Find(msg.key);
    if (last != nullptr && *last > 0) {
      SendSnapshot(self, msg.from, msg.key, *last);
    } else {
      MirrorSnapshot(self, msg.key);
    }
    return;
  }
  // Only the key's current owner mirrors it. Anything else was emitted
  // before a topology change moved the key: a mirror landing at the new
  // owner itself (say, a crashed owner's last update arriving after the
  // promotion) would resurrect records the promotion already extracted,
  // and elsewhere the new owner's own REPLACE supersedes it.
  if (owner != msg.from) return;
  ReplicaKeySlice& slice = ReplicasOf(self).slices[msg.key];
  if (ApplyMirror(slice, msg, Now()) != MirrorVerdict::kGap) return;
  // The delta overtook the mirror it extends (or this replica never got a
  // baseline): ask the owner for a REPLACE.
  ReplicaUpdate request(ReplicaUpdate::Op::kResync);
  request.key = msg.key;
  request.from = self;
  AddReplicaCounters(ReplicaSinkCounters{.gaps = 1});
  transport_->SendDirect(self, msg.from, MessageTask(std::move(request)));
}

void RJoinEngine::PromoteReplicas(dht::NodeIndex owner,
                                  const dht::KeyRange& range,
                                  uint64_t crash_time) {
  if (config_.replication <= 1) return;
  NodeState& st = state(owner);
  if (st.replicas == nullptr) return;  // Never mirrored to: nothing survives.
  const std::vector<KeyId> keys = KeysInRangeSorted(
      st.replicas->slices, *interner_, range.low, range.high);
  if (keys.empty()) return;

  auto batch = std::make_unique<HandoffBatch>();
  batch->from = owner;
  batch->range_low = range.low;
  batch->range_high = range.high;
  batch->emitted_at = crash_time;
  batch->promoted = true;
  for (KeyId key : keys) {
    ReplicaKeySlice* slice = st.replicas->slices.Find(key);
    for (Residual& r : slice->queries) {
      batch->queries.push_back(HandoffQuery{key, StoredQuery{std::move(r), {}}});
    }
    for (TupleRef& t : slice->tuples) {
      batch->tuples.push_back(HandoffTuple{key, std::move(t)});
    }
    for (AlttEntry& e : slice->altt) {
      batch->altt.push_back(HandoffAltt{key, std::move(e)});
    }
    if (slice->rate_current > 0 || slice->rate_previous > 0) {
      batch->rates.push_back(RateSlice{key, slice->rate_epoch,
                                       slice->rate_current,
                                       slice->rate_previous});
    }
    // Extract, don't copy: a second orphaned range overlapping this key
    // (correlated kills) must not promote the slice twice. Late mirrors
    // from the dead owner are dropped by OnReplicaUpdate's ownership rule.
    slice->Clear();
  }
  if (batch->empty()) return;
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

void RJoinEngine::SweepReplicaSlices(bool drop_tuples) {
  // Replica slices age by the owners' rules, locally (no messages): without
  // this pass a promotion after a sweep would resurrect records the owner
  // already dropped, and lapsed ALTT entries would pile up. (Queries are
  // additionally re-filtered at install.)
  const bool windowed = num_windowed_queries_ > 0;
  const uint64_t now = Now();
  for (auto& stp : states_) {
    if (stp->replicas == nullptr) continue;
    stp->replicas->slices.ForEach([&](KeyId, ReplicaKeySlice& slice) {
      if (windowed) {
        std::erase_if(slice.queries,
                      [&](const Residual& r) { return IsExpired(r); });
      }
      if (drop_tuples) {
        std::erase_if(slice.tuples,
                      [&](const TupleRef& t) { return TupleOutOfWindows(t); });
      }
      std::erase_if(slice.altt,
                    [&](const AlttEntry& e) { return e.expires < now; });
    });
  }
}

}  // namespace rjoin::core
