#include "core/replication.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "core/handoff.h"
#include "stats/alloc_tracker.h"

namespace rjoin::core {

namespace {

/// Reusable per-thread replica target set (the mirror fan-out resolves its
/// successor list allocation-free once warm).
std::vector<dht::NodeIndex>& ReplicaTargetBuffer() {
  static thread_local std::vector<dht::NodeIndex> buf;
  return buf;
}

}  // namespace

uint64_t MirrorBytes(const ReplicaUpdate& mirror) {
  using Op = ReplicaUpdate::Op;
  const uint64_t bytes = HandoffBatch::kHeaderBytes + sizeof(KeyId);
  switch (mirror.op) {
    case Op::kReplace:
      return bytes + mirror.snapshot->Bytes();
    case Op::kQuery:
      return bytes + KeySlice::kQueryBytes;
    case Op::kTuple:
    case Op::kRate:
      return bytes + KeySlice::TupleBytes(mirror.tuple) + KeySlice::kRateBytes;
    case Op::kAltt:
      return bytes + KeySlice::AlttBytes(mirror.tuple) + KeySlice::kRateBytes;
    case Op::kResync:
    case Op::kReaim:
      break;
  }
  return bytes;
}

MirrorVerdict ApplyMirror(ReplicaSlice& replica, ReplicaUpdate& mirror,
                          uint64_t now) {
  using Op = ReplicaUpdate::Op;
  // One owner's sequence numbers only grow, so a mirror numbered at or
  // below the slice's is already covered by a later REPLACE.
  if (replica.owner == mirror.from && mirror.seq <= replica.seq) {
    return MirrorVerdict::kStale;
  }
  if (mirror.op == Op::kReplace) {
    replica.slice = std::move(*mirror.snapshot);
    replica.owner = mirror.from;
    replica.seq = mirror.seq;
    return MirrorVerdict::kApplied;
  }
  if (replica.owner != mirror.from || replica.seq != mirror.prev) {
    return MirrorVerdict::kGap;
  }
  replica.seq = mirror.seq;
  KeySlice& slice = replica.slice;
  if (mirror.op == Op::kQuery) {
    slice.queries.push_back(std::move(mirror.residual));
    return MirrorVerdict::kApplied;
  }
  // A tuple arrival: the owner's drop rule first (a tuple beyond a
  // residual's window proves it closed), then the record it stored.
  std::erase_if(slice.queries, [&](const Residual& r) {
    return r.WindowClosedBy(mirror.tuple);
  });
  slice.rate = mirror.rate;
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
  delta.rate = state(self).rates.PeekKey(key);
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
  AddReplicaCounters(
      ReplicationStats{.replica_updates = fanout,
                       .replica_keys = fanout,
                       .replica_bytes = fanout * MirrorBytes(delta)});
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
  snap.snapshot = std::make_unique<KeySlice>(SliceOf(self, key, false));
  AddReplicaCounters(ReplicationStats{.replica_updates = 1,
                                      .replica_keys = 1,
                                      .replica_bytes = MirrorBytes(snap)});
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
  stats::AllocScope plane(stats::AllocPlane::kOther);
  for (KeyId key : SliceKeys(state(node), *interner_, [&](KeyId k) {
         return network_->SuccessorOf(interner_->ring_id(k)) == node;
       })) {
    MirrorSnapshot(node, key);
  }
}

void RJoinEngine::WriteThroughRateReplica(dht::NodeIndex owner, KeyId key) {
  const RateBucket rate = state(owner).rates.PeekKey(key);
  if (rate.empty()) return;
  std::vector<dht::NodeIndex>& succs = ReplicaTargetBuffer();
  network_->SuccessorsOf(owner, config_.replication - 1, &succs);
  for (dht::NodeIndex dst : succs) {
    KeySlice& slice = ReplicasOf(dst).slices[key].slice;
    slice.key = key;
    slice.rate = rate;
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
  ReplicaSlice& replica = ReplicasOf(self).slices[msg.key];
  if (ApplyMirror(replica, msg, Now()) != MirrorVerdict::kGap) return;
  // The delta overtook the mirror it extends (or this replica never got a
  // baseline): ask the owner for a REPLACE.
  ReplicaUpdate request(ReplicaUpdate::Op::kResync);
  request.key = msg.key;
  request.from = self;
  AddReplicaCounters(ReplicationStats{.mirror_gaps = 1});
  transport_->SendDirect(self, msg.from, MessageTask(std::move(request)));
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
    stp->replicas->slices.ForEach([&](KeyId, ReplicaSlice& replica) {
      KeySlice& slice = replica.slice;
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
