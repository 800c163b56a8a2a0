#ifndef RJOIN_CORE_REPLICATION_H_
#define RJOIN_CORE_REPLICATION_H_

#include <cstdint>
#include <vector>

#include "core/key.h"
#include "core/key_map.h"
#include "core/messages.h"
#include "core/node_state.h"
#include "core/residual.h"
#include "core/tuple_ref.h"

namespace rjoin::core {

// ---------------------------------------------------------------------------
// Successor-list replication (docs/failures.md). Under a replication factor
// r > 1, every state-mutating delivery at a key's owner mirrors the change
// to the next r-1 ring successors as a ReplicaUpdate: normally a DELTA that
// carries the one record the delivery stored, and a whole-slice REPLACE
// snapshot only when a successor may lack the owner's baseline for the key
// (re-aim after a topology change, handoff and promotion installs, the
// first mirror of a key since the owner's last re-aim, and a gap a replica
// detects in the key's sequence numbers). After every applied mirror a
// replica slice equals the owner's slice, possibly stale by in-flight
// mirrors. When the owner crashes silently, the surviving successor
// promotes its slices through the normal handoff install passes.
// ---------------------------------------------------------------------------

/// A replica's copy of one key's NodeState slice. Plain flat copies of the
/// owner's records: Residuals (not StoredQuery — the ProjectionSet is not
/// mirrored; DISTINCT suppression after a promotion is covered by the
/// owner-side answer-row fingerprints and the target-side stored-residual
/// fingerprints), value-tuple handles in arrival order, ALTT entries with
/// their original absolute expiry, and the key's rate bucket. The same
/// struct boxes a REPLACE snapshot on the wire.
struct ReplicaKeySlice {
  /// The owner whose mirrors built this slice, and the sequence number of
  /// the last one applied: a delta applies only when its `prev` equals
  /// `seq` (kInvalidNode / 0 before the first baseline).
  dht::NodeIndex owner = dht::kInvalidNode;
  uint64_t seq = 0;
  std::vector<Residual> queries;
  std::vector<TupleRef> tuples;
  std::vector<AlttEntry> altt;
  uint64_t rate_epoch = 0;
  uint64_t rate_current = 0;
  uint64_t rate_previous = 0;

  void Clear() {
    queries.clear();
    tuples.clear();
    altt.clear();
    rate_epoch = rate_current = rate_previous = 0;
  }
};

/// Everything one node keeps for successor-list replication. Created
/// lazily (RJoinEngine::ReplicasOf): with replication off, no node ever
/// pays the footprint — the single `replication > 1` branch is the whole
/// cost of the feature when disabled.
struct ReplicaStore {
  /// Slices held on behalf of ring predecessors.
  KeyIdMap<ReplicaKeySlice> slices;
  /// Owner side: sequence number of the last mirror this node sent for
  /// each key it owns; 0 = no baseline at the current successors, so the
  /// key's next mirror is a REPLACE.
  KeyIdMap<uint64_t> last_mirror;
  /// Owner side: source of sequence numbers, monotone for the node's life
  /// (a REPLACE never reuses a number a replica may still hold).
  uint64_t mirror_clock = 0;
  /// A topology change moved this node's successor window and the re-aim
  /// REPLACEs are still to be sent (sharded runtime only: the barrier
  /// defers them to the node's own shard).
  bool reaim_pending = false;
};

/// Copies `key`'s current slice at `st` into `out` (stored residuals,
/// value tuples, ALTT entries live at `now`, the raw rate bucket) — the
/// content of a REPLACE snapshot.
void SnapshotKey(NodeState& st, KeyId key, uint64_t now,
                 ReplicaKeySlice* out);

/// Approximate wire size of a mirror, with the per-record sizes of
/// HandoffBatch::ApproxBytes (the replica_bytes ledger).
uint64_t MirrorBytes(const ReplicaUpdate& mirror);

/// Outcome of applying a mirror to a replica slice.
enum class MirrorVerdict {
  kApplied,
  kStale,  ///< already covered by a newer baseline from the same owner
  kGap,    ///< the slice lacks the delta's predecessor: needs a REPLACE
};

/// Applies one REPLACE or delta from its key's current owner to `slice`.
/// A delta appends its record and runs the owner's own drop rules for the
/// key: a window-closing tuple deletes residuals, and ALTT entries expired
/// at `now` leave the head of the chain.
MirrorVerdict ApplyMirror(ReplicaKeySlice& slice, ReplicaUpdate& mirror,
                          uint64_t now);

}  // namespace rjoin::core

#endif  // RJOIN_CORE_REPLICATION_H_
