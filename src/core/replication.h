#ifndef RJOIN_CORE_REPLICATION_H_
#define RJOIN_CORE_REPLICATION_H_

#include <cstdint>
#include <vector>

#include "core/handoff.h"
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

/// A replica's copy of one key's slice, plus which owner's mirrors built
/// it. The slice holds flat copies of the owner's records (no DISTINCT
/// projection memory: see HandoffBatch::projections); a REPLACE snapshot
/// boxes the same KeySlice on the wire.
struct ReplicaSlice {
  /// May overlap: `owner` then sits in the tail padding after the slice's
  /// 4-byte key, so a replica costs 8 bytes more than its slice (the store
  /// holds one per replicated key, and peak RSS shows every slot byte).
  [[no_unique_address]] KeySlice slice;
  /// The owner whose mirrors built this slice, and the sequence number of
  /// the last one applied: a delta applies only when its `prev` equals
  /// `seq` (kInvalidNode / 0 before the first baseline).
  dht::NodeIndex owner = dht::kInvalidNode;
  uint64_t seq = 0;
};
static_assert(sizeof(ReplicaSlice) == sizeof(KeySlice) + sizeof(uint64_t),
              "ReplicaSlice::owner no longer packs into KeySlice's padding");

/// Everything one node keeps for successor-list replication. Created
/// lazily (RJoinEngine::ReplicasOf): with replication off, no node ever
/// pays the footprint — the single `replication > 1` branch is the whole
/// cost of the feature when disabled.
struct ReplicaStore {
  /// Slices held on behalf of ring predecessors.
  KeyIdMap<ReplicaSlice> slices;
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

/// Approximate wire size of a mirror, with KeySlice's per-record sizes
/// (the replica_bytes ledger).
uint64_t MirrorBytes(const ReplicaUpdate& mirror);

/// Outcome of applying a mirror to a replica slice.
enum class MirrorVerdict {
  kApplied,
  kStale,  ///< already covered by a newer baseline from the same owner
  kGap,    ///< the slice lacks the delta's predecessor: needs a REPLACE
};

/// Applies one REPLACE or delta from its key's current owner to `replica`.
/// A delta appends its record and runs the owner's own drop rules for the
/// key: a window-closing tuple deletes residuals, and ALTT entries expired
/// at `now` leave the head of the chain.
MirrorVerdict ApplyMirror(ReplicaSlice& replica, ReplicaUpdate& mirror,
                          uint64_t now);

}  // namespace rjoin::core

#endif  // RJOIN_CORE_REPLICATION_H_
