#ifndef RJOIN_WORKLOAD_CHURN_H_
#define RJOIN_WORKLOAD_CHURN_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "dht/id.h"
#include "sim/time.h"

namespace rjoin::workload {

/// Fault-injection parameters layered on top of a churn trace: silent
/// crashes (no goodbye, no handoff — docs/failures.md) woven between the
/// graceful joins and leaves. A crash consumes a victim slot exactly like a
/// leave, so crashes never strand a query owner or publisher by themselves;
/// `correlated` additionally takes down ring-adjacent successors, which may
/// hit participants — that is the worst case the replication factor is
/// sized against.
struct FaultPlan {
  /// Number of silent-crash events in the trace.
  size_t crashes = 0;

  /// Extra adjacent successors killed together with each crash victim
  /// (correlated failure). With replication factor r, `correlated >= r - 1`
  /// can destroy every replica of a key range.
  uint32_t correlated = 0;

  /// Pin each crash 1 tick after the previous join/leave, so the crash
  /// races that operation's in-flight state handoff.
  bool crash_during_handoff = false;

  /// Follow every crash with a fresh join, exercising handoff of promoted
  /// state to a node that lands inside the recovered region.
  bool crash_then_rejoin = false;

  /// Extra seed mixed into the trace rng; 0 keeps the plain churn seed.
  uint64_t seed = 0;
};

/// Churn parameters of an experiment: how many nodes join and leave while
/// the tuple stream is running. The trace is generated up front (a pure
/// function of these parameters), then scheduled as in-band NodeJoin /
/// NodeLeave messages, so every run of the same spec sees the same
/// topology mutations at the same virtual instants.
struct ChurnSpec {
  /// Churn operations per published tuple (joins + leaves combined). Used
  /// only when `joins`/`leaves` are both 0; RJOIN_CHURN sets this knob
  /// from the environment when the config leaves churn unset.
  double rate = 0.0;

  /// Explicit operation counts (override `rate` when non-zero).
  size_t joins = 0;
  size_t leaves = 0;

  /// Extra nodes created at startup purely as leave victims. They are
  /// excluded from query-owner/publisher placement, so a departing spare
  /// never strands an answer destination. Leaves target spares first, then
  /// previously joined nodes (join-then-leave churn).
  size_t spare_nodes = 0;

  /// Minimum virtual-time gap between a node's join and its own leave
  /// (lets the join's handoff land before the state moves again in the
  /// common case; chained handoffs are still handled).
  uint64_t settle_ticks = 64;

  /// Trace seed; 0 derives one from the experiment seed.
  uint64_t seed = 0;

  /// Silent-failure injection (crashes interleaved with the churn ops);
  /// absent means a purely graceful trace — the historical behavior,
  /// bit-identical to traces generated before faults existed.
  std::optional<FaultPlan> faults;
};

/// What one scheduled churn operation does to the ring.
enum class ChurnOpKind : uint8_t {
  kJoin,   ///< a new node joins (graceful, with handoff)
  kLeave,  ///< a node departs gracefully (goodbye + handoff)
  kCrash,  ///< a node fails silently (no goodbye, no handoff)
};

/// One scheduled churn operation. Leaves and crashes reference a *victim
/// slot* rather than a node index: slot k is the k-th entry of the victim
/// sequence (all spares in creation order, then joined nodes in join
/// order), which the experiment resolves to concrete indices — spares
/// exist up front and joined nodes get sequential indices in application
/// order.
struct ChurnEvent {
  sim::SimTime time = 0;
  ChurnOpKind kind = ChurnOpKind::kLeave;
  dht::NodeId join_id;          ///< ring position (join only)
  size_t victim_slot = 0;       ///< victim-sequence slot (leave/crash only)
  uint32_t crash_successors = 0;  ///< extra adjacent kills (crash only)
};

/// Builds a deterministic churn trace across the virtual interval
/// [start, start + span): operations are evenly spaced with seeded jitter,
/// joins and removals (leaves, then any FaultPlan crashes) interleave, and
/// a removal of a joined node is pushed to at least that join's time +
/// settle_ticks (crashes with `crash_during_handoff` instead race the
/// previous operation's handoff). Returns events in non-decreasing time
/// order. `resolved_joins`/`resolved_leaves`/`resolved_crashes` receive
/// the actual counts after clamping (removals never exceed the available
/// victim supply: spares + joins).
std::vector<ChurnEvent> GenerateChurnTrace(const ChurnSpec& spec,
                                           size_t num_tuples,
                                           sim::SimTime start,
                                           sim::SimTime span, uint64_t seed,
                                           size_t* resolved_joins,
                                           size_t* resolved_leaves,
                                           size_t* resolved_crashes = nullptr);

}  // namespace rjoin::workload

#endif  // RJOIN_WORKLOAD_CHURN_H_
