#ifndef RJOIN_RUNTIME_SHARDED_RUNTIME_H_
#define RJOIN_RUNTIME_SHARDED_RUNTIME_H_

#include <atomic>
#include <compare>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/messages.h"
#include "sim/calendar_queue.h"
#include "sim/event_pump.h"
#include "sim/latency.h"
#include "sim/time.h"
#include "stats/metrics.h"
#include "util/random.h"

namespace rjoin::runtime {

using NodeIndex = stats::NodeIndex;

/// Globally unique, shard-count-invariant identity of a scheduled event:
/// its virtual delivery time, the node that emitted it, and that node's
/// emission sequence number. Each shard executes its events in EventKey
/// order, so the per-node execution order — and therefore every per-node
/// emission order — is the same for any number of shards. This is the
/// induction that makes parallel runs bit-identical to the 1-shard run.
struct EventKey {
  sim::SimTime time = 0;
  NodeIndex src = 0;
  uint64_t seq = 0;

  auto operator<=>(const EventKey&) const = default;
};

/// The scheduler lookahead `latency` guarantees: its minimum hop delay
/// (clamped to 1 for zero-latency-capable models, whose cross-node
/// deliveries Deliver defers by one tick, still deterministically).
/// A shard may run this many ticks past the least conservative bound it
/// holds on its peers without risking a late message. Experiments run with
/// this lookahead; the name is kept from the retired lockstep scheduler,
/// where the same quantity was the largest exact-timing round width.
sim::SimTime AutoRoundWidth(const sim::LatencyModel& latency);

/// Sentinel for BarrierHook::NextRendezvous: no serial phase requested.
inline constexpr sim::SimTime kNoRendezvous = sim::kTimeMax;

/// Serial callback run on the driver thread at every rendezvous (workers
/// parked) and once more after the final drain. The RJoin engine uses it to
/// publish staged answers, apply staged churn, and refresh the frozen rate
/// snapshots that worker threads read in place of live cross-shard state.
class BarrierHook {
 public:
  virtual ~BarrierHook() = default;
  virtual void OnBarrier(sim::SimTime rendezvous_time) = 0;

  /// Latest virtual time the hook can tolerate execution running to without
  /// a serial phase: the next epoch spans [after, min over hooks of this).
  /// Return kNoRendezvous for "no constraint". The engine returns the next
  /// RIC-epoch boundary so frozen rate snapshots refresh on schedule.
  virtual sim::SimTime NextRendezvous(sim::SimTime /*after*/) {
    return kNoRendezvous;
  }
};

/// A discrete-event runtime that partitions the NodeIndex space into S
/// shards, each owned by a worker thread with its own event heap, message
/// pool, metrics delta registry, and derived RNG streams.
///
/// Execution is conservative-watermark parallel discrete-event simulation:
/// each shard s continuously publishes a monotone "safe send floor" — a
/// lower bound on the emission time of anything it may still send — and
/// advances its own frontier
///
///   watermark(s) = min over peers p of
///       max(floor(p), last drained send-time from p) + min hop latency,
///
/// executing local events strictly below that frontier, in EventKey order,
/// with no global barrier. Cross-shard sends are lock-free per-(src, dst)
/// mailbox chains the receiver drains continuously. Global synchronization
/// degenerates into a *rendezvous*: the driver only parks workers at a
/// horizon — the next time a BarrierHook needs a serial phase (RIC epoch
/// boundary), a staged churn/handoff op caps it (RequestRendezvousBy), or
/// the RunUntil bound is hit. Between rendezvous, shards overlap freely
/// across what the lockstep scheduler ran as many rounds.
///
/// Determinism is unchanged: per-shard execution order stays (time, src,
/// emit-seq), and a shard never consumes a cross-shard message before its
/// watermark proves no earlier one can arrive — so the execution, and every
/// result derived from it, is identical for any S (see docs/runtime.md for
/// the equivalence argument).
///
/// Events are pooled core::Envelopes, identical to the serial simulator's:
/// heaps and mailboxes move EnvelopeRefs, typed envelopes go to the
/// attached core::EnvelopeDispatcher (the transport), Control envelopes
/// run inline. Each shard's pool recycles envelopes through freelists
/// (cross-shard returns ride a lock-free remote list), so the steady-state
/// delivery path performs zero heap allocations per message.
///
/// As a sim::EventPump, the runtime tags every message with (src, per-src
/// emission seq), draws its latency from an Rng derived from that identity
/// (so delays do not depend on thread interleaving or shard count), and
/// defers driver-phase sends, still in their routing stage, onto the
/// source node's shard, which moves the O(log N) routing work onto the
/// workers without any closure allocation.
///
/// Topology churn: the network (ChordNetwork) and the engine's per-node
/// state may change *at rendezvous only* — workers are parked there, so
/// the serial phase (BarrierHook::OnBarrier) may mutate the ring, grow the
/// node space (GrowNodes), and emit handoff envelopes. A worker staging a
/// churn op at event time t calls RequestRendezvousBy(t + lookahead) so the
/// op applies before any shard can outrun it; the resulting rendezvous
/// schedule is a pure function of the (shard-count-invariant) event
/// population, so every run applies the same churn at the same virtual
/// instants for any S. See docs/churn.md.
class ShardedRuntime final : public sim::EventPump {
 public:
  struct Options {
    uint32_t shards = 1;
    /// Conservative lookahead: the uniform minimum cross-shard hop latency
    /// the message plane guarantees (AutoRoundWidth() derives it from a
    /// latency model; Deliver enforces it). A receiver may execute up to
    /// its least peer bound plus this many ticks.
    sim::SimTime lookahead = 1;
    /// Root of every per-message latency stream (MessageRng).
    uint64_t seed = 0;
  };

  /// `main_metrics` is the registry experiments read; shard deltas are
  /// drained into it at every rendezvous.
  ShardedRuntime(const Options& options, size_t num_nodes,
                 stats::MetricsRegistry* main_metrics);
  ~ShardedRuntime() override;

  uint32_t shards() const { return num_shards_; }
  size_t num_nodes() const { return num_nodes_; }
  sim::SimTime lookahead() const { return lookahead_; }

  /// Shard owning `node`: contiguous blocks of the initial NodeIndex space;
  /// churn-joined nodes (indices past the initial size) round-robin across
  /// shards so join-heavy runs stay balanced.
  uint32_t ShardOf(NodeIndex node) const {
    if (node < initial_nodes_) {
      const uint32_t s = node / chunk_;
      return s < num_shards_ ? s : num_shards_ - 1;
    }
    return static_cast<uint32_t>((node - initial_nodes_) % num_shards_);
  }

  /// Shard the calling thread works for, or -1 on the driver thread.
  static int CurrentShard();

  /// Virtual time: the executing event's time on a worker, the rendezvous
  /// cursor on the driver.
  sim::SimTime Now() const override;

  /// Earliest time a cross-node message emitted now may be delivered:
  /// Now() + lookahead on a worker; Now() on the driver (workers parked, so
  /// no in-flight execution constrains the send). The name survives from
  /// the lockstep scheduler, where the same bound was the round edge.
  sim::SimTime CurrentRoundEnd() const;

  /// Key of the event being executed (workers, during an event, only).
  EventKey CurrentEventKey() const;

  /// Next emission sequence number of `src`. Must be called either from the
  /// worker owning `src`'s shard or from the driver between epochs.
  uint64_t NextEmitSeq(NodeIndex src) override { return ++emit_seq_[src]; }

  /// Sends defer on the driver: the routing stage runs on the source
  /// node's shard.
  bool DefersSends() const override { return CurrentShard() < 0; }

  /// Schedules the routing stage on `src`'s own shard at Now(); as a
  /// self-event it is exempt from the lookahead bound.
  void Defer(NodeIndex src, core::EnvelopeRef env) override;

  /// A stream derived from (seed, src, seq): the same draws for any shard
  /// count and any thread interleaving.
  Rng& MessageRng(NodeIndex src, uint64_t seq) override;

  /// Schedules the delivery at Now() + delay, or at CurrentRoundEnd() if
  /// that is later and the message crosses nodes (the lookahead bound).
  void Deliver(NodeIndex src, uint64_t seq, sim::SimTime delay,
               core::EnvelopeRef env) override;

  /// Grows the node space to `num_nodes` (nodes joining at a rendezvous).
  /// Driver-only, workers parked: emission counters and every metrics
  /// registry resize here, before any worker can address the new nodes.
  /// Joined nodes are assigned round-robin (see ShardOf) — a deterministic,
  /// balanced placement that keeps the shard of every existing node stable.
  void GrowNodes(size_t num_nodes);

  /// Envelope pool of one shard. Acquire only on the owning worker thread,
  /// or on the driver while workers are parked.
  core::MessagePool* shard_pool(uint32_t shard) {
    return shard_state_[shard]->pool.get();
  }

  /// Envelope for an event that `executor`'s shard will run: drawn from the
  /// calling worker's own pool (the freelist is owner-thread-only), or from
  /// the executing shard's pool on the driver (workers parked). The single
  /// definition of the pool-borrowing rule.
  core::EnvelopeRef AcquireFor(NodeIndex executor) override {
    const int cur = CurrentShard();
    const uint32_t shard =
        cur >= 0 ? static_cast<uint32_t>(cur) : ShardOf(executor);
    return shard_state_[shard]->pool->Acquire();
  }

  /// Receiver of typed envelopes (the transport); Control envelopes run
  /// without it.
  void set_dispatcher(core::EnvelopeDispatcher* dispatcher) override {
    dispatcher_ = dispatcher;
  }

  /// Schedules `env` to run at `env->time` on `env->dst`'s shard, ordered
  /// by its (time, src, seq) key. Callable from the driver between epochs
  /// (pushes straight into the shard heap) or from a worker (own shard:
  /// direct heap push; foreign shard: lock-free mailbox push, stamped with
  /// the emitting event's time so the receiver can advance its frontier).
  /// Worker-emitted cross-node events must not be due before Now() +
  /// lookahead — Deliver() enforces that bound.
  void ScheduleEnvelope(core::EnvelopeRef env) override;

  /// Closure convenience over ScheduleEnvelope for tests: wraps `action`
  /// in a Control envelope from the appropriate shard pool.
  void ScheduleEvent(const EventKey& key, NodeIndex dst,
                     std::function<void()> action);

  /// Caps the running epoch's horizon: guarantees a rendezvous (serial
  /// phase) no later than `when`, pulling every shard's watermark down to
  /// it. Worker-callable mid-epoch — the engine uses it when a churn op is
  /// staged at event time t, with when = t + lookahead: at that instant no
  /// shard can have executed past t + lookahead (the staging shard's
  /// published floor was still <= t), so the cap never rewinds anyone.
  /// No-op if the horizon is already earlier.
  void RequestRendezvousBy(sim::SimTime when);

  /// Runs epochs until every shard heap and mailbox drains. Returns the
  /// number of events executed. Leaves Now() at the last executed event's
  /// time (mirrors sim::Simulator::Run).
  uint64_t Run() override;

  /// Runs events with time <= `until`; advances the clock to `until` even
  /// if everything drains earlier (mirrors sim::Simulator::RunUntil).
  uint64_t RunUntil(sim::SimTime until) override;

  /// Registers a serial rendezvous callback (driver thread, workers
  /// parked).
  void AddBarrierHook(BarrierHook* hook) { hooks_.push_back(hook); }

  /// Cross-shard mailbox accounting: one batch is one non-empty
  /// per-(src-shard, dst-shard) envelope chain taken over by its receiver
  /// (or swept by the driver at a rendezvous). envelopes / batches is the
  /// mean batch width the message plane reports.
  struct MailboxStats {
    uint64_t batches = 0;
    uint64_t envelopes = 0;
  };
  MailboxStats mailbox_stats() const { return mailbox_; }

  /// Process-wide mailbox totals across all runtimes, live and destroyed
  /// (the bench reporter diffs these, mirroring MessagePool::Aggregate).
  static MailboxStats AggregateMailbox();

  /// Watermark-scheduler health counters, merged at rendezvous.
  struct SchedulerStats {
    /// Rendezvous epochs the driver ran (each one gate cycle — the only
    /// global synchronization left).
    uint64_t epochs = 0;
    /// Park episodes: a worker found nothing executable below its
    /// watermark, spun out, and slept until a peer signalled progress.
    /// Wall-clock-dependent (not deterministic); a perf health signal only.
    uint64_t watermark_stalls = 0;
    /// Epochs whose horizon was capped early by RequestRendezvousBy
    /// (staged churn/handoff ops).
    uint64_t rendezvous_caps = 0;
    /// Lockstep rounds the retired scheduler would have run over the same
    /// executed span: sum over epochs of ceil(executed span / lookahead),
    /// idle gaps not subtracted (epochs jump them just as rounds did).
    uint64_t equivalent_rounds = 0;

    /// Fraction of the old barrier schedule eliminated by overlap:
    /// 1 - epochs / equivalent_rounds (0 when every epoch spans a single
    /// round's worth of virtual time).
    double overlap_ratio() const {
      return equivalent_rounds == 0
                 ? 0.0
                 : 1.0 - static_cast<double>(epochs) /
                             static_cast<double>(equivalent_rounds);
    }
  };
  SchedulerStats scheduler_stats() const { return sched_; }

  /// Process-wide scheduler totals across all runtimes, live and destroyed
  /// (bench reporter diffs, mirroring AggregateMailbox).
  static SchedulerStats AggregateScheduler();

  /// Registry the calling thread must write: its shard's delta registry on
  /// a worker, the main registry on the driver.
  stats::MetricsRegistry* ActiveMetrics() override;

  stats::MetricsRegistry* shard_metrics(uint32_t shard) {
    return shard_state_[shard]->metrics.get();
  }

 private:
  struct EnvelopeLater {
    bool operator()(const core::EnvelopeRef& a,
                    const core::EnvelopeRef& b) const {
      // min-heap on the EventKey ordering — the single definition of the
      // deterministic execution order.
      return EventKey{b->time, b->src, b->seq} <
             EventKey{a->time, a->src, a->seq};
    }
  };

  /// Reusable generation barrier for num_shards_ workers + the driver.
  /// Spins briefly (cheap when epochs are dense), then sleeps on a condvar.
  class Gate {
   public:
    void Init(uint32_t parties, bool spin) {
      parties_ = parties;
      spin_ = spin;
    }
    void Arrive();

   private:
    uint32_t parties_ = 0;
    bool spin_ = true;
    std::atomic<uint64_t> gen_{0};
    std::atomic<uint32_t> waiting_{0};
    std::mutex mutex_;
    std::condition_variable cv_;
  };

  /// One per-(src-shard, dst-shard) mailbox: an intrusive LIFO chain of
  /// envelopes linked through Envelope::link, pushed lock-free by the one
  /// producing worker and taken over whole by the one consuming worker
  /// (heap insertion re-sorts, so stack order is irrelevant). A cross-shard
  /// send costs one CAS — no vector growth, no per-envelope container
  /// churn.
  struct alignas(64) Mailbox {
    std::atomic<core::Envelope*> head{nullptr};
  };

  /// Published safe send floor of one shard (padded: written by its owner
  /// between batches, read by every peer's frontier scan).
  struct alignas(64) Floor {
    std::atomic<sim::SimTime> value{0};
  };

  struct alignas(64) ShardState {
    sim::CalendarQueue<EnvelopeLater> heap;  // pending events, EventKey order
    sim::SimTime now = 0;
    sim::SimTime last_executed = 0;
    bool executed_any = false;
    uint64_t executed = 0;
    sim::SimTime epoch_max_time = 0;  // largest executed time this epoch
    EventKey current_key;
    std::unique_ptr<core::MessagePool> pool;
    std::unique_ptr<stats::MetricsRegistry> metrics;
    /// last_drained_emit[p]: largest Envelope::emit_time drained from peer
    /// p so far; emissions are nondecreasing per shard, so this bounds
    /// everything p will still send (the "last drained send-time" frontier
    /// term).
    std::vector<sim::SimTime> last_drained_emit;
    MailboxStats mailbox;      // worker-drained batches, merged at rendezvous
    uint64_t stalls = 0;       // park episodes, merged at rendezvous
  };

  void WorkerMain(uint32_t shard);
  /// One epoch on one worker: scan peer floors + drain mailboxes, execute
  /// below the watermark, publish the own floor, repeat; park on a stall.
  void RunShardEpoch(uint32_t self, ShardState& shard);
  /// Frontier scan: refreshes the bound this shard holds on its peers and
  /// drains their mailboxes (floors are read *before* the drain — anything
  /// below a read floor is then guaranteed to be in the heap).
  sim::SimTime ScanFrontier(uint32_t self, ShardState& shard);
  void DrainMailbox(uint32_t from, uint32_t self, ShardState& shard);
  void ExecuteEnvelope(ShardState& shard, core::EnvelopeRef env);
  void PushLocal(ShardState& shard, core::EnvelopeRef env);
  void MaybeWakeParked();
  void Park(ShardState& shard);

  /// Rendezvous work (driver, workers parked): sweep leftover mailbox
  /// chains into heaps, merge metrics deltas and scheduler counters.
  void RendezvousDrain();
  /// Floors for the next epoch: floor(s) = min(own next event, earliest
  /// peer event + lookahead) — the exact serial fixpoint, cheap to compute
  /// with every heap visible.
  void InitFloors();
  sim::SimTime ComputeHorizon(sim::SimTime base, bool bounded,
                              sim::SimTime until);
  bool AllHeapsEmpty() const;
  sim::SimTime MinHeapTime() const;
  uint64_t RunLoop(bool bounded, sim::SimTime until);

  const uint32_t num_shards_;
  size_t num_nodes_;  // grows on join churn (GrowNodes, driver-only)
  const size_t initial_nodes_;  // block-partitioned prefix of the id space
  const sim::SimTime lookahead_;
  const uint32_t chunk_;
  const uint64_t seed_;

  std::vector<std::unique_ptr<ShardState>> shard_state_;
  std::vector<uint64_t> emit_seq_;  // per node; owner-shard written
  stats::MetricsRegistry* main_metrics_;
  core::EnvelopeDispatcher* dispatcher_ = nullptr;
  std::vector<BarrierHook*> hooks_;

  std::vector<Mailbox> mailboxes_;          // [src * S + dst]
  std::vector<Floor> floors_;               // [shard]

  /// End of the running epoch. Monotone within an epoch except for
  /// RequestRendezvousBy, which only lowers it — and proves no shard has
  /// executed past the new value (see the method comment).
  std::atomic<sim::SimTime> horizon_{0};
  /// Envelopes in the plane (heaps + mailboxes + the one being executed).
  /// Incremented before a push is visible, decremented after execution
  /// finished emitting — zero is stable and means fully drained, which is
  /// what lets workers terminate an unbounded epoch without a barrier.
  std::atomic<int64_t> pending_{0};

  std::atomic<uint32_t> parked_{0};
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  /// Horizon caps applied this epoch (workers increment, driver merges).
  std::atomic<uint64_t> caps_{0};
  /// Whether stalled workers spin before parking (only worthwhile when the
  /// hardware can actually run the peers concurrently).
  bool spin_ = true;

  sim::SimTime now_ = sim::kTimeZero;
  sim::SimTime epoch_base_ = 0;  // stable while workers run
  uint64_t total_executed_ = 0;
  MailboxStats mailbox_;   // driver-merged (rendezvous)
  SchedulerStats sched_;   // driver-merged (rendezvous)

  std::vector<std::thread> workers_;
  Gate start_gate_;
  Gate end_gate_;
  bool stop_ = false;  // read by workers after start_gate_ only
};

/// The event pump for `shards` worker shards: the serial sim::Simulator
/// for 0, otherwise a ShardedRuntime over `num_nodes` nodes whose lookahead
/// is AutoRoundWidth(latency). `metrics` is the registry callers read;
/// `seed` roots every latency draw.
std::unique_ptr<sim::EventPump> MakeEventPump(uint32_t shards,
                                              size_t num_nodes,
                                              const sim::LatencyModel& latency,
                                              stats::MetricsRegistry* metrics,
                                              uint64_t seed);

}  // namespace rjoin::runtime

#endif  // RJOIN_RUNTIME_SHARDED_RUNTIME_H_
