#include "runtime/sharded_runtime.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "sim/simulator.h"
#include "stats/trace.h"
#include "util/logging.h"

namespace rjoin::runtime {

namespace {
/// Shard index the current thread works for; -1 on the driver (and on any
/// thread that is not a runtime worker).
thread_local int tls_current_shard = -1;

constexpr int kGateSpinIterations = 2048;

// Process-wide totals (worker/driver writes, any-thread reads) across all
// runtimes, live and destroyed — the bench reporter diffs these.
std::atomic<uint64_t> g_mailbox_batches{0};
std::atomic<uint64_t> g_mailbox_envelopes{0};
std::atomic<uint64_t> g_epochs{0};
std::atomic<uint64_t> g_stalls{0};
std::atomic<uint64_t> g_caps{0};
std::atomic<uint64_t> g_equiv_rounds{0};

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}
}  // namespace

sim::SimTime AutoRoundWidth(const sim::LatencyModel& latency) {
  return std::max<sim::SimTime>(1, latency.min_delay());
}

// ----------------------------------------------------------------- Gate

void ShardedRuntime::Gate::Arrive() {
  const uint64_t gen = gen_.load(std::memory_order_acquire);
  if (waiting_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
    // Last arriver opens the gate. All other parties are inside Arrive()
    // for this generation, so resetting the counter first is safe.
    waiting_.store(0, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      gen_.store(gen + 1, std::memory_order_release);
    }
    cv_.notify_all();
    return;
  }
  if (spin_) {
    for (int i = 0; i < kGateSpinIterations; ++i) {
      if (gen_.load(std::memory_order_acquire) != gen) return;
      CpuRelax();
    }
  }
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock,
           [&] { return gen_.load(std::memory_order_acquire) != gen; });
}

// -------------------------------------------------------- construction

namespace {
uint32_t BlockChunk(size_t num_nodes, uint32_t shards) {
  const size_t chunk = (num_nodes + shards - 1) / shards;
  return static_cast<uint32_t>(chunk > 0 ? chunk : 1);
}
}  // namespace

ShardedRuntime::ShardedRuntime(const Options& options, size_t num_nodes,
                               stats::MetricsRegistry* main_metrics)
    : num_shards_(std::max<uint32_t>(1, options.shards)),
      num_nodes_(num_nodes),
      initial_nodes_(num_nodes),
      lookahead_(std::max<sim::SimTime>(1, options.lookahead)),
      chunk_(BlockChunk(num_nodes, std::max<uint32_t>(1, options.shards))),
      seed_(options.seed),
      emit_seq_(num_nodes, 0),
      main_metrics_(main_metrics),
      mailboxes_(static_cast<size_t>(num_shards_) * num_shards_),
      floors_(num_shards_) {
  RJOIN_CHECK(main_metrics_ != nullptr);
  main_metrics_->Resize(num_nodes_);
  shard_state_.reserve(num_shards_);
  for (uint32_t s = 0; s < num_shards_; ++s) {
    auto state = std::make_unique<ShardState>();
    state->pool = std::make_unique<core::MessagePool>();
    state->metrics = std::make_unique<stats::MetricsRegistry>(num_nodes_);
    state->metrics->EnableDeltaTracking();
    state->last_drained_emit.assign(num_shards_, 0);
    shard_state_.push_back(std::move(state));
  }
  // Spinning is counterproductive when the hardware cannot actually run the
  // workers in parallel.
  spin_ = std::thread::hardware_concurrency() > num_shards_;
  start_gate_.Init(num_shards_ + 1, spin_);
  end_gate_.Init(num_shards_ + 1, spin_);
  workers_.reserve(num_shards_);
  for (uint32_t s = 0; s < num_shards_; ++s) {
    workers_.emplace_back([this, s] { WorkerMain(s); });
  }
}

ShardedRuntime::~ShardedRuntime() {
  stop_ = true;
  start_gate_.Arrive();  // releases workers; they observe stop_ and exit
  for (auto& w : workers_) w.join();
  // Drain heaps and mailboxes while every shard's pool is still alive:
  // releasing an EnvelopeRef returns the envelope to its origin pool, which
  // may belong to a different shard than the heap holding it. Releasing a
  // chain head walks the whole link chain back into its pools.
  for (Mailbox& box : mailboxes_) {
    core::Envelope* e = box.head.exchange(nullptr, std::memory_order_relaxed);
    if (e != nullptr) core::MessagePool::Release(e);
  }
  for (auto& shard : shard_state_) shard->heap.Clear();
}

void ShardedRuntime::GrowNodes(size_t num_nodes) {
  RJOIN_CHECK(tls_current_shard < 0)
      << "GrowNodes must run on the driver (workers parked)";
  if (num_nodes <= num_nodes_) return;
  num_nodes_ = num_nodes;
  emit_seq_.resize(num_nodes, 0);
  main_metrics_->Resize(num_nodes);
  for (auto& shard : shard_state_) shard->metrics->Resize(num_nodes);
}

ShardedRuntime::MailboxStats ShardedRuntime::AggregateMailbox() {
  MailboxStats s;
  s.batches = g_mailbox_batches.load(std::memory_order_relaxed);
  s.envelopes = g_mailbox_envelopes.load(std::memory_order_relaxed);
  return s;
}

ShardedRuntime::SchedulerStats ShardedRuntime::AggregateScheduler() {
  SchedulerStats s;
  s.epochs = g_epochs.load(std::memory_order_relaxed);
  s.watermark_stalls = g_stalls.load(std::memory_order_relaxed);
  s.rendezvous_caps = g_caps.load(std::memory_order_relaxed);
  s.equivalent_rounds = g_equiv_rounds.load(std::memory_order_relaxed);
  return s;
}

// --------------------------------------------------------- thread roles

int ShardedRuntime::CurrentShard() { return tls_current_shard; }

void ShardedRuntime::WorkerMain(uint32_t shard) {
  tls_current_shard = static_cast<int>(shard);
  shard_state_[shard]->metrics->BindOwnerThread();
  shard_state_[shard]->pool->BindOwnerThread();
  stats::Tracer::BindTrack(shard);
  for (;;) {
    start_gate_.Arrive();
    if (stop_) return;
    RunShardEpoch(shard, *shard_state_[shard]);
    end_gate_.Arrive();
  }
}

sim::SimTime ShardedRuntime::Now() const {
  const int s = tls_current_shard;
  return s >= 0 ? shard_state_[s]->now : now_;
}

sim::SimTime ShardedRuntime::CurrentRoundEnd() const {
  const int s = tls_current_shard;
  return s >= 0 ? sim::SaturatingAdd(shard_state_[s]->now, lookahead_) : now_;
}

EventKey ShardedRuntime::CurrentEventKey() const {
  const int s = tls_current_shard;
  RJOIN_CHECK(s >= 0) << "CurrentEventKey outside a worker event";
  return shard_state_[s]->current_key;
}

stats::MetricsRegistry* ShardedRuntime::ActiveMetrics() {
  const int s = tls_current_shard;
  return s >= 0 ? shard_state_[s]->metrics.get() : main_metrics_;
}

// ---------------------------------------------------------- scheduling

void ShardedRuntime::PushLocal(ShardState& shard, core::EnvelopeRef env) {
  shard.heap.Push(std::move(env));
}

void ShardedRuntime::ScheduleEnvelope(core::EnvelopeRef env) {
  // Routing stages (kRoute/kDirect) execute on the *emitting* node's shard
  // — that is where the O(log N) work and the emission-seq draw belong;
  // only finished deliveries place by destination.
  const NodeIndex place =
      env->stage == core::EnvelopeStage::kDeliver ? env->dst : env->src;
  RJOIN_CHECK(place < num_nodes_) << "event for unknown node " << place;
  const uint32_t dst_shard = ShardOf(place);
  const int cur = tls_current_shard;
  // Count the envelope into the plane before it becomes visible: zero
  // pending is the workers' distributed-termination signal, so it may never
  // be observed while a scheduled envelope is in flight.
  pending_.fetch_add(1, std::memory_order_relaxed);
  if (cur < 0) {
    // Driver phase: workers are parked, every heap is safely writable.
    PushLocal(*shard_state_[dst_shard], std::move(env));
    return;
  }
  ShardState& self = *shard_state_[cur];
  if (static_cast<uint32_t>(cur) == dst_shard) {
    PushLocal(self, std::move(env));
    return;
  }
  // Cross-shard send: stamp the emission time (the receiver's frontier
  // term) and CAS the envelope onto the (src, dst) mailbox chain. Single
  // envelopes only reach here (MultiSendKeys chains defer driver-side onto
  // their own shard), so `link` is free to carry the chain.
  core::Envelope* e = env.release();
  RJOIN_DCHECK(e->link == nullptr);
  e->emit_time = self.now;
  // Cross-shard sends may not be due before emission + lookahead.
  RJOIN_DCHECK(e->time >= sim::SaturatingAdd(e->emit_time, lookahead_));
  Mailbox& box =
      mailboxes_[static_cast<size_t>(cur) * num_shards_ + dst_shard];
  core::Envelope* head = box.head.load(std::memory_order_relaxed);
  do {
    e->link = head;
  } while (!box.head.compare_exchange_weak(
      head, e, std::memory_order_release, std::memory_order_relaxed));
  MaybeWakeParked();
}

void ShardedRuntime::Defer(NodeIndex src, core::EnvelopeRef env) {
  // env->dst is left alone: a kDirect envelope already carries its true
  // destination, and ScheduleEnvelope places pre-delivery stages on src's
  // shard anyway.
  env->time = Now();
  env->src = src;
  env->seq = NextEmitSeq(src);
  ScheduleEnvelope(std::move(env));
}

Rng& ShardedRuntime::MessageRng(NodeIndex src, uint64_t seq) {
  static thread_local Rng rng;
  rng = Rng(MixSeed(seed_, src, seq));
  return rng;
}

void ShardedRuntime::Deliver(NodeIndex src, uint64_t seq, sim::SimTime delay,
                             core::EnvelopeRef env) {
  sim::SimTime when = Now() + delay;
  if (src != env->dst) {
    // Lookahead invariant: a message to another node may not be due
    // before emission time + the lookahead — whether or not the
    // destination happens to share the shard — otherwise results would
    // depend on the partitioning. With lookahead = the latency model's
    // minimum hop delay (AutoRoundWidth) this never changes a delivery
    // time; it only defers zero-delay cross-node hops of
    // zero-latency-capable models by one tick, deterministically.
    // Self-sends always stay on their own shard for any S, so zero-delay
    // self-delivery (src == Successor(key)) keeps its serial timing.
    when = std::max(when, CurrentRoundEnd());
  }
  env->time = when;
  env->src = src;
  env->seq = seq;
  ScheduleEnvelope(std::move(env));
}

void ShardedRuntime::ScheduleEvent(const EventKey& key, NodeIndex dst,
                                   std::function<void()> action) {
  core::EnvelopeRef env = AcquireFor(dst);
  env->time = key.time;
  env->src = key.src;
  env->seq = key.seq;
  env->dst = dst;
  env->task = core::MessageTask(core::Control{std::move(action)});
  ScheduleEnvelope(std::move(env));
}

void ShardedRuntime::RequestRendezvousBy(sim::SimTime when) {
  RJOIN_DCHECK(when > epoch_base_);  // cap must leave the epoch non-empty
  sim::SimTime cur = horizon_.load(std::memory_order_relaxed);
  while (when < cur) {
    if (horizon_.compare_exchange_weak(cur, when, std::memory_order_release,
                                       std::memory_order_relaxed)) {
      caps_.fetch_add(1, std::memory_order_relaxed);
      MaybeWakeParked();
      return;
    }
  }
}

// ------------------------------------------------------- watermark loop

void ShardedRuntime::DrainMailbox(uint32_t from, uint32_t self,
                                  ShardState& shard) {
  Mailbox& box = mailboxes_[static_cast<size_t>(from) * num_shards_ + self];
  if (box.head.load(std::memory_order_relaxed) == nullptr) return;
  core::Envelope* e = box.head.exchange(nullptr, std::memory_order_acquire);
  if (e == nullptr) return;
  uint64_t n = 0;
  sim::SimTime newest = shard.last_drained_emit[from];
  while (e != nullptr) {
    core::Envelope* next = e->link;
    e->link = nullptr;
    newest = std::max(newest, e->emit_time);
    // A drained delivery due before emission + lookahead would mean the
    // sender broke the bound this shard's watermark is built on.
    RJOIN_DCHECK(e->time >= sim::SaturatingAdd(e->emit_time, lookahead_));
    PushLocal(shard, core::EnvelopeRef(e));
    e = next;
    ++n;
  }
  shard.last_drained_emit[from] = newest;
  shard.mailbox.batches += 1;
  shard.mailbox.envelopes += n;
}

sim::SimTime ShardedRuntime::ScanFrontier(uint32_t self, ShardState& shard) {
  sim::SimTime in_bound = sim::kTimeMax;
  for (uint32_t p = 0; p < num_shards_; ++p) {
    if (p == self) continue;
    // Read the peer's floor *before* draining its mailbox: anything the
    // peer emitted before publishing that floor is then guaranteed to be
    // in our heap, and anything later is due at or after floor + lookahead.
    // The drained chain's own send-times tighten the bound further (a
    // shard's emissions are nondecreasing in time).
    const sim::SimTime floor =
        floors_[p].value.load(std::memory_order_acquire);
    DrainMailbox(p, self, shard);
    const sim::SimTime known = std::max(floor, shard.last_drained_emit[p]);
    in_bound = std::min(in_bound, sim::SaturatingAdd(known, lookahead_));
  }
  return in_bound;
}

void ShardedRuntime::ExecuteEnvelope(ShardState& shard,
                                     core::EnvelopeRef env) {
  shard.now = env->time;
  shard.current_key = EventKey{env->time, env->src, env->seq};
  if (stats::Tracer::On()) {
    stats::Tracer::SetContext(env->time, env->src, env->seq);
  }
  if (env->stage == core::EnvelopeStage::kDeliver &&
      env->task.kind() == core::MessageKind::kControl) {
    core::RunControl(std::move(env));
  } else {
    RJOIN_CHECK(dispatcher_ != nullptr)
        << "typed envelope popped without a dispatcher";
    dispatcher_->DispatchEnvelope(std::move(env));
  }
  ++shard.executed;
  shard.last_executed = shard.current_key.time;
  shard.epoch_max_time = shard.current_key.time;
  shard.executed_any = true;
}

void ShardedRuntime::MaybeWakeParked() {
  if (parked_.load(std::memory_order_seq_cst) == 0) return;
  // Taking the mutex (briefly, empty critical section) closes the race
  // with a worker that passed its last re-check but has not slept yet; the
  // timed wait in Park() backstops the remaining notify-before-increment
  // window.
  { std::lock_guard<std::mutex> lock(park_mutex_); }
  park_cv_.notify_all();
}

void ShardedRuntime::Park(ShardState& shard) {
  ++shard.stalls;
  parked_.fetch_add(1, std::memory_order_seq_cst);
  const auto parked_at = std::chrono::steady_clock::now();
  {
    std::unique_lock<std::mutex> lock(park_mutex_);
    park_cv_.wait_for(lock, std::chrono::microseconds(200));
  }
  parked_.fetch_sub(1, std::memory_order_seq_cst);
  const uint64_t stall_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - parked_at)
          .count());
  stats::Tracer::RecordStallNanos(stall_ns);
  if (stats::Tracer::On()) {
    stats::Tracer::Record(stats::TraceCategory::kStall, 0,
                          static_cast<uint32_t>(tls_current_shard), 0,
                          stall_ns, shard.now);
  }
}

void ShardedRuntime::RunShardEpoch(uint32_t self, ShardState& shard) {
  auto& heap = shard.heap;
  const int spin_scans = spin_ ? 128 : 2;
  int idle_scans = 0;
  for (;;) {
    const sim::SimTime in_bound = ScanFrontier(self, shard);
    // Execute strictly below the watermark, in EventKey order. The horizon
    // is re-read per event: a peer staging churn caps it mid-epoch, and the
    // frontier math guarantees the cap arrives before any shard could have
    // executed past it (see RequestRendezvousBy).
    uint64_t ran = 0;
    while (!heap.empty() && heap.PeekTime() < in_bound &&
           heap.PeekTime() < horizon_.load(std::memory_order_acquire)) {
      core::EnvelopeRef env = heap.Pop();
      ExecuteEnvelope(shard, std::move(env));
      // Decrement only after the event finished emitting: its sends were
      // counted in first, so pending can never dip to a false zero.
      pending_.fetch_sub(1, std::memory_order_acq_rel);
      ++ran;
    }
    // Publish the safe send floor: nothing this shard emits from here on
    // can be due before min(next local event, earliest possible arrival).
    // Monotone by construction; the release store orders it after every
    // mailbox push of the batch above.
    const sim::SimTime heap_min =
        heap.empty() ? sim::kTimeMax : heap.PeekTime();
    const sim::SimTime floor = std::min(heap_min, in_bound);
    if (floor > floors_[self].value.load(std::memory_order_relaxed)) {
      floors_[self].value.store(floor, std::memory_order_release);
      MaybeWakeParked();
    }
    // Epoch exit: the plane fully drained (stable — pending is incremented
    // before any push is visible), or this shard proved it can neither
    // execute nor receive anything below the horizon.
    if (pending_.load(std::memory_order_acquire) == 0) return;
    const sim::SimTime horizon = horizon_.load(std::memory_order_acquire);
    if (in_bound >= horizon && heap_min >= horizon) return;
    if (ran != 0) {
      idle_scans = 0;
      continue;
    }
    // Watermark stall: nothing executable until a peer advances. Spin a
    // few scans (progress is usually one floor-publish away), then park.
    if (++idle_scans < spin_scans) {
      if (spin_) {
        CpuRelax();
      } else {
        std::this_thread::yield();
      }
      continue;
    }
    Park(shard);
    idle_scans = 0;
  }
}

// ------------------------------------------------------------ driver loop

void ShardedRuntime::RendezvousDrain() {
  // Sweep mailbox chains workers left behind (a receiver exits its epoch as
  // soon as its watermark passes the horizon; peers may push later — such
  // mail is provably due at or after the horizon). Fixed scan order keeps
  // the walk deterministic and cache-friendly.
  for (uint32_t src = 0; src < num_shards_; ++src) {
    for (uint32_t dst = 0; dst < num_shards_; ++dst) {
      Mailbox& box =
          mailboxes_[static_cast<size_t>(src) * num_shards_ + dst];
      core::Envelope* e =
          box.head.exchange(nullptr, std::memory_order_acquire);
      if (e == nullptr) continue;
      ShardState& to = *shard_state_[dst];
      ++to.mailbox.batches;
      while (e != nullptr) {
        core::Envelope* next = e->link;
        e->link = nullptr;
        RJOIN_CHECK(e->time >= now_)
            << "cross-shard event scheduled into the past (missing "
               "lookahead deferral?)";
        PushLocal(to, core::EnvelopeRef(e));
        ++to.mailbox.envelopes;
        e = next;
      }
    }
  }
  // Merge per-shard counters and metrics deltas; sums commute, so the
  // totals match the serial run.
  for (auto& shard : shard_state_) {
    mailbox_.batches += shard->mailbox.batches;
    mailbox_.envelopes += shard->mailbox.envelopes;
    g_mailbox_batches.fetch_add(shard->mailbox.batches,
                                std::memory_order_relaxed);
    g_mailbox_envelopes.fetch_add(shard->mailbox.envelopes,
                                  std::memory_order_relaxed);
    shard->mailbox = MailboxStats{};
    sched_.watermark_stalls += shard->stalls;
    g_stalls.fetch_add(shard->stalls, std::memory_order_relaxed);
    shard->stalls = 0;
    main_metrics_->MergeFrom(shard->metrics.get());
  }
  const uint64_t caps = caps_.exchange(0, std::memory_order_relaxed);
  sched_.rendezvous_caps += caps;
  g_caps.fetch_add(caps, std::memory_order_relaxed);
}

void ShardedRuntime::InitFloors() {
  // Exact serial fixpoint of the frontier equations, cheap with every heap
  // visible: a shard's earliest future emission is its own next event, or
  // any other pending event relayed over at least one hop into it.
  sim::SimTime min_all = sim::kTimeMax;
  sim::SimTime second = sim::kTimeMax;
  uint32_t min_shard = 0;
  for (uint32_t s = 0; s < num_shards_; ++s) {
    const auto& heap = shard_state_[s]->heap;
    const sim::SimTime top =
        heap.empty() ? sim::kTimeMax : heap.PeekTime();
    if (top < min_all) {
      second = min_all;
      min_all = top;
      min_shard = s;
    } else {
      second = std::min(second, top);
    }
  }
  for (uint32_t s = 0; s < num_shards_; ++s) {
    const auto& heap = shard_state_[s]->heap;
    const sim::SimTime own =
        heap.empty() ? sim::kTimeMax : heap.PeekTime();
    const sim::SimTime others = s == min_shard ? second : min_all;
    const sim::SimTime floor =
        std::min(own, sim::SaturatingAdd(others, lookahead_));
    floors_[s].value.store(floor, std::memory_order_relaxed);
  }
}

sim::SimTime ShardedRuntime::ComputeHorizon(sim::SimTime base, bool bounded,
                                            sim::SimTime until) {
  sim::SimTime horizon = sim::kTimeMax;
  for (BarrierHook* hook : hooks_) {
    horizon = std::min(horizon, hook->NextRendezvous(base));
  }
  if (bounded) horizon = std::min(horizon, until + 1);  // until is inclusive
  // A bounded run whose clock already sits past `until` (events scheduled
  // behind the cursor) still needs one degenerate epoch to execute them.
  if (horizon <= base) horizon = sim::SaturatingAdd(base, 1);
  return horizon;
}

bool ShardedRuntime::AllHeapsEmpty() const {
  for (const auto& shard : shard_state_) {
    if (!shard->heap.empty()) return false;
  }
  return true;
}

sim::SimTime ShardedRuntime::MinHeapTime() const {
  sim::SimTime min_time = sim::kTimeMax;
  for (const auto& shard : shard_state_) {
    if (!shard->heap.empty()) {
      min_time = std::min(min_time, shard->heap.PeekTime());
    }
  }
  return min_time;
}

uint64_t ShardedRuntime::RunLoop(bool bounded, sim::SimTime until) {
  RJOIN_CHECK(tls_current_shard < 0)
      << "Run()/RunUntil() must be called from the driver thread";
  const uint64_t executed_before = total_executed_;
  for (auto& shard : shard_state_) shard->executed_any = false;

  for (;;) {
    RendezvousDrain();
    if (AllHeapsEmpty() || (bounded && MinHeapTime() > until)) {
      // Final rendezvous: lets hooks publish what the last epoch staged. A
      // hook may also *create* work — churn staged in the last epoch is
      // applied here and emits handoff envelopes — so re-check: only break
      // when the hooks left the heaps drained (or beyond the bound).
      if (stats::Tracer::On()) stats::Tracer::SetContext(now_, 0, 0);
      for (BarrierHook* hook : hooks_) hook->OnBarrier(now_);
      if (AllHeapsEmpty() || (bounded && MinHeapTime() > until)) break;
      continue;
    }

    now_ = std::max(now_, MinHeapTime());  // jump idle gaps in one step
    // Driver-phase records (churn application inside OnBarrier, the
    // rendezvous marker below) carry the EventKey (now, 0, 0); real events
    // never use seq 0, so the driver cannot collide with a worker key.
    if (stats::Tracer::On()) stats::Tracer::SetContext(now_, 0, 0);
    for (BarrierHook* hook : hooks_) hook->OnBarrier(now_);
    const sim::SimTime base = now_;
    const sim::SimTime horizon = ComputeHorizon(base, bounded, until);
    epoch_base_ = base;
    horizon_.store(horizon, std::memory_order_relaxed);
    InitFloors();
    for (auto& shard : shard_state_) {
      shard->now = base;
      shard->epoch_max_time = base;
      // Drained send-times only bound a peer's *future* emissions within
      // one epoch (per-shard emission times are monotone there); across
      // epochs the floors are re-derived exactly, so start the per-peer
      // terms from scratch.
      std::fill(shard->last_drained_emit.begin(),
                shard->last_drained_emit.end(), sim::kTimeZero);
    }

    start_gate_.Arrive();
    end_gate_.Arrive();

    uint64_t epoch_executed = 0;
    sim::SimTime max_exec = base;
    for (auto& shard : shard_state_) {
      epoch_executed += shard->executed;
      shard->executed = 0;
      max_exec = std::max(max_exec, shard->epoch_max_time);
    }
    total_executed_ += epoch_executed;
    ++sched_.epochs;
    g_epochs.fetch_add(1, std::memory_order_relaxed);
    if (stats::Tracer::On()) {
      stats::Tracer::Record(stats::TraceCategory::kRendezvous, 0, 0,
                            num_shards_, horizon, base);
    }
    const uint64_t equiv = (max_exec - base) / lookahead_ + 1;
    sched_.equivalent_rounds += equiv;
    g_equiv_rounds.fetch_add(equiv, std::memory_order_relaxed);
    // The epoch may have been capped below the horizon we launched with.
    const sim::SimTime reached = horizon_.load(std::memory_order_relaxed);
    now_ = reached == sim::kTimeMax ? max_exec : reached - 1;
  }

  // Mirror sim::Simulator clock semantics.
  if (bounded) {
    now_ = std::max(now_, until);
  } else {
    sim::SimTime last = sim::kTimeZero;
    bool any = false;
    for (const auto& shard : shard_state_) {
      if (shard->executed_any) {
        last = std::max(last, shard->last_executed);
        any = true;
      }
    }
    if (any) now_ = last;
  }
  return total_executed_ - executed_before;
}

uint64_t ShardedRuntime::Run() {
  return RunLoop(/*bounded=*/false, /*until=*/0);
}

uint64_t ShardedRuntime::RunUntil(sim::SimTime until) {
  return RunLoop(/*bounded=*/true, until);
}

std::unique_ptr<sim::EventPump> MakeEventPump(uint32_t shards,
                                              size_t num_nodes,
                                              const sim::LatencyModel& latency,
                                              stats::MetricsRegistry* metrics,
                                              uint64_t seed) {
  if (shards == 0) return std::make_unique<sim::Simulator>(metrics, seed);
  // The lookahead comes from the latency model alone: it is a timing
  // guarantee, not a tuning knob.
  return std::make_unique<ShardedRuntime>(
      ShardedRuntime::Options{.shards = shards,
                              .lookahead = AutoRoundWidth(latency),
                              .seed = seed},
      num_nodes, metrics);
}

}  // namespace rjoin::runtime
