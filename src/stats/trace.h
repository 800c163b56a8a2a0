#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "stats/histogram.h"

namespace rjoin::stats {

// Event taxonomy for the virtual-time trace (docs/observability.md).
enum class TraceCategory : uint8_t {
  kSend,        // message emitted (direct / one-hop)
  kRoute,       // message emitted via Chord routing; arg = hop count
  kDeliver,     // typed payload handed to the engine
  kRewrite,     // residual shipped onward after a rewrite; arg = bound count
  kAnswer,      // completed answer row delivered to the query owner
  kChurn,       // topology change applied; kind = ChurnTraceKind
};
const char* TraceCategoryName(TraceCategory cat);

// The `kind` of a kChurn event, rendered as "churn:<name>".
enum class ChurnTraceKind : uint8_t {
  kLeave = 0,    // node = leaver, peer = new owner of its range
  kJoin = 1,     // node = joiner, peer = bootstrap
  kCrash = 2,    // node = victim, peer = new owner of its range
  kPromote = 3,  // node = survivor promoting replicas; arg = records
};

// One trace record. Dual-stamped: `vtime` is the virtual time of the
// traced action, `wall_ns` the steady-clock offset from tracer start.
// (key_time, key_src, key_seq) identify the executing event (its time,
// sender and queue insertion order) so merged traces have a total order;
// driver-phase records use (driver clock, 0, 0).
struct TraceEvent {
  uint64_t vtime = 0;
  uint64_t wall_ns = 0;
  uint64_t key_time = 0;
  uint64_t key_seq = 0;
  uint64_t arg = 0;
  uint32_t key_src = 0;
  uint32_t node = 0;
  uint32_t peer = 0;
  TraceCategory cat = TraceCategory::kSend;
  uint8_t kind = 0;
};

// Process-wide tracer: one slab-backed ring of TraceEvents plus one set of
// log-bucketed histograms per recording thread, registered lazily and
// reused across thread lifetimes. Histograms are always on (a few counter
// bumps per sample, no allocation past the first per-thread touch); the
// typed event ring records only when RJOIN_TRACE is set (or set_enabled()
// was called), so the disabled hot path is one relaxed atomic load.
//
// Merge/read APIs (MergedEvents, AggregateHistograms, WriteChromeTrace,
// Reset) must run while no other thread records.
class Tracer {
 public:
  struct Shard;  // per-thread recording state; defined in trace.cc

  static Tracer& Global();

  // One relaxed load; callers gate event recording on this.
  static bool On() { return Global().enabled_.load(std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  // Test/bench override of the RJOIN_TRACE env default.
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  // Stamp the key (time, src, seq) of the event the calling thread is
  // executing; all records until the next call carry it.
  static void SetContext(uint64_t time, uint32_t src, uint64_t seq);
  // Append a typed event (no-op when disabled).
  static void Record(TraceCategory cat, uint8_t kind, uint32_t node,
                     uint32_t peer, uint64_t arg, uint64_t vtime);
  // Same, stamped with the context event's time — for callers (transport)
  // that act inside an executing event without holding a clock.
  static void RecordAtContext(TraceCategory cat, uint8_t kind, uint32_t node,
                              uint32_t peer, uint64_t arg);

  // Always-on histogram feeds.
  static void RecordAnswerLatency(uint64_t vticks);
  static void RecordRewriteDepth(uint64_t bound);
  static void RecordRouteHops(uint64_t hops);
  static void RecordQueueDepth(uint64_t pending);

  struct HistogramSet {
    LogHistogram answer_latency;  // pubT of completing tuple -> AnswerDeliver
    LogHistogram rewrite_depth;   // bound tuples at each rewrite ship
    LogHistogram route_hops;      // per-message routing path length
    LogHistogram stall_ns;        // always empty; perfbench still reads it
    LogHistogram queue_depth;     // pending events at each event-pump Push
    void MergeFrom(const HistogramSet& other);
  };
  HistogramSet AggregateHistograms() const;

  // All retained events in deterministic (key_time, key_src, key_seq,
  // per-thread record order) order.
  std::vector<TraceEvent> MergedEvents() const;
  uint64_t DroppedEvents() const;

  // Chrome trace-event JSON (loads in Perfetto / chrome://tracing): pid 0
  // holds every event on one track; pid 1 duplicates events onto one track
  // per node listed in RJOIN_TRACE_NODES.
  void WriteChromeTrace(std::ostream& out) const;
  bool WriteChromeTraceFile(const std::string& path) const;

  // Clears every ring and histogram (capacity and thread bindings stay).
  void Reset();

 private:
  friend struct TlsTraceHandle;

  Tracer();
  Shard* LocalShard();
  void ReleaseShard(Shard* shard);

  std::atomic<bool> enabled_{false};
  size_t capacity_;                       // ring events per thread
  std::vector<uint32_t> track_nodes_;     // RJOIN_TRACE_NODES
  uint64_t wall_start_ns_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace rjoin::stats
