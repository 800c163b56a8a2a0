#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
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
// sender and queue insertion order) so the exported trace has a total
// order; driver-phase records use (driver clock, 0, 0).
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

// Process-wide tracer: one ring of TraceEvents plus one set of
// log-bucketed histograms, written by the simulator's one thread.
// Histograms are always on (a few counter bumps per sample, no
// allocation); the typed event ring records only when RJOIN_TRACE is set
// (or set_enabled() was called), so the disabled hot path is one load. The
// ring is allocated on the first recorded event.
class Tracer {
 public:
  static Tracer& Global();

  // One load; callers gate event recording on this.
  static bool On() { return Global().enabled_; }
  bool enabled() const { return enabled_; }
  // Test/bench override of the RJOIN_TRACE env default.
  void set_enabled(bool on) { enabled_ = on; }

  // Stamp the key (time, src, seq) of the executing event; all records
  // until the next call carry it.
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
  };
  // The histograms recorded since the last Reset().
  HistogramSet AggregateHistograms() const { return hist_; }

  // All retained events in (key_time, key_src, key_seq, record index)
  // order.
  std::vector<TraceEvent> MergedEvents() const;
  uint64_t DroppedEvents() const { return recorded_ - retained(); }

  // Chrome trace-event JSON (loads in Perfetto / chrome://tracing): pid 0
  // holds every event on one track; pid 1 duplicates events onto one track
  // per node listed in RJOIN_TRACE_NODES.
  void WriteChromeTrace(std::ostream& out) const;
  bool WriteChromeTraceFile(const std::string& path) const;

  // Clears the ring, the context and the histograms (the ring's capacity
  // stays).
  void Reset();

 private:
  Tracer();
  size_t retained() const { return std::min<uint64_t>(recorded_, capacity_); }

  bool enabled_;
  size_t capacity_;                    // ring events (RJOIN_TRACE_CAP)
  std::vector<uint32_t> track_nodes_;  // RJOIN_TRACE_NODES
  uint64_t wall_start_ns_;
  std::unique_ptr<TraceEvent[]> ring_;
  uint64_t recorded_ = 0;  // lifetime appends; the ring keeps the last
                           // min(recorded_, capacity_) of them
  uint64_t ctx_time_ = 0;
  uint64_t ctx_seq_ = 0;
  uint32_t ctx_src_ = 0;
  HistogramSet hist_;
};

}  // namespace rjoin::stats
