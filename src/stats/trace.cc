#include "stats/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/messages.h"

namespace rjoin::stats {
namespace {

uint64_t WallNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool EnvTraceOn() {
  const char* v = std::getenv("RJOIN_TRACE");
  return v != nullptr && *v != '\0' && !(v[0] == '0' && v[1] == '\0');
}

size_t EnvTraceCap() {
  constexpr size_t kDefault = 1u << 16;  // ring events
  const char* v = std::getenv("RJOIN_TRACE_CAP");
  if (v == nullptr || *v == '\0') return kDefault;
  const long long n = std::atoll(v);
  return n < 16 ? 16 : static_cast<size_t>(n);
}

std::vector<uint32_t> EnvTraceNodes() {
  std::vector<uint32_t> nodes;
  const char* v = std::getenv("RJOIN_TRACE_NODES");
  if (v == nullptr) return nodes;
  std::stringstream ss{std::string(v)};
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    nodes.push_back(static_cast<uint32_t>(std::atoll(item.c_str())));
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

// The event name shown in Perfetto: category, plus the message kind where
// one applies (e.g. "route:Rewrite").
std::string EventName(const TraceEvent& e) {
  switch (e.cat) {
    case TraceCategory::kSend:
    case TraceCategory::kRoute:
    case TraceCategory::kDeliver:
      return std::string(TraceCategoryName(e.cat)) + ":" +
             core::MessageKindName(static_cast<core::MessageKind>(e.kind));
    case TraceCategory::kChurn:
      switch (static_cast<ChurnTraceKind>(e.kind)) {
        case ChurnTraceKind::kLeave: return "churn:leave";
        case ChurnTraceKind::kJoin: return "churn:join";
        case ChurnTraceKind::kCrash: return "churn:crash";
        case ChurnTraceKind::kPromote: return "churn:promote";
      }
      return "churn";
    default:
      return TraceCategoryName(e.cat);
  }
}

}  // namespace

const char* TraceCategoryName(TraceCategory cat) {
  switch (cat) {
    case TraceCategory::kSend: return "send";
    case TraceCategory::kRoute: return "route";
    case TraceCategory::kDeliver: return "deliver";
    case TraceCategory::kRewrite: return "rewrite";
    case TraceCategory::kAnswer: return "answer";
    case TraceCategory::kChurn: return "churn";
  }
  return "?";
}

Tracer::Tracer()
    : enabled_(EnvTraceOn()),
      capacity_(EnvTraceCap()),
      track_nodes_(EnvTraceNodes()),
      wall_start_ns_(WallNowNs()) {}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();  // intentionally leaked
  return *tracer;
}

void Tracer::SetContext(uint64_t time, uint32_t src, uint64_t seq) {
  Tracer& t = Global();
  t.ctx_time_ = time;
  t.ctx_src_ = src;
  t.ctx_seq_ = seq;
}

void Tracer::RecordAtContext(TraceCategory cat, uint8_t kind, uint32_t node,
                             uint32_t peer, uint64_t arg) {
  if (!On()) return;
  Record(cat, kind, node, peer, arg, Global().ctx_time_);
}

void Tracer::Record(TraceCategory cat, uint8_t kind, uint32_t node,
                    uint32_t peer, uint64_t arg, uint64_t vtime) {
  Tracer& t = Global();
  if (!t.enabled_) return;
  if (!t.ring_) t.ring_ = std::make_unique<TraceEvent[]>(t.capacity_);
  TraceEvent& e = t.ring_[t.recorded_ % t.capacity_];
  ++t.recorded_;
  e.vtime = vtime;
  e.wall_ns = WallNowNs() - t.wall_start_ns_;
  e.key_time = t.ctx_time_;
  e.key_src = t.ctx_src_;
  e.key_seq = t.ctx_seq_;
  e.arg = arg;
  e.node = node;
  e.peer = peer;
  e.cat = cat;
  e.kind = kind;
}

void Tracer::RecordAnswerLatency(uint64_t vticks) {
  Global().hist_.answer_latency.Record(vticks);
}
void Tracer::RecordRewriteDepth(uint64_t bound) {
  Global().hist_.rewrite_depth.Record(bound);
}
void Tracer::RecordRouteHops(uint64_t hops) {
  Global().hist_.route_hops.Record(hops);
}
void Tracer::RecordQueueDepth(uint64_t pending) {
  Global().hist_.queue_depth.Record(pending);
}

std::vector<TraceEvent> Tracer::MergedEvents() const {
  // Records sit in the ring in execution order, which orders events by
  // (time, insertion order), not by the exported (time, sender, insertion
  // order) key; sorting by the key and breaking ties by record index keeps
  // each event's records in program order.
  struct Tagged {
    TraceEvent e;
    uint64_t index;
  };
  std::vector<Tagged> tagged;
  for (uint64_t i = recorded_ - retained(); i < recorded_; ++i) {
    tagged.push_back({ring_[i % capacity_], i});
  }
  std::sort(tagged.begin(), tagged.end(), [](const Tagged& a, const Tagged& b) {
    if (a.e.key_time != b.e.key_time) return a.e.key_time < b.e.key_time;
    if (a.e.key_src != b.e.key_src) return a.e.key_src < b.e.key_src;
    if (a.e.key_seq != b.e.key_seq) return a.e.key_seq < b.e.key_seq;
    return a.index < b.index;
  });
  std::vector<TraceEvent> out;
  out.reserve(tagged.size());
  for (const auto& t : tagged) out.push_back(t.e);
  return out;
}

namespace {

void WriteEventJson(std::ostream& out, const TraceEvent& e, int pid,
                    int64_t tid) {
  out << "{\"name\":\"" << EventName(e) << "\",\"cat\":\""
      << TraceCategoryName(e.cat) << "\",\"ph\":\"i\",\"ts\":" << e.vtime
      << ",\"pid\":" << pid << ",\"tid\":" << tid << ",\"s\":\"t\"";
  out << ",\"args\":{\"node\":" << e.node << ",\"peer\":" << e.peer
      << ",\"arg\":" << e.arg << ",\"src\":" << e.key_src << ",\"seq\":"
      << e.key_seq << ",\"wall_ns\":" << e.wall_ns << "}}";
}

}  // namespace

void Tracer::WriteChromeTrace(std::ostream& out) const {
  const std::vector<TraceEvent> events = MergedEvents();
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  sep();
  out << "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"rjoin\"}}";
  sep();
  out << "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\","
         "\"args\":{\"name\":\"driver\"}}";
  if (!track_nodes_.empty()) {
    sep();
    out << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
           "\"args\":{\"name\":\"rjoin nodes\"}}";
    for (uint32_t node : track_nodes_) {
      sep();
      out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << node
          << ",\"name\":\"thread_name\",\"args\":{\"name\":\"node "
          << node << "\"}}";
    }
  }
  for (const TraceEvent& e : events) {
    sep();
    WriteEventJson(out, e, /*pid=*/0, /*tid=*/0);
    for (uint32_t node : track_nodes_) {
      if (e.node == node || e.peer == node) {
        sep();
        WriteEventJson(out, e, /*pid=*/1, node);
      }
    }
  }
  out << "]}\n";
}

bool Tracer::WriteChromeTraceFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  WriteChromeTrace(out);
  return out.good();
}

void Tracer::Reset() {
  recorded_ = 0;
  ctx_time_ = ctx_seq_ = 0;
  ctx_src_ = 0;
  hist_ = HistogramSet{};
}

}  // namespace rjoin::stats
