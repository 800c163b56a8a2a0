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
  constexpr size_t kDefault = 1u << 16;  // events per recording thread
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

// Per-thread recording state. Owned by the Tracer registry for the whole
// process lifetime (so merge readers never chase a freed pointer) and
// handed back for reuse when the recording thread exits.
struct Tracer::Shard {
  std::unique_ptr<TraceEvent[]> ring;
  size_t capacity = 0;
  uint64_t recorded = 0;  // lifetime appends; ring keeps the last
                          // min(recorded, capacity) of them
  bool in_use = true;
  uint64_t ctx_time = 0;
  uint64_t ctx_seq = 0;
  uint32_t ctx_src = 0;
  HistogramSet hist;

  size_t size() const { return std::min<uint64_t>(recorded, capacity); }

  void Append(const TraceEvent& e) {
    ring[recorded % capacity] = e;
    ++recorded;
  }
};

namespace {

// Thread-exit hook: returns the shard to the registry free pool so a
// process that starts many threads reuses slabs instead of growing one per
// thread ever started.
struct TlsTraceHandleImpl {
  Tracer::Shard* shard = nullptr;
  ~TlsTraceHandleImpl();
};
thread_local TlsTraceHandleImpl tls_trace;

}  // namespace

struct TlsTraceHandle {
  static Tracer::Shard* Get() {
    if (tls_trace.shard == nullptr)
      tls_trace.shard = Tracer::Global().LocalShard();
    return tls_trace.shard;
  }
  static void Release(Tracer::Shard* shard) {
    Tracer::Global().ReleaseShard(shard);
  }
};

namespace {
TlsTraceHandleImpl::~TlsTraceHandleImpl() {
  if (shard != nullptr) TlsTraceHandle::Release(shard);
}
}  // namespace

Tracer::Tracer()
    : capacity_(EnvTraceCap()),
      track_nodes_(EnvTraceNodes()),
      wall_start_ns_(WallNowNs()) {
  enabled_.store(EnvTraceOn(), std::memory_order_relaxed);
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();  // intentionally leaked
  return *tracer;
}

Tracer::Shard* Tracer::LocalShard() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& s : shards_) {
    if (!s->in_use) {
      s->in_use = true;
      s->ctx_time = s->ctx_seq = 0;
      s->ctx_src = 0;
      return s.get();
    }
  }
  shards_.push_back(std::make_unique<Shard>());
  return shards_.back().get();
}

void Tracer::ReleaseShard(Shard* shard) {
  std::lock_guard<std::mutex> lock(mu_);
  shard->in_use = false;
}

void Tracer::SetContext(uint64_t time, uint32_t src, uint64_t seq) {
  Shard* s = TlsTraceHandle::Get();
  s->ctx_time = time;
  s->ctx_src = src;
  s->ctx_seq = seq;
}

void Tracer::RecordAtContext(TraceCategory cat, uint8_t kind, uint32_t node,
                             uint32_t peer, uint64_t arg) {
  if (!On()) return;
  Record(cat, kind, node, peer, arg, TlsTraceHandle::Get()->ctx_time);
}

void Tracer::Record(TraceCategory cat, uint8_t kind, uint32_t node,
                    uint32_t peer, uint64_t arg, uint64_t vtime) {
  Tracer& t = Global();
  if (!t.enabled()) return;
  Shard* s = TlsTraceHandle::Get();
  if (!s->ring) {
    s->capacity = t.capacity_;
    s->ring = std::make_unique<TraceEvent[]>(s->capacity);
  }
  TraceEvent e;
  e.vtime = vtime;
  e.wall_ns = WallNowNs() - t.wall_start_ns_;
  e.key_time = s->ctx_time;
  e.key_src = s->ctx_src;
  e.key_seq = s->ctx_seq;
  e.arg = arg;
  e.node = node;
  e.peer = peer;
  e.cat = cat;
  e.kind = kind;
  s->Append(e);
}

void Tracer::RecordAnswerLatency(uint64_t vticks) {
  TlsTraceHandle::Get()->hist.answer_latency.Record(vticks);
}
void Tracer::RecordRewriteDepth(uint64_t bound) {
  TlsTraceHandle::Get()->hist.rewrite_depth.Record(bound);
}
void Tracer::RecordRouteHops(uint64_t hops) {
  TlsTraceHandle::Get()->hist.route_hops.Record(hops);
}
void Tracer::RecordQueueDepth(uint64_t pending) {
  TlsTraceHandle::Get()->hist.queue_depth.Record(pending);
}

void Tracer::HistogramSet::MergeFrom(const HistogramSet& other) {
  answer_latency.MergeFrom(other.answer_latency);
  rewrite_depth.MergeFrom(other.rewrite_depth);
  route_hops.MergeFrom(other.route_hops);
  queue_depth.MergeFrom(other.queue_depth);
}

Tracer::HistogramSet Tracer::AggregateHistograms() const {
  HistogramSet out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& s : shards_) out.MergeFrom(s->hist);
  return out;
}

std::vector<TraceEvent> Tracer::MergedEvents() const {
  // A given event executes wholly on one thread, so sorting by its key and
  // breaking ties by per-thread record index is a total order that does
  // not depend on thread registration order.
  struct Tagged {
    TraceEvent e;
    uint64_t local_index;
  };
  std::vector<Tagged> tagged;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& s : shards_) {
      if (!s->ring) continue;
      const uint64_t first = s->recorded - s->size();
      for (uint64_t i = first; i < s->recorded; ++i)
        tagged.push_back({s->ring[i % s->capacity], i});
    }
  }
  std::sort(tagged.begin(), tagged.end(), [](const Tagged& a, const Tagged& b) {
    if (a.e.key_time != b.e.key_time) return a.e.key_time < b.e.key_time;
    if (a.e.key_src != b.e.key_src) return a.e.key_src < b.e.key_src;
    if (a.e.key_seq != b.e.key_seq) return a.e.key_seq < b.e.key_seq;
    return a.local_index < b.local_index;
  });
  std::vector<TraceEvent> out;
  out.reserve(tagged.size());
  for (const auto& t : tagged) out.push_back(t.e);
  return out;
}

uint64_t Tracer::DroppedEvents() const {
  uint64_t dropped = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& s : shards_) dropped += s->recorded - s->size();
  return dropped;
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
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& s : shards_) {
    s->recorded = 0;
    s->ctx_time = s->ctx_seq = 0;
    s->ctx_src = 0;
    s->hist = HistogramSet{};
  }
}

}  // namespace rjoin::stats
