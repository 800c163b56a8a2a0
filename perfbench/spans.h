#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// Wall-clock spans recorded by the benchmark around each of its calls into
// the program (traced runs only), and the two files made from them: a
// Chrome/Perfetto trace and a table of per-layer self times.
//
// A span name is "<layer>.<call>" for a call into a layer (dht, core, sim,
// runtime); the benchmark's own roots ("setup", "tuple", "drain") have no
// dot and belong to the layer "driver". A layer's self time is its spans'
// durations minus the parts their child spans cover.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index of the enclosing span, -1 for a root
  int64_t arg = -1;     // tuple or query index, -1 when none
};

inline std::string_view LayerOf(std::string_view name) {
  const size_t dot = name.find('.');
  return dot == std::string_view::npos ? "driver" : name.substr(0, dot);
}

class SpanLog {
 public:
  /// An off log records nothing and costs one branch per call.
  SpanLog(bool on, size_t expected_spans) : on_(on) {
    if (on_) spans_.reserve(expected_spans);
  }

  bool on() const { return on_; }

  int32_t Open(const char* name, int32_t parent, int64_t arg = -1) {
    if (!on_) return -1;
    spans_.push_back(Span{name, NowNs(), 0, parent, arg});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  void Close(int32_t index) {
    if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = NowNs();
  }

  template <class Fn>
  void Time(const char* name, int32_t parent, int64_t arg, Fn&& fn) {
    const int32_t index = Open(name, parent, arg);
    fn();
    Close(index);
  }

  /// Summed duration of every span called `name`, in seconds.
  double TotalSeconds(std::string_view name) const {
    int64_t ns = 0;
    for (const Span& s : spans_) {
      if (name == s.name) ns += s.end_ns - s.start_ns;
    }
    return static_cast<double>(ns) / 1e9;
  }

  /// Self time per layer, in seconds, over the spans that start inside
  /// [from_ns, to_ns). The interval's time outside every span is charged
  /// to "driver", so the layers sum to the interval's length.
  std::map<std::string, double> LayerSelfSeconds(int64_t from_ns,
                                                  int64_t to_ns) const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, double> self;
    int64_t covered = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.start_ns < from_ns || s.start_ns >= to_ns) continue;
      const int64_t ns = s.end_ns - s.start_ns - child_ns[i];
      self[std::string(LayerOf(s.name))] += static_cast<double>(ns) / 1e9;
      covered += ns;
    }
    self["driver"] +=
        static_cast<double>((to_ns - from_ns) - covered) / 1e9;
    return self;
  }

  /// Writes the spans as Chrome trace-event JSON (loads in Perfetto and
  /// chrome://tracing): one complete event per span, nested by time on a
  /// single track, with the span's layer as its category.
  bool WriteChromeTrace(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string layer(LayerOf(s.name));
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%zu,\"parent\":%d,\"index\":%lld}}\n",
                   i == 0 ? "" : ",", s.name, layer.c_str(),
                   static_cast<double>(s.start_ns - t0) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent, static_cast<long long>(s.arg));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool on_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
