#include "bench/bench_common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <optional>
#include <sstream>
#include <thread>

#include <sys/resource.h>

#include "core/interner.h"
#include "core/messages.h"
#include "core/planner.h"
#include "dht/route_cache.h"
#include "dht/transport.h"
#include "util/logging.h"

namespace rjoin::bench {

workload::ExperimentConfig PaperBaseConfig(uint64_t seed) {
  workload::ExperimentConfig cfg;
  cfg.num_nodes = 1000;
  cfg.num_queries = 20000;
  cfg.num_tuples = 400;
  cfg.way = 4;
  cfg.workload.num_relations = 10;
  cfg.workload.num_attributes = 10;
  cfg.workload.num_values = 100;
  cfg.workload.zipf_theta = 0.9;
  cfg.policy = core::PlannerPolicy::kRic;
  cfg.seed = seed;
  cfg.ApplyScale(AppliedScale());
  return cfg;
}

double AppliedScale() { return workload::ScaleFromEnv(0.25); }

size_t ScaledCount(size_t paper_count) {
  return std::max<size_t>(
      10, static_cast<size_t>(static_cast<double>(paper_count) *
                              AppliedScale()));
}

std::vector<size_t> ScaledCounts(std::vector<size_t> paper_counts) {
  for (auto& c : paper_counts) c = ScaledCount(c);
  return paper_counts;
}

void PrintHeader(const std::string& figure,
                 const workload::ExperimentConfig& cfg) {
  std::cout << "#### " << figure << " ####\n"
            << "# nodes=" << cfg.num_nodes << " queries=" << cfg.num_queries
            << " tuples=" << cfg.num_tuples << " way=" << cfg.way
            << " theta=" << cfg.workload.zipf_theta
            << " scale=" << AppliedScale()
            << " (RJOIN_SCALE=paper for full size)\n";
}

uint64_t SumLoads(const std::vector<uint64_t>& loads) {
  return std::accumulate(loads.begin(), loads.end(), uint64_t{0});
}

double PerNode(const std::vector<uint64_t>& loads) {
  if (loads.empty()) return 0.0;
  return static_cast<double>(SumLoads(loads)) /
         static_cast<double>(loads.size());
}

stats::RankedDistribution Ranked(const std::vector<uint64_t>& loads) {
  return stats::MakeRanked(loads);
}

std::string BenchOutDir() {
  std::string dir = ".";
  if (const char* env = std::getenv("RJOIN_BENCH_OUT");
      env != nullptr && *env != '\0') {
    dir = env;
  }
  // Create the directory if missing; fail loudly rather than let ofstream
  // silently drop every BENCH_*.json of the run.
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  RJOIN_CHECK(!ec && std::filesystem::is_directory(dir))
      << "RJOIN_BENCH_OUT=" << dir
      << " does not exist and could not be created: " << ec.message();
  return dir;
}

namespace {

void AppendJsonString(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void AppendJsonNumber(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";  // JSON has no NaN/Inf.
    return;
  }
  std::ostringstream tmp;
  tmp.precision(12);
  tmp << v;
  os << tmp.str();
}

const char* PolicyName(core::PlannerPolicy p) {
  switch (p) {
    case core::PlannerPolicy::kFirstInClause:
      return "first_in_clause";
    case core::PlannerPolicy::kRandom:
      return "random";
    case core::PlannerPolicy::kWorst:
      return "worst";
    case core::PlannerPolicy::kRic:
      return "ric";
  }
  return "unknown";
}

const char* RewriteLevelsName(core::RewriteIndexLevels l) {
  return l == core::RewriteIndexLevels::kValuePreferred ? "value_preferred"
                                                        : "include_attribute";
}

// The commit the bench binary ran against: $RJOIN_GIT_SHA when the caller
// (CI) pins it, else `git rev-parse HEAD` from the working directory,
// "unknown" outside a checkout. Provenance only — never fails the bench.
std::string GitSha() {
  if (const char* env = std::getenv("RJOIN_GIT_SHA");
      env != nullptr && *env != '\0') {
    return env;
  }
  std::string sha;
  if (FILE* p = popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[128];
    if (std::fgets(buf, sizeof(buf), p) != nullptr) sha.assign(buf);
    pclose(p);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  if (sha.size() != 40 ||
      sha.find_first_not_of("0123456789abcdef") != std::string::npos) {
    return "unknown";
  }
  return sha;
}

const char* BuildType() {
#ifdef RJOIN_BUILD_TYPE
  return RJOIN_BUILD_TYPE;
#else
  return "unknown";
#endif
}

}  // namespace

JsonReporter::JsonReporter(std::string figure, std::string title,
                           const workload::ExperimentConfig& cfg)
    : figure_(std::move(figure)),
      title_(std::move(title)),
      config_(cfg),
      start_(std::chrono::steady_clock::now()) {
  const core::MessagePool::GlobalStats pool = core::MessagePool::Aggregate();
  base_envelope_allocs_ = pool.envelopes_allocated;
  base_messages_ = pool.acquired;
  const core::KeyInterner::Stats interner =
      core::KeyInterner::Global().stats();
  base_interner_hits_ = interner.hits;
  base_interner_misses_ = interner.misses;
  const dht::RouteCache::Stats cache = dht::RouteCache::Aggregate();
  base_route_cache_hits_ = cache.hits;
  base_route_cache_misses_ = cache.misses;
  const dht::Transport::CoalesceStats coalesce =
      dht::Transport::AggregateCoalesce();
  base_coalesce_groups_ = coalesce.groups;
  base_coalesce_payloads_ = coalesce.payloads;
  base_hist_ = stats::Tracer::Global().AggregateHistograms();
  base_allocs_ = stats::ReadAllocCounts();
}

stats::MessagePlaneSummary JsonReporter::PlaneDelta() const {
  stats::MessagePlaneSummary s;
  const core::MessagePool::GlobalStats pool = core::MessagePool::Aggregate();
  s.messages = pool.acquired - base_messages_;
  s.envelope_allocs = pool.envelopes_allocated - base_envelope_allocs_;
  s.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  const core::KeyInterner::Stats interner =
      core::KeyInterner::Global().stats();
  s.interned_keys = interner.entries;  // absolute: the dictionary is global
  s.interner_hits = interner.hits - base_interner_hits_;
  s.interner_misses = interner.misses - base_interner_misses_;
  const dht::RouteCache::Stats cache = dht::RouteCache::Aggregate();
  s.route_cache_hits = cache.hits - base_route_cache_hits_;
  s.route_cache_misses = cache.misses - base_route_cache_misses_;
  const dht::Transport::CoalesceStats coalesce =
      dht::Transport::AggregateCoalesce();
  s.coalesce_groups = coalesce.groups - base_coalesce_groups_;
  s.coalesce_payloads = coalesce.payloads - base_coalesce_payloads_;
  const stats::Tracer::HistogramSet hist =
      stats::Tracer::Global().AggregateHistograms();
  const stats::LogHistogram latency =
      hist.answer_latency.DiffFrom(base_hist_.answer_latency);
  s.answers = latency.count();
  s.answer_latency_p50 = latency.Percentile(50);
  s.answer_latency_p95 = latency.Percentile(95);
  s.answer_latency_p99 = latency.Percentile(99);
  const stats::LogHistogram depth =
      hist.queue_depth.DiffFrom(base_hist_.queue_depth);
  s.queue_depth_p99 = depth.Percentile(99);
  const stats::AllocCounts allocs = stats::ReadAllocCounts();
  s.alloc_tuple = allocs.tuple() - base_allocs_.tuple();
  s.alloc_residual = allocs.residual() - base_allocs_.residual();
  s.alloc_message = allocs.message() - base_allocs_.message();
  s.alloc_other = allocs.other() - base_allocs_.other();
  s.alloc_pool_capacity =
      allocs.pool_capacity() - base_allocs_.pool_capacity();
  return s;
}

void JsonReporter::AddChart(const std::string& title,
                            const std::string& x_label,
                            std::vector<double> xs,
                            std::vector<stats::Series> series) {
  charts_.push_back(Chart{title, x_label, std::move(xs), std::move(series)});
}

void JsonReporter::AddChart(const stats::TableReporter& table) {
  AddChart(table.title(), table.x_label(), table.xs(), table.series());
}

void JsonReporter::AddRankedChart(
    const std::string& title, const std::vector<std::string>& labels,
    const std::vector<stats::RankedDistribution>& dists,
    size_t sample_points) {
  // Same rank grid PrintRankedFigure uses.
  size_t max_nodes = 0;
  for (const auto& d : dists) {
    max_nodes = std::max(max_nodes, d.sorted_desc.size());
  }
  Chart chart;
  chart.title = title;
  chart.x_label = "rank";
  for (size_t rank : stats::SampleRankGrid(max_nodes, sample_points)) {
    chart.xs.push_back(static_cast<double>(rank));
  }
  for (size_t d = 0; d < dists.size(); ++d) {
    stats::Series s{d < labels.size() ? labels[d] : "series" + std::to_string(d),
                    {}};
    for (double rank : chart.xs) {
      s.values.push_back(static_cast<double>(
          dists[d].at_rank(static_cast<size_t>(rank))));
    }
    chart.series.push_back(std::move(s));
  }
  charts_.push_back(std::move(chart));
}

void JsonReporter::AddScalar(const std::string& name, double value) {
  for (auto& [existing, existing_value] : scalars_) {
    if (existing == name) {
      existing_value = value;
      return;
    }
  }
  scalars_.emplace_back(name, value);
}

void JsonReporter::PrintMessagePlane(std::ostream& os) const {
  stats::PrintMessagePlaneSummary(os, PlaneDelta());
}

void JsonReporter::SetSteadyStateAllocs(const stats::AllocCounts& begin,
                                        const stats::AllocCounts& end,
                                        uint64_t window_tuples) {
  if (window_tuples == 0) return;
  for (int i = 0; i < stats::kNumAllocPlanes; ++i) {
    steady_allocs_delta_.counts[i] = end.counts[i] - begin.counts[i];
  }
  steady_allocs_tuples_ = window_tuples;
}

void JsonReporter::SetSteadyStateRouteCache(const dht::RouteCache::Stats& begin,
                                            const dht::RouteCache::Stats& end) {
  steady_route_cache_delta_.hits = end.hits - begin.hits;
  steady_route_cache_delta_.misses = end.misses - begin.misses;
}

std::string JsonReporter::Write() const {
  const std::string path = BenchOutDir() + "/BENCH_" + figure_ + ".json";

  std::ostringstream os;
  os << "{\n  \"figure\": ";
  AppendJsonString(os, figure_);
  os << ",\n  \"title\": ";
  AppendJsonString(os, title_);
  os << ",\n  \"scale\": ";
  AppendJsonNumber(os, AppliedScale());
  os << ",\n  \"config\": {"
     << "\"num_nodes\": " << config_.num_nodes
     << ", \"num_queries\": " << config_.num_queries
     << ", \"num_tuples\": " << config_.num_tuples
     << ", \"way\": " << config_.way
     << ", \"zipf_theta\": ";
  AppendJsonNumber(os, config_.workload.zipf_theta);
  os << ", \"num_relations\": " << config_.workload.num_relations
     << ", \"num_attributes\": " << config_.workload.num_attributes
     << ", \"num_values\": " << config_.workload.num_values
     << ", \"policy\": ";
  AppendJsonString(os, PolicyName(config_.policy));
  os << ", \"rewrite_levels\": ";
  AppendJsonString(os, RewriteLevelsName(config_.rewrite_levels));
  os << ", \"charge_ric\": " << (config_.charge_ric ? "true" : "false")
     << ", \"reuse_ric_info\": " << (config_.reuse_ric_info ? "true" : "false")
     << ", \"attr_replication\": " << config_.attr_replication
     << ", \"seed\": " << config_.seed << "}";

  // Provenance: which commit/build/knobs produced the file, so a BENCH_*.json
  // pulled from a CI artifact is self-describing (the trajectory README's
  // caveats stop depending on humans remembering the run setup).
  const std::optional<workload::ChurnSpec> churn =
      workload::ResolveChurnSpec(config_);
  os << ",\n  \"provenance\": {\"git_sha\": ";
  AppendJsonString(os, GitSha());
  os << ", \"build_type\": ";
  AppendJsonString(os, BuildType());
  os << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
     << ", \"rjoin_churn\": ";
  AppendJsonNumber(os, churn ? churn->rate : 0.0);
  os << ", \"rjoin_trace\": "
     << (stats::Tracer::Global().enabled() ? 1 : 0)
     << ", \"rjoin_scale\": ";
  AppendJsonNumber(os, AppliedScale());
  os << "}";

  // Measured runtime of the whole figure (construction to Write): the bench
  // trajectory tracks real speedups, not just virtual message counts.
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  os << ",\n  \"scalars\": {";
  os << "\"wall_seconds\": ";
  AppendJsonNumber(os, wall_seconds);
  os << ", \"tuples_processed\": ";
  AppendJsonNumber(os, static_cast<double>(tuples_processed_));
  os << ", \"tuples_per_sec\": ";
  AppendJsonNumber(os, wall_seconds > 0.0
                           ? static_cast<double>(tuples_processed_) /
                                 wall_seconds
                           : 0.0);
  // Peak resident set of the whole bench process so far (getrusage), in
  // MiB: the memory figure beside the wall-clock ones.
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  os << ", \"peak_rss_mb\": ";
  AppendJsonNumber(os, static_cast<double>(usage.ru_maxrss) / 1024.0);
  // Message-plane scalars: every delivered message is one pooled-envelope
  // acquire, and envelope allocations only happen while the in-flight
  // high-water mark still grows. "allocs_per_tuple" is the data-plane heap
  // allocation count (tuple + residual + message planes, alloc_tracker.h)
  // per streamed tuple — the zero-alloc rewrite hot path targets <= 1; the
  // per-plane breakdown makes a regression locatable. Capacity growth of
  // amortized structures (slab doubling, table rehashes) is charged to the
  // pool-capacity plane and reported as its own scalar: it is O(log n) per
  // structure by construction, so folding it into the per-record headline
  // would just measure how many structures doubled inside the window, not
  // whether a record started costing heap again. When the figure
  // marked a steady-state window (SetSteadyStateAllocs), the per-plane
  // scalars cover that window and the whole-run average survives as
  // allocs_per_tuple_lifetime; otherwise they cover the whole run. The old
  // envelope-only metric survives as envelope_allocs_per_tuple. The
  // interner scalars track the key-id plane: hit rate near one means
  // steady-state key construction neither allocates nor hashes beyond the
  // dictionary probe.
  const stats::MessagePlaneSummary plane = PlaneDelta();
  const double messages = static_cast<double>(plane.messages);
  const double envelope_allocs = static_cast<double>(plane.envelope_allocs);
  const double tuples = static_cast<double>(tuples_processed_);
  auto per_tuple = [&](uint64_t count) {
    return tuples_processed_ > 0 ? static_cast<double>(count) / tuples : 0.0;
  };
  const bool steady = steady_allocs_tuples_ > 0;
  auto alloc_per_tuple = [&](uint64_t window_count, uint64_t run_count) {
    if (steady) {
      return static_cast<double>(window_count) /
             static_cast<double>(steady_allocs_tuples_);
    }
    return per_tuple(run_count);
  };
  const uint64_t run_data_plane =
      plane.alloc_tuple + plane.alloc_residual + plane.alloc_message;
  os << ", \"messages_per_sec\": ";
  AppendJsonNumber(os, wall_seconds > 0.0 ? messages / wall_seconds : 0.0);
  os << ", \"allocs_per_tuple\": ";
  AppendJsonNumber(os, alloc_per_tuple(steady_allocs_delta_.data_plane(),
                                       run_data_plane));
  os << ", \"allocs_per_tuple_tuple\": ";
  AppendJsonNumber(
      os, alloc_per_tuple(steady_allocs_delta_.tuple(), plane.alloc_tuple));
  os << ", \"allocs_per_tuple_residual\": ";
  AppendJsonNumber(os, alloc_per_tuple(steady_allocs_delta_.residual(),
                                       plane.alloc_residual));
  os << ", \"allocs_per_tuple_message\": ";
  AppendJsonNumber(os, alloc_per_tuple(steady_allocs_delta_.message(),
                                       plane.alloc_message));
  os << ", \"allocs_per_tuple_other\": ";
  AppendJsonNumber(
      os, alloc_per_tuple(steady_allocs_delta_.other(), plane.alloc_other));
  os << ", \"allocs_per_tuple_pool_capacity\": ";
  AppendJsonNumber(os, alloc_per_tuple(steady_allocs_delta_.pool_capacity(),
                                       plane.alloc_pool_capacity));
  os << ", \"allocs_per_tuple_lifetime\": ";
  AppendJsonNumber(os, per_tuple(run_data_plane));
  if (steady) {
    os << ", \"alloc_steady_window_tuples\": ";
    AppendJsonNumber(os, static_cast<double>(steady_allocs_tuples_));
  }
  os << ", \"envelope_allocs_per_tuple\": ";
  AppendJsonNumber(os, tuples_processed_ > 0 ? envelope_allocs / tuples
                                             : 0.0);
  const double interns =
      static_cast<double>(plane.interner_hits + plane.interner_misses);
  os << ", \"interned_keys\": ";
  AppendJsonNumber(os, static_cast<double>(plane.interned_keys));
  os << ", \"interner_hit_rate\": ";
  AppendJsonNumber(
      os, interns > 0.0 ? static_cast<double>(plane.interner_hits) / interns
                        : 0.0);
  // Routing-plane scalars (docs/routing.md): route_cache_hit_rate near one
  // means steady-state sends resolve their Chord path from the per-node
  // cache instead of the O(log N) finger walk; coalesced_fanout_width is
  // the mean payload count per MultiSendKeys wire message (the publication
  // fan-out's 2k index messages collapse toward the distinct-destination
  // count); event_queue_depth_p99 tracks the pending-event backlog the
  // calendar queues absorb at O(1) per push/pop.
  const double resolves = static_cast<double>(plane.route_cache_hits +
                                              plane.route_cache_misses);
  const double lifetime_rate =
      resolves > 0.0 ? static_cast<double>(plane.route_cache_hits) / resolves
                     : 0.0;
  // Like allocs_per_tuple, the headline hit rate prefers the steady-state
  // checkpoint window when the bench marked one: every key's first route is
  // a structural miss, so the lifetime rate under-reports what warm
  // operation actually pays.
  const uint64_t steady_resolves =
      steady_route_cache_delta_.hits + steady_route_cache_delta_.misses;
  os << ", \"route_cache_hit_rate\": ";
  AppendJsonNumber(os, steady_resolves > 0
                           ? steady_route_cache_delta_.hit_rate()
                           : lifetime_rate);
  os << ", \"route_cache_hit_rate_lifetime\": ";
  AppendJsonNumber(os, lifetime_rate);
  os << ", \"route_cache_resolves\": ";
  AppendJsonNumber(os, resolves);
  os << ", \"coalesced_fanout_width\": ";
  AppendJsonNumber(os, plane.coalesce_groups > 0
                           ? static_cast<double>(plane.coalesce_payloads) /
                                 static_cast<double>(plane.coalesce_groups)
                           : 0.0);
  os << ", \"coalesced_groups\": ";
  AppendJsonNumber(os, static_cast<double>(plane.coalesce_groups));
  os << ", \"event_queue_depth_p99\": ";
  AppendJsonNumber(os, static_cast<double>(plane.queue_depth_p99));
  os << ", \"hardware_threads\": ";
  AppendJsonNumber(os,
                   static_cast<double>(std::thread::hardware_concurrency()));
  // Observability scalars (docs/observability.md): end-to-end answer latency
  // and routing/rewrite percentiles in virtual ticks/hops (deterministic).
  const stats::Tracer::HistogramSet hist =
      stats::Tracer::Global().AggregateHistograms();
  const stats::LogHistogram route =
      hist.route_hops.DiffFrom(base_hist_.route_hops);
  const stats::LogHistogram rewrite =
      hist.rewrite_depth.DiffFrom(base_hist_.rewrite_depth);
  os << ", \"answers\": ";
  AppendJsonNumber(os, static_cast<double>(plane.answers));
  os << ", \"answer_latency_p50\": ";
  AppendJsonNumber(os, static_cast<double>(plane.answer_latency_p50));
  os << ", \"answer_latency_p95\": ";
  AppendJsonNumber(os, static_cast<double>(plane.answer_latency_p95));
  os << ", \"answer_latency_p99\": ";
  AppendJsonNumber(os, static_cast<double>(plane.answer_latency_p99));
  os << ", \"route_hops_p50\": ";
  AppendJsonNumber(os, static_cast<double>(route.Percentile(50)));
  os << ", \"route_hops_p99\": ";
  AppendJsonNumber(os, static_cast<double>(route.Percentile(99)));
  os << ", \"rewrite_depth_p99\": ";
  AppendJsonNumber(os, static_cast<double>(rewrite.Percentile(99)));
  os << ", \"trace_events\": ";
  AppendJsonNumber(os,
                   stats::Tracer::Global().enabled()
                       ? static_cast<double>(
                             stats::Tracer::Global().MergedEvents().size())
                       : 0.0);
  for (size_t i = 0; i < scalars_.size(); ++i) {
    os << ", ";
    AppendJsonString(os, scalars_[i].first);
    os << ": ";
    AppendJsonNumber(os, scalars_[i].second);
  }
  os << "}";

  os << ",\n  \"charts\": [";
  for (size_t c = 0; c < charts_.size(); ++c) {
    const Chart& chart = charts_[c];
    os << (c > 0 ? ",\n    {" : "\n    {") << "\"title\": ";
    AppendJsonString(os, chart.title);
    os << ", \"x_label\": ";
    AppendJsonString(os, chart.x_label);
    os << ",\n     \"x\": [";
    for (size_t i = 0; i < chart.xs.size(); ++i) {
      if (i > 0) os << ", ";
      AppendJsonNumber(os, chart.xs[i]);
    }
    os << "],\n     \"series\": [";
    for (size_t s = 0; s < chart.series.size(); ++s) {
      if (s > 0) os << ",\n                ";
      os << "{\"label\": ";
      AppendJsonString(os, chart.series[s].label);
      os << ", \"values\": [";
      for (size_t i = 0; i < chart.series[s].values.size(); ++i) {
        if (i > 0) os << ", ";
        AppendJsonNumber(os, chart.series[s].values[i]);
      }
      os << "]}";
    }
    os << "]}";
  }
  os << "\n  ]\n}\n";

  std::ofstream out(path);
  out << os.str();
  out.close();
  if (!out) {
    std::cerr << "failed to write " << path << "\n";
  } else {
    std::cout << "wrote " << path << "\n";
  }

  // With tracing on, drop the merged virtual-time timeline next to the bench
  // JSON — chrome://tracing and ui.perfetto.dev load it directly.
  if (stats::Tracer::Global().enabled()) {
    const std::string trace_path =
        BenchOutDir() + "/TRACE_" + figure_ + ".json";
    if (stats::Tracer::Global().WriteChromeTraceFile(trace_path)) {
      std::cout << "wrote " << trace_path << "\n";
    } else {
      std::cerr << "failed to write " << trace_path << "\n";
    }
  }
  return path;
}

}  // namespace rjoin::bench
