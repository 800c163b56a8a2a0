#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/messages.h"
#include "stats/histogram.h"
#include "stats/trace.h"
#include "workload/experiment.h"
#include "workload/generator.h"

namespace rjoin {
namespace {

using stats::LogHistogram;
using stats::TraceCategory;
using stats::TraceEvent;
using stats::Tracer;

// ------------------------------------------------------------ LogHistogram

TEST(LogHistogramTest, EmptyReportsZeros) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Percentile(50), 0u);
  EXPECT_EQ(h.Percentile(99), 0u);
}

TEST(LogHistogramTest, SmallValuesAreExact) {
  // Values below 2^kSubBits each get their own bucket, so the reported
  // percentile (the bucket lower bound) is the value itself.
  LogHistogram h;
  for (uint64_t v = 0; v < LogHistogram::kSubBuckets; ++v) h.Record(v);
  EXPECT_EQ(h.count(), LogHistogram::kSubBuckets);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 15u);
  EXPECT_EQ(h.Percentile(100), 15u);
  EXPECT_EQ(h.Percentile(0), 0u);  // rank clamps to the first sample
}

TEST(LogHistogramTest, BucketBoundsAreConsistent) {
  // The bucket lower bound never exceeds the value, and relative bucket
  // error is bounded by 1/2^kSubBits.
  for (uint64_t v :
       {uint64_t{0}, uint64_t{1}, uint64_t{15}, uint64_t{16}, uint64_t{17},
        uint64_t{31}, uint64_t{32}, uint64_t{1000}, uint64_t{1} << 20,
        (uint64_t{1} << 20) + 12345, uint64_t{1} << 40,
        ~uint64_t{0} >> 1, ~uint64_t{0}}) {
    const uint32_t idx = LogHistogram::BucketIndex(v);
    ASSERT_LT(idx, LogHistogram::kBuckets) << "v=" << v;
    const uint64_t lo = LogHistogram::BucketLowerBound(idx);
    EXPECT_LE(lo, v) << "v=" << v;
    if (v >= LogHistogram::kSubBuckets) {
      // Width of the bucket at v is lo / kSubBuckets.
      EXPECT_LE(static_cast<double>(v - lo),
                static_cast<double>(lo) / LogHistogram::kSubBuckets)
          << "v=" << v;
    } else {
      EXPECT_EQ(lo, v);
    }
    // Bucket indices are monotone in the value.
    if (v > 0) EXPECT_GE(idx, LogHistogram::BucketIndex(v - 1));
  }
}

TEST(LogHistogramTest, PercentileFindsMedian) {
  LogHistogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v);
  // Rank 50 is value 50; bucket lower bound of 50 is 48 ([48,52) bucket).
  EXPECT_EQ(h.Percentile(50),
            LogHistogram::BucketLowerBound(LogHistogram::BucketIndex(50)));
  EXPECT_EQ(h.Percentile(100),
            LogHistogram::BucketLowerBound(LogHistogram::BucketIndex(100)));
}

TEST(LogHistogramTest, MergeMatchesCombinedRecording) {
  LogHistogram a, b, combined;
  for (uint64_t v = 0; v < 500; v += 3) {
    a.Record(v);
    combined.Record(v);
  }
  for (uint64_t v = 1; v < 800; v += 7) {
    b.Record(v * v);
    combined.Record(v * v);
  }
  a.MergeFrom(b);
  EXPECT_TRUE(a.CountsEqual(combined));
  EXPECT_EQ(a.sum(), combined.sum());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  for (double p : {1.0, 25.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(a.Percentile(p), combined.Percentile(p)) << "p=" << p;
  }
}

TEST(LogHistogramTest, MergeFromEmptyKeepsState) {
  LogHistogram a, empty;
  a.Record(5);
  a.MergeFrom(empty);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 5u);
}

TEST(LogHistogramTest, DiffFromIsolatesNewSamples) {
  LogHistogram h;
  h.Record(10);
  h.Record(20);
  const LogHistogram base = h;
  h.Record(30);
  h.Record(40);
  const LogHistogram delta = h.DiffFrom(base);
  EXPECT_EQ(delta.count(), 2u);
  EXPECT_EQ(delta.sum(), 70u);
  EXPECT_EQ(delta.Percentile(100),
            LogHistogram::BucketLowerBound(LogHistogram::BucketIndex(40)));
}

// ----------------------------------------------------- trace determinism

// Small experiment that still exercises routing, rewrites, answers, and
// (optionally) churn, and fits comfortably in the default ring.
workload::ExperimentConfig SmallConfig(bool churn) {
  workload::ExperimentConfig cfg;
  cfg.num_nodes = 48;
  cfg.num_queries = 150;
  cfg.num_tuples = 30;
  cfg.way = 3;
  cfg.workload.num_relations = 6;
  cfg.workload.num_attributes = 6;
  cfg.workload.num_values = 40;
  cfg.workload.zipf_theta = 0.9;
  cfg.seed = 7;
  if (churn) {
    workload::ChurnSpec spec;
    spec.joins = 2;
    spec.leaves = 2;
    spec.spare_nodes = 5;
    spec.seed = 11;
    workload::FaultPlan faults;
    faults.crashes = 2;
    spec.faults = faults;
    cfg.churn = spec;
    cfg.replication = 2;  // crashes promote replica slices
  }
  return cfg;
}

struct TraceRun {
  std::vector<TraceEvent> events;
  Tracer::HistogramSet hist;
  uint64_t answers = 0;
  uint64_t crashes_applied = 0;
  uint64_t promotions_emitted = 0;
  std::string chrome;  // the rendered Chrome trace JSON
};

/// Occurrences of events named `name` in a rendered Chrome trace.
size_t CountNamed(const std::string& chrome, const std::string& name) {
  const std::string needle = "{\"name\":\"" + name + "\"";
  size_t n = 0;
  for (size_t at = chrome.find(needle); at != std::string::npos;
       at = chrome.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

TraceRun RunTraced(bool churn) {
  Tracer::Global().set_enabled(true);
  Tracer::Global().Reset();
  TraceRun out;
  {
    workload::Experiment exp(SmallConfig(churn));
    const workload::ExperimentResult result = exp.Run();
    out.answers = result.answers_delivered;
    out.crashes_applied = exp.engine().churn_stats().crashes_applied;
    out.promotions_emitted =
        exp.engine().replication_stats().promotions_emitted;
  }
  EXPECT_EQ(Tracer::Global().DroppedEvents(), 0u);
  std::ostringstream chrome;
  Tracer::Global().WriteChromeTrace(chrome);
  out.chrome = chrome.str();
  out.events = Tracer::Global().MergedEvents();
  out.hist = Tracer::Global().AggregateHistograms();
  Tracer::Global().Reset();
  Tracer::Global().set_enabled(false);
  return out;
}

// The deterministic payload of an event: everything except wall_ns.
auto Signature(const TraceEvent& e) {
  return std::make_tuple(e.key_time, e.key_src, e.key_seq,
                         static_cast<uint32_t>(e.cat), e.kind, e.node, e.peer,
                         e.arg, e.vtime);
}

void ExpectSameTrace(const TraceRun& a, const TraceRun& b,
                     const std::string& label) {
  EXPECT_EQ(a.answers, b.answers) << label;
  ASSERT_EQ(a.events.size(), b.events.size()) << label;
  for (size_t i = 0; i < a.events.size(); ++i) {
    ASSERT_EQ(Signature(a.events[i]), Signature(b.events[i]))
        << label << ": merged event " << i << " diverges ("
        << stats::TraceCategoryName(a.events[i].cat) << " vs "
        << stats::TraceCategoryName(b.events[i].cat) << ")";
  }
  EXPECT_TRUE(a.hist.answer_latency.CountsEqual(b.hist.answer_latency))
      << label;
  EXPECT_TRUE(a.hist.rewrite_depth.CountsEqual(b.hist.rewrite_depth))
      << label;
  EXPECT_TRUE(a.hist.route_hops.CountsEqual(b.hist.route_hops)) << label;
  for (double p : {50.0, 95.0, 99.0}) {
    EXPECT_EQ(a.hist.answer_latency.Percentile(p),
              b.hist.answer_latency.Percentile(p))
        << label << " p" << p;
  }
}

// A run's merged trace is a function of its configuration: a second run
// reproduces every record but the wall clock.
TEST(TraceDeterminismTest, MergedTraceIdenticalAcrossShardCounts) {
  const TraceRun s1 = RunTraced(/*churn=*/false);
  ASSERT_FALSE(s1.events.empty());
  EXPECT_GT(s1.answers, 0u);
  EXPECT_GT(s1.hist.answer_latency.count(), 0u);
  EXPECT_GT(s1.hist.route_hops.count(), 0u);
  EXPECT_GT(s1.hist.rewrite_depth.count(), 0u);
  ExpectSameTrace(s1, RunTraced(/*churn=*/false), "second run");
}

TEST(TraceDeterminismTest, MergedTraceIdenticalAcrossShardCountsUnderChurn) {
  const TraceRun s1 = RunTraced(/*churn=*/true);
  ASSERT_FALSE(s1.events.empty());
  bool saw_churn = false;
  for (const TraceEvent& e : s1.events) {
    if (e.cat == TraceCategory::kChurn) saw_churn = true;
  }
  EXPECT_TRUE(saw_churn) << "churn config produced no churn trace events";
  // Every topology change renders under its own label: a crash is not a
  // join, and each promotion it triggers is an event of its own.
  EXPECT_GT(s1.crashes_applied, 0u);
  EXPECT_GT(s1.promotions_emitted, 0u);
  EXPECT_EQ(CountNamed(s1.chrome, "churn:crash"), s1.crashes_applied);
  EXPECT_EQ(CountNamed(s1.chrome, "churn:promote"), s1.promotions_emitted);
  EXPECT_GT(CountNamed(s1.chrome, "churn:join"), 0u);
  EXPECT_GT(CountNamed(s1.chrome, "churn:leave"), 0u);
  const TraceRun again = RunTraced(/*churn=*/true);
  ExpectSameTrace(s1, again, "churn, second run");
  EXPECT_EQ(again.crashes_applied, s1.crashes_applied);
  EXPECT_EQ(again.promotions_emitted, s1.promotions_emitted);
}

// The simulator stamps each event's sender into the trace context, and
// the transport records it as the peer of each delivery. Every envelope
// must therefore name its sender: a send, a coalesced fan-out group, a
// direct hop or a scheduled churn notice.
TEST(TraceDeterminismTest, SerialTraceNamesEverySender) {
  const TraceRun run = RunTraced(/*churn=*/true);
  size_t delivers = 0;
  size_t anonymous_peers = 0;
  size_t anonymous_contexts = 0;
  for (const TraceEvent& e : run.events) {
    if (e.key_src == dht::kInvalidNode) ++anonymous_contexts;
    if (e.cat != TraceCategory::kDeliver) continue;
    ++delivers;
    if (e.peer == dht::kInvalidNode) ++anonymous_peers;
  }
  EXPECT_GT(delivers, 0u);
  EXPECT_GT(run.crashes_applied, 0u);  // churn notices were scheduled too
  EXPECT_EQ(anonymous_peers, 0u) << "of " << delivers << " deliveries";
  EXPECT_EQ(anonymous_contexts, 0u) << "of " << run.events.size()
                                    << " records";
}

// A driver-phase send carries the driver's clock: the simulator routes a
// publication inline under the driver context (now, 0, 0) it sets as
// Run/RunUntil return. RunUntil moves the clock past the last event, so a
// publication recorded under the last event's context would show an
// earlier time than the one it was published at.
TEST(TraceDeterminismTest, SerialPublicationsCarryTheDriverClock) {
  Tracer::Global().set_enabled(true);
  Tracer::Global().Reset();
  std::vector<uint64_t> published_at;
  {
    workload::Experiment exp(SmallConfig(/*churn=*/false));
    workload::TupleGenerator tuples(exp.config().workload, &exp.catalog(), 3);
    workload::TupleGenerator::Draw draw;
    for (int i = 0; i < 8; ++i) {
      exp.RunUntilTime(exp.NowTime() + 100);
      published_at.push_back(exp.NowTime());
      tuples.Next(&draw);
      ASSERT_TRUE(
          exp.engine().PublishTuple(0, draw.relation, draw.values).ok());
      exp.RunToQuiescence();
    }
  }
  std::vector<uint64_t> routed_at;
  for (const TraceEvent& e : Tracer::Global().MergedEvents()) {
    if (e.cat != TraceCategory::kRoute ||
        e.kind != static_cast<uint8_t>(core::MessageKind::kTuplePublish)) {
      continue;
    }
    EXPECT_EQ(e.key_src, 0u);
    EXPECT_EQ(e.key_seq, 0u);
    routed_at.push_back(e.vtime);
  }
  Tracer::Global().Reset();
  Tracer::Global().set_enabled(false);
  routed_at.erase(std::unique(routed_at.begin(), routed_at.end()),
                  routed_at.end());
  EXPECT_EQ(routed_at, published_at);
}

TEST(TraceDeterminismTest, DisabledTracerStillFeedsHistograms) {
  Tracer::Global().set_enabled(false);
  Tracer::Global().Reset();
  {
    workload::Experiment exp(SmallConfig(/*churn=*/false));
    exp.Run();
  }
  EXPECT_TRUE(Tracer::Global().MergedEvents().empty());
  const Tracer::HistogramSet hist = Tracer::Global().AggregateHistograms();
  EXPECT_GT(hist.answer_latency.count(), 0u);
  EXPECT_GT(hist.route_hops.count(), 0u);
  Tracer::Global().Reset();
}

TEST(TraceExportTest, ChromeTraceCarriesAllCategories) {
  Tracer::Global().set_enabled(true);
  Tracer::Global().Reset();
  {
    workload::Experiment exp(SmallConfig(/*churn=*/true));
    exp.Run();
  }
  std::ostringstream os;
  Tracer::Global().WriteChromeTrace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Every category the small churny run must produce.
  for (const char* name :
       {"send", "route", "deliver", "rewrite", "answer", "churn"}) {
    EXPECT_NE(json.find(std::string("\"cat\":\"") + name + "\""),
              std::string::npos)
        << "missing category " << name;
  }
  // Balanced braces/brackets as a cheap well-formedness check (strings in
  // the trace never contain braces).
  int depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  Tracer::Global().Reset();
  Tracer::Global().set_enabled(false);
}

}  // namespace
}  // namespace rjoin
