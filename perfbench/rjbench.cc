// The measuring program of the repository benchmark (see DESIGN.md).
//
// One invocation runs one workload:
//   rjbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//           [--provenance JSON]
// The run measures several instances of the workload, each with inputs
// drawn from its own sub-seed, and repeats each instance, every repetition
// in a freshly forked child, until S seconds have passed. Every repetition
// pays what a user's one-experiment process pays (first-sight key
// interning, pool growth, page faults). Each wall-clock metric takes, per
// instance, the fastest repetition of every piece of setup and stream: on
// a shared host the memory system, not the scheduler, makes single runs
// noisy, and the fastest of several identical repetitions is the steady
// statistic. The repetitions of an instance must agree on every exact
// count, or the run fails. A last child runs a shorter stream of instance 0
// and checks its answers against the centralized oracle.
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and the metrics (end-to-end with --trace 0, per-layer with --trace 1).
// A results file with every repetition's raw numbers goes to DIR.

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/engine.h"
#include "core/interner.h"
#include "core/messages.h"
#include "dht/route_cache.h"
#include "runtime/sharded_runtime.h"
#include "spans.h"
#include "sql/evaluator.h"
#include "stats/alloc_tracker.h"
#include "stats/trace.h"
#include "util/logging.h"
#include "util/random.h"
#include "workload/churn.h"
#include "workload/experiment.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using rjoin::core::RJoinEngine;
using rjoin::workload::ExperimentConfig;

// ------------------------------------------------------------ workloads

// All workloads: 4-way chain joins over the paper's schema (10 relations x
// 10 attributes x 100 values), Zipf theta = 0.9, RIC planning and
// value-preferred rewrite levels (kIncludeAttribute with a finite Delta
// loses answers by design; see core/planner.h).
constexpr int kWay = 4;
constexpr uint64_t kTupleGap = 16;  // virtual ticks between publications
constexpr size_t kSweepEvery = 32;  // window GC every this many tuples
constexpr size_t kWarmupObservations = 64;

struct Workload {
  const char* name;
  // Independent inputs per run, each drawn from its own sub-seed. The
  // work a stream of these joins does varies a lot from draw to draw
  // (hot values land in different columns), so a run measures several
  // draws and reports their aggregate.
  size_t instances;
  size_t nodes;
  size_t queries;
  size_t tuples;          // streamed by each timed repetition
  size_t verify_tuples;   // stream of the oracle-checked pass
  size_t oracle_queries;  // fixed sample of queries checked by the oracle
  uint64_t window;        // sliding WINDOW n TUPLES; 0 = no windows
  uint32_t replication;   // successor-list replication factor r
  uint32_t shards;        // ShardedRuntime workers, or kForceSerial
  bool pipelined;         // publications on a fixed virtual schedule
  bool churn;             // 8 joins, 8 leaves and 4 crashes per stream
};

constexpr uint32_t kSerial = ExperimentConfig::kForceSerial;

// Why each workload exists, and which layers it leaves idle, is recorded in
// BENCHMARK.json and DESIGN.md.
constexpr Workload kWorkloads[] = {
    {"answer_flood", 8, 250, 5000, 240, 100, 1000, 0, 1, kSerial, false,
     false},
    {"windowed_paper", 6, 1000, 20000, 250, 100, 1000, 64, 1, kSerial, true,
     false},
    {"replicated_churn", 6, 250, 2000, 600, 150, 500, 64, 2, kSerial, false,
     true},
    {"sharded_windowed", 6, 1000, 20000, 250, 100, 1000, 64, 1, 3, true,
     false},
};

// The seed of one instance of a run.
uint64_t InstanceSeed(uint64_t seed, size_t instance) {
  return seed * 1000 + instance;
}

rjoin::workload::WorkloadParams Params() {
  rjoin::workload::WorkloadParams p;
  p.num_relations = 10;
  p.num_attributes = 10;
  p.num_values = 100;
  p.zipf_theta = 0.9;
  return p;
}

rjoin::workload::ChurnSpec ChurnOf(const Workload& w) {
  rjoin::workload::ChurnSpec spec;  // no operations: a static ring
  if (w.churn) {
    spec.joins = 8;
    spec.leaves = 8;
    spec.spare_nodes = 8;
    rjoin::workload::FaultPlan faults;
    faults.crashes = 4;  // independent: correlated = 0
    spec.faults = faults;
  }
  return spec;
}

// Every field that falls back to an RJOIN_* variable is set explicitly.
ExperimentConfig ConfigOf(const Workload& w, uint64_t seed, size_t tuples) {
  ExperimentConfig cfg;
  cfg.num_nodes = w.nodes;
  cfg.num_queries = w.queries;
  cfg.num_tuples = tuples;
  cfg.way = kWay;
  cfg.workload = Params();
  cfg.policy = rjoin::core::PlannerPolicy::kRic;
  cfg.rewrite_levels = rjoin::core::RewriteIndexLevels::kValuePreferred;
  cfg.replication = w.replication;
  cfg.shards = w.shards;
  cfg.churn = ChurnOf(w);
  if (w.window > 0) {
    rjoin::sql::WindowSpec spec;
    spec.use_windows = true;
    spec.unit = rjoin::sql::WindowSpec::Unit::kTuples;
    spec.kind = rjoin::sql::WindowSpec::Kind::kSliding;
    spec.size = w.window;
    cfg.window = spec;
  }
  cfg.sweep_every = kSweepEvery;
  cfg.tuple_gap = kTupleGap;
  cfg.pipeline_stream = w.pipelined;
  cfg.warmup_observations = kWarmupObservations;
  cfg.seed = seed;
  return cfg;
}

// Everything a repetition feeds the program, generated before any timing.
struct Inputs {
  std::unique_ptr<rjoin::sql::Catalog> catalog;
  std::vector<rjoin::workload::TupleGenerator::Batch> warmup;
  std::vector<rjoin::dht::NodeIndex> owners;
  std::vector<rjoin::sql::Query> queries;
  std::vector<rjoin::dht::NodeIndex> publishers;
  std::vector<rjoin::workload::TupleGenerator::Draw> tuples;
  // Churn operations, timed relative to the start of the stream.
  std::vector<rjoin::workload::ChurnEvent> churn;
};

Inputs Generate(const Workload& w, uint64_t seed, size_t tuples) {
  const rjoin::workload::WorkloadParams params = Params();
  Inputs in;
  in.catalog = rjoin::workload::BuildCatalog(params);
  rjoin::workload::TupleGenerator warm(params, in.catalog.get(),
                                       seed * 29 + 11);
  warm.NextBatch(kWarmupObservations, &in.warmup);

  // Owners and publishers are participants: churn spares and joiners sit
  // at indices >= nodes and may depart.
  rjoin::Rng placement(seed ^ 0x9a9a9a);
  rjoin::workload::QueryGenerator qgen(params, in.catalog.get(),
                                       seed * 7 + 1);
  rjoin::sql::WindowSpec window;
  if (auto spec = ConfigOf(w, seed, tuples).window) window = *spec;
  for (size_t i = 0; i < w.queries; ++i) {
    in.owners.push_back(
        static_cast<rjoin::dht::NodeIndex>(placement.NextBounded(w.nodes)));
    in.queries.push_back(qgen.Next(kWay, window));
  }
  rjoin::workload::TupleGenerator tgen(params, in.catalog.get(),
                                       seed * 13 + 5);
  for (size_t i = 0; i < tuples; ++i) {
    in.publishers.push_back(
        static_cast<rjoin::dht::NodeIndex>(placement.NextBounded(w.nodes)));
    in.tuples.push_back(tgen.Next());
  }
  if (w.churn) {
    in.churn = rjoin::workload::GenerateChurnTrace(
        ChurnOf(w), tuples, 0, tuples * kTupleGap, seed * 77 + 3, nullptr,
        nullptr, nullptr);
  }
  return in;
}

// ---------------------------------------------------- one repetition

// Counts every repetition of an instance must reproduce bit for bit.
struct Exact {
  uint64_t answer_digest = 0;
  uint64_t answers = 0;
  uint64_t index_msgs = 0;
  uint64_t stream_msgs = 0;
  uint64_t stream_ric_msgs = 0;
  uint64_t stream_qpl = 0;
  uint64_t stored_queries = 0;
  uint64_t stored_tuples = 0;
  uint64_t envelopes = 0;
  uint64_t replica_updates = 0;
  uint64_t replica_bytes = 0;
  uint64_t handoff_records = 0;
  uint64_t promoted_records = 0;
  uint64_t forwarded_msgs = 0;
  uint64_t recovery_p99 = 0;
  uint64_t answers_lost = 0;
  uint64_t epochs = 0;

  bool operator==(const Exact&) const = default;
};

// Counts that are exact on the serial pump but depend on thread timing
// (which worker touches a key or a queue first) under the sharded runtime.
struct SerialExact {
  uint64_t allocs = 0;
  uint64_t allocs_other = 0;
  uint64_t intern_calls = 0;
  uint64_t route_cache_hits = 0;
  uint64_t route_cache_misses = 0;

  bool operator==(const SerialExact&) const = default;
};

enum Layer { kDht, kCore, kSim, kRuntime, kDriver, kNumLayers };
constexpr const char* kLayerNames[kNumLayers] = {"dht", "core", "sim",
                                                 "runtime", "driver"};

using Histogram = rjoin::stats::LogHistogram;

// Setup and stream are timed in pieces: setup as wiring plus warm-up, eight
// chunks of query submissions and the indexing pump; the stream as 32
// equal runs of tuples plus the final drain. Every repetition of an
// instance does identical work between the same two marks, so the parent
// can take the fastest time of each piece over the repetitions.
constexpr size_t kSubmitChunks = 8;
constexpr size_t kSetupPieces = kSubmitChunks + 2;
constexpr size_t kTuplePieces = 32;
constexpr size_t kStreamPieces = kTuplePieces + 1;

template <size_t kPieces>
struct Marks {
  int64_t at[kPieces + 1] = {};
  size_t next = 0;

  void Mark() {
    RJOIN_CHECK(next <= kPieces);
    at[next++] = NowNs();
  }
  // True when item i of n starts a new piece (of `pieces` equal runs).
  static bool StartsPiece(size_t i, size_t n, size_t pieces) {
    return i > 0 && i * pieces / n != (i - 1) * pieces / n;
  }
  void CopySeconds(double* out) const {
    RJOIN_CHECK(next == kPieces + 1);
    for (size_t p = 0; p < kPieces; ++p) {
      out[p] = static_cast<double>(at[p + 1] - at[p]) / 1e9;
    }
  }
};

// What a child reports to the parent through a pipe (trivially copyable).
struct Rep {
  uint32_t instance = 0;
  bool traced = false;
  Exact exact;
  SerialExact serial;
  // Stream-phase histograms: virtual ticks and hops are exact; queue depth
  // is exact on the serial pump only.
  Histogram answer_latency;
  Histogram route_hops;
  Histogram queue_depth;
  double setup_s = 0;
  double stream_s = 0;
  double setup_piece_s[kSetupPieces] = {};
  double stream_piece_s[kStreamPieces] = {};
  double cpu_s = 0;  // process CPU time during the stream
  double peak_rss_mb = 0;
  double stall_s = 0;  // summed worker park time during the stream
  uint64_t mailbox_batches = 0;
  uint64_t mailbox_envelopes = 0;
  // Traced repetitions only: summed span time per call, and self time per
  // layer in setup and in the stream.
  double ring_build_s = 0;
  double ric_warmup_s = 0;
  double submit_s = 0;
  double index_pump_s = 0;
  double publish_s = 0;
  double pump_s = 0;
  double sweep_s = 0;
  double schedule_churn_s = 0;
  double setup_self_s[kNumLayers] = {};
  double stream_self_s[kNumLayers] = {};
  // Oracle check of the verification pass.
  uint64_t checked_queries = 0;
  uint64_t oracle_rows = 0;
  uint64_t missing_rows = 0;
  uint64_t unexpected_rows = 0;
};
static_assert(std::is_trivially_copyable_v<Rep>);

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t Mix(uint64_t h, uint64_t x) {
  return (h ^ x) * 0x100000001b3ull + 0x9e3779b97f4a7c15ull;
}

// Order-sensitive digest of every delivered answer: query, row, time.
uint64_t AnswerDigest(const RJoinEngine& engine) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const rjoin::core::Answer& a : engine.answers()) {
    h = Mix(h, a.query_id);
    h = Mix(h, a.delivered_at);
    for (const rjoin::sql::Value& v : a.row) {
      if (v.is_int()) {
        h = Mix(h, static_cast<uint64_t>(v.AsInt()));
      } else {
        for (char c : v.AsString()) h = Mix(h, static_cast<uint8_t>(c));
      }
    }
  }
  return h;
}

uint64_t NearestRankP99(std::vector<uint64_t> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = (v.size() * 99 + 99) / 100;  // ceil(0.99 n)
  return v[rank - 1];
}

// Process-wide counters read at the start and end of the stream.
struct Counters {
  uint64_t messages = 0;
  uint64_t ric_messages = 0;
  uint64_t qpl = 0;
  uint64_t envelopes = 0;
  uint64_t interner_calls = 0;
  rjoin::dht::RouteCache::Stats route_cache;
  rjoin::stats::AllocCounts allocs;
  rjoin::stats::Tracer::HistogramSet hist;
  uint64_t epochs = 0;
  uint64_t mailbox_batches = 0;
  uint64_t mailbox_envelopes = 0;
  uint64_t replica_updates = 0;
  uint64_t replica_bytes = 0;
};

Counters ReadCounters(rjoin::workload::Experiment& e) {
  Counters c;
  c.messages = e.metrics().total_messages();
  c.ric_messages = e.metrics().total_ric_messages();
  c.qpl = e.metrics().total_qpl();
  c.envelopes = rjoin::core::MessagePool::Aggregate().acquired;
  const auto interner = rjoin::core::KeyInterner::Global().stats();
  c.interner_calls = interner.hits + interner.misses;
  c.route_cache = rjoin::dht::RouteCache::Aggregate();
  c.allocs = rjoin::stats::ReadAllocCounts();
  c.hist = rjoin::stats::Tracer::Global().AggregateHistograms();
  c.epochs = rjoin::runtime::ShardedRuntime::AggregateScheduler().epochs;
  const auto mailbox = rjoin::runtime::ShardedRuntime::AggregateMailbox();
  c.mailbox_batches = mailbox.batches;
  c.mailbox_envelopes = mailbox.envelopes;
  c.replica_updates = e.engine().replication_stats().replica_updates;
  c.replica_bytes = e.engine().replication_stats().replica_bytes;
  return c;
}

// Schedules every churn operation due by `until` (virtual time), resolving
// victim slots the way workload::Experiment does: spares were created
// right after the participants, and the j-th join takes the next index.
void ReleaseChurn(const Workload& w, const Inputs& in,
                  rjoin::sim::SimTime stream_start, rjoin::sim::SimTime until,
                  size_t* cursor, RJoinEngine& engine) {
  const rjoin::workload::ChurnSpec spec = ChurnOf(w);
  const auto spare_base = static_cast<rjoin::dht::NodeIndex>(w.nodes);
  const auto join_base =
      static_cast<rjoin::dht::NodeIndex>(w.nodes + spec.spare_nodes);
  for (; *cursor < in.churn.size() &&
         in.churn[*cursor].time + stream_start <= until;
       ++*cursor) {
    const rjoin::workload::ChurnEvent& ev = in.churn[*cursor];
    const rjoin::sim::SimTime when = ev.time + stream_start;
    if (ev.kind == rjoin::workload::ChurnOpKind::kJoin) {
      RJOIN_CHECK(engine.ScheduleJoin(when, ev.join_id, 0).ok());
      continue;
    }
    const auto victim =
        ev.victim_slot < spec.spare_nodes
            ? spare_base + static_cast<rjoin::dht::NodeIndex>(ev.victim_slot)
            : join_base + static_cast<rjoin::dht::NodeIndex>(
                              ev.victim_slot - spec.spare_nodes);
    if (ev.kind == rjoin::workload::ChurnOpKind::kCrash) {
      RJOIN_CHECK(engine.ScheduleCrash(when, victim, ev.crash_successors).ok());
    } else {
      RJOIN_CHECK(engine.ScheduleLeave(when, victim).ok());
    }
  }
}

struct Published {
  uint64_t pub_time = 0;
  uint64_t seq_no = 0;
  uint64_t tuple_id = 0;
};

// Checks a fixed, evenly spaced sample of queries against the centralized
// oracle; rows are compared as per-query multisets.
void OracleCheck(const Workload& w, const Inputs& in,
                 const std::vector<uint64_t>& query_ids,
                 const std::vector<Published>& published,
                 const RJoinEngine& engine, const rjoin::sql::Catalog& catalog,
                 Rep* rep) {
  std::vector<rjoin::sql::TuplePtr> history;
  history.reserve(in.tuples.size());
  for (size_t i = 0; i < in.tuples.size(); ++i) {
    history.push_back(rjoin::sql::MakeTuple(
        in.tuples[i].relation, in.tuples[i].values, published[i].pub_time,
        published[i].seq_no, published[i].tuple_id));
  }
  rjoin::sql::CentralizedEvaluator oracle(&catalog);
  const size_t stride = std::max<size_t>(1, w.queries / w.oracle_queries);
  for (size_t i = 0; i < query_ids.size(); i += stride) {
    const auto query = engine.FindQuery(query_ids[i]);
    RJOIN_CHECK(query != nullptr) << "query " << query_ids[i] << " lost";
    std::vector<std::string> expected;
    for (const auto& row :
         oracle.Evaluate(query->spec(), query->ins_time(), history)) {
      expected.push_back(rjoin::sql::AnswerRowKey(row));
    }
    std::vector<std::string> got;
    for (const rjoin::core::Answer& a : engine.AnswersFor(query_ids[i])) {
      got.push_back(rjoin::sql::AnswerRowKey(a.row));
    }
    std::sort(expected.begin(), expected.end());
    std::sort(got.begin(), got.end());
    std::vector<std::string> diff;
    std::set_difference(expected.begin(), expected.end(), got.begin(),
                        got.end(), std::back_inserter(diff));
    rep->missing_rows += diff.size();
    diff.clear();
    std::set_difference(got.begin(), got.end(), expected.begin(),
                        expected.end(), std::back_inserter(diff));
    rep->unexpected_rows += diff.size();
    rep->oracle_rows += expected.size();
    ++rep->checked_queries;
  }
}

// Runs one repetition: setup, then the stream, then (for the verification
// pass) the oracle check. Only calls into the program sit between the
// clock reads; with tracing on, each call also gets a span.
Rep RunRep(const Workload& w, uint64_t seed, Inputs& in, bool verify,
           SpanLog& log) {
  Rep rep;
  rep.traced = log.on();
  const bool sharded = w.shards != kSerial;
  const char* index_pump = sharded ? "runtime.index_pump" : "sim.index_pump";
  const char* pump = sharded ? "runtime.pump" : "sim.pump";
  const size_t n = in.tuples.size();
  const ExperimentConfig cfg = ConfigOf(w, seed, n);
  std::vector<uint64_t> query_ids(in.queries.size());
  std::vector<Published> published(n);

  // ---- setup: wiring, RIC warm-up, query indexing to quiescence.
  RJOIN_CHECK(in.queries.size() >= kSubmitChunks && n >= kTuplePieces);
  Marks<kSetupPieces> setup_marks;
  setup_marks.Mark();
  const int64_t setup_t0 = setup_marks.at[0];
  const int32_t setup = log.Open("setup", -1);
  std::unique_ptr<rjoin::workload::Experiment> e;
  log.Time("dht.ring_build", setup, -1, [&] {
    e = std::make_unique<rjoin::workload::Experiment>(cfg);
  });
  RJoinEngine& engine = e->engine();
  log.Time("core.ric_warmup", setup, -1, [&] {
    for (const auto& batch : in.warmup) {
      RJOIN_CHECK(
          engine.ObserveStreamHistoryBulk(batch.relation, batch.rows).ok());
    }
  });
  setup_marks.Mark();
  for (size_t i = 0; i < in.queries.size(); ++i) {
    if (Marks<kSetupPieces>::StartsPiece(i, in.queries.size(),
                                          kSubmitChunks)) {
      setup_marks.Mark();
    }
    log.Time("core.submit", setup, static_cast<int64_t>(i), [&] {
      auto id = engine.SubmitQuery(in.owners[i], std::move(in.queries[i]));
      RJOIN_CHECK(id.ok()) << id.status().ToString();
      query_ids[i] = *id;
    });
  }
  setup_marks.Mark();
  log.Time(index_pump, setup, -1, [&] { e->RunToQuiescence(); });
  log.Close(setup);
  setup_marks.Mark();
  const int64_t setup_t1 = setup_marks.at[kSetupPieces];
  rep.exact.index_msgs = e->metrics().total_messages();

  // ---- stream: every tuple, then quiescence and the final sweep.
  const Counters before = ReadCounters(*e);
  const rjoin::sim::SimTime stream_start = e->NowTime();
  size_t churn_cursor = 0;
  const double cpu0 = CpuSeconds();
  Marks<kStreamPieces> stream_marks;
  stream_marks.Mark();
  const int64_t stream_t0 = stream_marks.at[0];
  for (size_t i = 0; i < n; ++i) {
    if (Marks<kStreamPieces>::StartsPiece(i, n, kTuplePieces)) {
      stream_marks.Mark();
    }
    const auto arg = static_cast<int64_t>(i);
    const int32_t tuple = log.Open("tuple", -1, arg);
    if (!in.churn.empty()) {
      log.Time("core.schedule_churn", tuple, arg, [&] {
        ReleaseChurn(w, in, stream_start, e->NowTime() + kTupleGap,
                     &churn_cursor, engine);
      });
    }
    log.Time("core.publish", tuple, arg, [&] {
      const auto& draw = in.tuples[i];
      auto t = engine.PublishTuple(in.publishers[i], draw.relation,
                                   draw.values);
      RJOIN_CHECK(t.ok()) << t.status().ToString();
      published[i] = {(*t)->pub_time, (*t)->seq_no, (*t)->tuple_id};
    });
    // Open loop: advance one publication slot with earlier tuples' work
    // still in flight. Closed loop: drain this tuple's work first.
    log.Time(pump, tuple, arg, [&] {
      if (w.pipelined) {
        e->RunUntilTime(e->NowTime() + kTupleGap);
      } else {
        e->RunToQuiescence();
      }
    });
    if ((i + 1) % kSweepEvery == 0) {
      log.Time("core.sweep", tuple, arg, [&] { engine.SweepWindows(); });
    }
    if (!w.pipelined) {
      log.Time(pump, tuple, arg,
               [&] { e->RunUntilTime(e->NowTime() + kTupleGap); });
    }
    log.Close(tuple);
  }
  stream_marks.Mark();
  const int32_t drain = log.Open("drain", -1);
  if (!in.churn.empty()) {
    log.Time("core.schedule_churn", drain, -1, [&] {
      ReleaseChurn(w, in, stream_start, UINT64_MAX, &churn_cursor, engine);
    });
  }
  log.Time(pump, drain, -1, [&] { e->RunToQuiescence(); });
  log.Time("core.sweep", drain, -1, [&] { engine.SweepWindows(); });
  log.Close(drain);
  stream_marks.Mark();
  const int64_t stream_t1 = stream_marks.at[kStreamPieces];
  const double cpu1 = CpuSeconds();
  rep.peak_rss_mb = PeakRssMiB();
  const Counters after = ReadCounters(*e);

  rep.setup_s = static_cast<double>(setup_t1 - setup_t0) / 1e9;
  rep.stream_s = static_cast<double>(stream_t1 - stream_t0) / 1e9;
  setup_marks.CopySeconds(rep.setup_piece_s);
  stream_marks.CopySeconds(rep.stream_piece_s);
  rep.cpu_s = cpu1 - cpu0;

  Exact& x = rep.exact;
  x.answer_digest = AnswerDigest(engine);
  x.answers = engine.answers().size();
  x.stream_msgs = after.messages - before.messages;
  x.stream_ric_msgs = after.ric_messages - before.ric_messages;
  x.stream_qpl = after.qpl - before.qpl;
  x.stored_queries = engine.CountStoredQueries();
  x.stored_tuples = engine.CountStoredTuples();
  x.envelopes = after.envelopes - before.envelopes;
  x.replica_updates = after.replica_updates - before.replica_updates;
  x.replica_bytes = after.replica_bytes - before.replica_bytes;
  const auto& churn = engine.churn_stats();
  x.handoff_records = churn.handoff_queries + churn.handoff_tuples +
                      churn.handoff_altt + churn.handoff_rates;
  x.forwarded_msgs = churn.forwarded_messages;
  x.promoted_records = engine.replication_stats().promoted_records;
  x.answers_lost = engine.replication_stats().answers_lost;
  x.recovery_p99 = NearestRankP99(engine.promotion_recovery_ticks());
  x.epochs = after.epochs - before.epochs;
  rep.answer_latency =
      after.hist.answer_latency.DiffFrom(before.hist.answer_latency);
  rep.route_hops = after.hist.route_hops.DiffFrom(before.hist.route_hops);
  rep.queue_depth = after.hist.queue_depth.DiffFrom(before.hist.queue_depth);

  SerialExact& s = rep.serial;
  for (int p = 0; p < rjoin::stats::kNumAllocPlanes; ++p) {
    s.allocs += after.allocs.counts[p] - before.allocs.counts[p];
  }
  s.allocs_other = after.allocs.other() - before.allocs.other();
  s.intern_calls = after.interner_calls - before.interner_calls;
  s.route_cache_hits = after.route_cache.hits - before.route_cache.hits;
  s.route_cache_misses = after.route_cache.misses - before.route_cache.misses;
  rep.stall_s = static_cast<double>(
                    after.hist.stall_ns.DiffFrom(before.hist.stall_ns).sum()) /
                1e9;
  rep.mailbox_batches = after.mailbox_batches - before.mailbox_batches;
  rep.mailbox_envelopes = after.mailbox_envelopes - before.mailbox_envelopes;

  if (log.on()) {
    rep.ring_build_s = log.TotalSeconds("dht.ring_build");
    rep.ric_warmup_s = log.TotalSeconds("core.ric_warmup");
    rep.submit_s = log.TotalSeconds("core.submit");
    rep.index_pump_s = log.TotalSeconds(index_pump);
    rep.publish_s = log.TotalSeconds("core.publish");
    rep.pump_s = log.TotalSeconds(pump);
    rep.sweep_s = log.TotalSeconds("core.sweep");
    rep.schedule_churn_s = log.TotalSeconds("core.schedule_churn");
    const auto setup_self = log.LayerSelfSeconds(setup_t0, setup_t1);
    const auto stream_self = log.LayerSelfSeconds(stream_t0, stream_t1);
    for (int l = 0; l < kNumLayers; ++l) {
      if (auto it = setup_self.find(kLayerNames[l]); it != setup_self.end()) {
        rep.setup_self_s[l] = it->second;
      }
      if (auto it = stream_self.find(kLayerNames[l]);
          it != stream_self.end()) {
        rep.stream_self_s[l] = it->second;
      }
    }
  }
  if (verify) {
    OracleCheck(w, in, query_ids, published, engine, e->catalog(), &rep);
  }
  return rep;
}

// ------------------------------------------------------------- the parent

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "rjbench: %s\n", message.c_str());
  std::exit(1);
}

// Runs `body` in a forked child and returns the Rep it sends back. The
// child dies with the parent, and exits without running destructors (the
// repetition's state is thrown away, not torn down).
template <class Body>
Rep InChild(Body&& body) {
  int fds[2];
  if (pipe(fds) != 0) Fail(std::string("pipe: ") + std::strerror(errno));
  std::fflush(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) Fail(std::string("fork: ") + std::strerror(errno));
  if (pid == 0) {
    close(fds[0]);
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(3);
    const auto rep = std::make_unique<Rep>(body());
    const char* p = reinterpret_cast<const char*>(rep.get());
    size_t left = sizeof(Rep);
    while (left > 0) {
      const ssize_t n = write(fds[1], p, left);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) _exit(4);
      p += n;
      left -= static_cast<size_t>(n);
    }
    std::fflush(nullptr);
    _exit(0);
  }
  close(fds[1]);
  const auto rep = std::make_unique<Rep>();
  char* p = reinterpret_cast<char*>(rep.get());
  size_t got = 0;
  while (got < sizeof(Rep)) {
    const ssize_t n = read(fds[0], p + got, sizeof(Rep) - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != sizeof(Rep) || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    Fail("a repetition failed (child status " + std::to_string(status) + ")");
  }
  return *rep;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// What the parent keeps about one instance. Every Instance is allocated
// before the first fork, so each repetition's process inherits the same
// parent footprint and peak RSS does not creep as a run goes on.
struct Instance {
  Rep first;  // the reference for the exact-count check
  Rep fastest;
  Rep fastest_traced;
  size_t untraced_reps = 0;
  size_t traced_reps = 0;
  // Fastest time of each piece over the untraced repetitions.
  double min_setup_piece_s[kSetupPieces] = {};
  double min_stream_piece_s[kStreamPieces] = {};
  double min_peak_rss_mb = 0;

  double SetupSeconds() const {
    double s = 0;
    for (double p : min_setup_piece_s) s += p;
    return s;
  }
  double StreamSeconds() const {
    double s = 0;
    for (double p : min_stream_piece_s) s += p;
    return s;
  }
};

// Every repetition of an instance must reproduce the same answers and
// exact counts.
bool SameExact(const Workload& w, const Rep& a, const Rep& b) {
  const bool serial = w.shards == kSerial;
  return a.exact == b.exact &&
         a.answer_latency.CountsEqual(b.answer_latency) &&
         a.route_hops.CountsEqual(b.route_hops) &&
         (!serial ||
          (a.serial == b.serial && a.queue_depth.CountsEqual(b.queue_depth)));
}

// Folds one repetition into its instance; false when it disagrees with the
// instance's first repetition on an exact count.
bool Record(const Workload& w, const Rep& r, Instance* g) {
  if (g->untraced_reps + g->traced_reps == 0) {
    g->first = r;
    g->min_peak_rss_mb = r.peak_rss_mb;
  } else {
    if (!SameExact(w, g->first, r)) return false;
    g->min_peak_rss_mb = std::min(g->min_peak_rss_mb, r.peak_rss_mb);
  }
  if (!r.traced) {
    const bool first_untraced = g->untraced_reps == 0;
    for (size_t p = 0; p < kSetupPieces; ++p) {
      g->min_setup_piece_s[p] =
          first_untraced ? r.setup_piece_s[p]
                         : std::min(g->min_setup_piece_s[p], r.setup_piece_s[p]);
    }
    for (size_t p = 0; p < kStreamPieces; ++p) {
      g->min_stream_piece_s[p] =
          first_untraced
              ? r.stream_piece_s[p]
              : std::min(g->min_stream_piece_s[p], r.stream_piece_s[p]);
    }
  }
  size_t& count = r.traced ? g->traced_reps : g->untraced_reps;
  Rep& best = r.traced ? g->fastest_traced : g->fastest;
  if (count++ == 0 || r.stream_s < best.stream_s) best = r;
  return true;
}

// Sums `f` over the given repetition of every instance.
template <class F>
double SumOver(const std::vector<Instance>& groups, Rep Instance::*which,
               F&& f) {
  double total = 0;
  for (const Instance& g : groups) total += static_cast<double>(f(g.*which));
  return total;
}

Histogram Merged(const std::vector<Instance>& groups, Rep Instance::*which,
                 Histogram Rep::*hist) {
  Histogram h;
  for (const Instance& g : groups) h.MergeFrom((g.*which).*hist);
  return h;
}

std::vector<Metric> EndToEnd(const Workload& w,
                             const std::vector<Instance>& groups,
                             const Rep& verify) {
  const double k = static_cast<double>(groups.size());
  const double tuples = k * static_cast<double>(w.tuples);
  const auto fast = &Instance::fastest;
  double setup = 0, stream = 0, rss = 0;
  for (const Instance& g : groups) {
    setup += g.SetupSeconds() / k;
    stream += g.StreamSeconds();
    rss += g.min_peak_rss_mb / k;
  }
  const Histogram latency = Merged(groups, fast, &Rep::answer_latency);
  const double msgs =
      SumOver(groups, fast, [](const Rep& r) { return r.exact.stream_msgs; });
  const double index_msgs =
      SumOver(groups, fast, [](const Rep& r) { return r.exact.index_msgs; });
  const double matched =
      static_cast<double>(verify.oracle_rows - verify.missing_rows);
  const double checked =
      static_cast<double>(verify.oracle_rows + verify.unexpected_rows);
  return {
      {"tuples_per_sec", "tuples/s", tuples / stream},
      {"setup_s", "s", setup},
      {"peak_rss_mb", "MiB", rss},
      {"msgs_per_tuple", "msgs/tuple", msgs / tuples},
      {"index_msgs_per_query", "msgs/query",
       index_msgs / (k * static_cast<double>(w.queries))},
      {"answer_latency_p50_ticks", "ticks",
       static_cast<double>(latency.Percentile(50))},
      {"answer_latency_p99_ticks", "ticks",
       static_cast<double>(latency.Percentile(99))},
      {"answer_match_rate", "share", Ratio(matched, checked)},
  };
}

std::vector<Metric> PerLayer(const Workload& w,
                             const std::vector<Instance>& groups) {
  const auto traced = &Instance::fastest_traced;
  const double k = static_cast<double>(groups.size());
  const double n = k * static_cast<double>(w.tuples);
  const double queries = k * static_cast<double>(w.queries);
  const double shards = w.shards == kSerial ? 1.0 : w.shards;
  // Sum of a field over every instance's fastest traced repetition.
  auto sum = [&](auto field) { return SumOver(groups, traced, field); };
  const double stream_s = sum([](const Rep& r) { return r.stream_s; });
  const double untraced_stream_s = SumOver(
      groups, &Instance::fastest, [](const Rep& r) { return r.stream_s; });
  const Histogram hops = Merged(groups, traced, &Rep::route_hops);
  const Histogram depth = Merged(groups, traced, &Rep::queue_depth);
  const double hits = sum([](const Rep& r) { return r.serial.route_cache_hits; });
  const double misses =
      sum([](const Rep& r) { return r.serial.route_cache_misses; });
  return {
      {"dht.ring_build_ms", "ms",
       sum([](const Rep& r) { return r.ring_build_s; }) * 1e3 / k},
      {"dht.route_hops_p50", "hops", static_cast<double>(hops.Percentile(50))},
      {"dht.route_hops_p99", "hops", static_cast<double>(hops.Percentile(99))},
      {"dht.route_cache_hit_rate", "share", Ratio(hits, hits + misses)},
      {"core.ric_warmup_ms", "ms",
       sum([](const Rep& r) { return r.ric_warmup_s; }) * 1e3 / k},
      {"core.submit_us_per_query", "us",
       sum([](const Rep& r) { return r.submit_s; }) * 1e6 / queries},
      {"core.publish_us_per_tuple", "us",
       sum([](const Rep& r) { return r.publish_s; }) * 1e6 / n},
      {"core.sweep_ms_per_tuple", "ms",
       sum([](const Rep& r) { return r.sweep_s; }) * 1e3 / n},
      {"core.schedule_churn_ms_per_tuple", "ms",
       sum([](const Rep& r) { return r.schedule_churn_s; }) * 1e3 / n},
      {"core.answers_per_tuple", "answers/tuple",
       sum([](const Rep& r) { return r.exact.answers; }) / n},
      {"core.allocs_per_tuple", "allocs/tuple",
       sum([](const Rep& r) { return r.serial.allocs; }) / n},
      {"core.allocs_per_tuple_other", "allocs/tuple",
       sum([](const Rep& r) { return r.serial.allocs_other; }) / n},
      {"core.stored_queries_end", "count",
       sum([](const Rep& r) { return r.exact.stored_queries; }) / k},
      {"core.stored_tuples_end", "count",
       sum([](const Rep& r) { return r.exact.stored_tuples; }) / k},
      {"core.qpl_per_tuple", "ops/tuple",
       sum([](const Rep& r) { return r.exact.stream_qpl; }) / n},
      {"core.ric_msgs_per_tuple", "msgs/tuple",
       sum([](const Rep& r) { return r.exact.stream_ric_msgs; }) / n},
      {"core.intern_calls_per_tuple", "calls/tuple",
       sum([](const Rep& r) { return r.serial.intern_calls; }) / n},
      {"core.replica_updates_per_tuple", "msgs/tuple",
       sum([](const Rep& r) { return r.exact.replica_updates; }) / n},
      {"core.replica_bytes_per_tuple", "B/tuple",
       sum([](const Rep& r) { return r.exact.replica_bytes; }) / n},
      {"core.handoff_records", "count",
       sum([](const Rep& r) { return r.exact.handoff_records; }) / k},
      {"core.promoted_records", "count",
       sum([](const Rep& r) { return r.exact.promoted_records; }) / k},
      {"core.forwarded_msgs", "count",
       sum([](const Rep& r) { return r.exact.forwarded_msgs; }) / k},
      {"core.recovery_ticks_p99", "ticks",
       sum([](const Rep& r) { return r.exact.recovery_p99; }) / k},
      {"sim.index_pump_ms", "ms",
       sum([](const Rep& r) { return r.index_pump_s; }) * 1e3 / k},
      {"sim.pump_ms_per_tuple", "ms",
       sum([](const Rep& r) { return r.pump_s; }) * 1e3 / n},
      {"sim.envelopes_per_tuple", "msgs/tuple",
       sum([](const Rep& r) { return r.exact.envelopes; }) / n},
      {"sim.queue_depth_p99", "events",
       static_cast<double>(depth.Percentile(99))},
      {"runtime.epochs_per_ktuple", "epochs/ktuple",
       sum([](const Rep& r) { return r.exact.epochs; }) * 1e3 / n},
      {"runtime.stall_share", "share",
       Ratio(sum([](const Rep& r) { return r.stall_s; }), shards * stream_s)},
      {"runtime.mailbox_batch_width", "msgs/batch",
       Ratio(sum([](const Rep& r) { return r.mailbox_envelopes; }),
             sum([](const Rep& r) { return r.mailbox_batches; }))},
      {"runtime.cpu_per_wall", "cpu_s/s",
       Ratio(sum([](const Rep& r) { return r.cpu_s; }), stream_s)},
      {"driver.self_share", "share",
       Ratio(sum([](const Rep& r) { return r.stream_self_s[kDriver]; }),
             stream_s)},
      {"trace.overhead", "share", 1.0 - Ratio(untraced_stream_s, stream_s)},
  };
}

// One repetition's line in the results file.
std::string RepJson(const Rep& r) {
  return "{\"instance\": " + std::to_string(r.instance) +
         ", \"traced\": " + std::string(r.traced ? "true" : "false") +
         ", \"setup_s\": " + Num(r.setup_s) +
         ", \"stream_s\": " + Num(r.stream_s) +
         ", \"cpu_s\": " + Num(r.cpu_s) +
         ", \"peak_rss_mb\": " + Num(r.peak_rss_mb) +
         ", \"stall_s\": " + Num(r.stall_s) +
         ", \"stream_msgs\": " + std::to_string(r.exact.stream_msgs) +
         ", \"answers\": " + std::to_string(r.exact.answers) + "}";
}

std::string LayerTable(const std::vector<Instance>& groups) {
  std::string out = "layer\tsetup_self_ms\tstream_self_ms\tstream_share\n";
  double stream_s = 0;
  for (const Instance& g : groups) stream_s += g.fastest_traced.stream_s;
  for (int l = 0; l < kNumLayers; ++l) {
    double setup = 0, stream = 0;
    for (const Instance& g : groups) {
      setup += g.fastest_traced.setup_self_s[l];
      stream += g.fastest_traced.stream_self_s[l];
    }
    char line[160];
    std::snprintf(line, sizeof(line), "%s\t%.3f\t%.3f\t%.4f\n",
                  kLayerNames[l], setup * 1e3, stream * 1e3,
                  Ratio(stream, stream_s));
    out += line;
  }
  return out;
}

bool WriteFile(const std::string& path, const std::string& text) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs(text.c_str(), f) >= 0;
  return std::fclose(f) == 0 && ok;
}

int Main(int argc, char** argv) {
  std::string workload_name, out_dir = ".", provenance = "{}";
  long long seed = -1, seconds = -1, trace = -1;
  for (int i = 1; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) Fail("missing value for " + std::string(flag));
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value);
    } else if (flag == "--seconds") {
      seconds = std::atoll(value);
    } else if (flag == "--trace") {
      trace = std::atoll(value);
    } else if (flag == "--out") {
      out_dir = value;
    } else if (flag == "--provenance") {
      provenance = value;
    } else {
      Fail("unknown flag " + std::string(flag));
    }
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (workload_name == cand.name) w = &cand;
  }
  if (w == nullptr) Fail("unknown --workload '" + workload_name + "'");
  if (seed < 0) Fail("--seed must be a non-negative integer");
  if (seconds < 1 || seconds > 3600) Fail("--seconds must be in [1, 3600]");
  if (trace != 0 && trace != 1) Fail("--trace must be 0 or 1");

  // The program reads RJOIN_* variables as knobs (shards, replication,
  // churn, tracing, route cache); a set one would change what is measured.
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "RJOIN_", 6) == 0) {
      Fail("refusing to run with " + std::string(*env) + " set");
    }
  }
#if !defined(__OPTIMIZE__)
  Fail("refusing to measure an unoptimized (Debug) build");
#endif
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) Fail("cannot create " + out_dir + ": " + ec.message());

  const uint64_t useed = static_cast<uint64_t>(seed);
  const std::string tag = std::string(w->name) + "_seed" +
                          std::to_string(seed) + "_trace" +
                          std::to_string(trace);
  const std::string spans_path = out_dir + "/spans_" + tag + ".json";

  // Repetitions cycle through the instances until the budget is spent. A
  // traced run alternates untraced and traced rounds, so both kinds see
  // the same host phase; only instance 0 keeps its spans. The parent's
  // records are allocated up front (see Instance) and its repetition log
  // holds one line per repetition.
  constexpr size_t kMinRounds = 2;
  const int64_t deadline = NowNs() + seconds * 1'000'000'000LL;
  std::vector<Instance> groups(w->instances);
  std::string rep_log;
  rep_log.reserve(1 << 16);
  size_t reps = 0;
  for (; reps < kMinRounds * w->instances || NowNs() < deadline; ++reps) {
    const auto instance = static_cast<uint32_t>(reps % w->instances);
    const bool traced = trace == 1 && (reps / w->instances) % 2 == 1;
    const bool keep_spans = traced && instance == 0;
    const std::string rep_spans = spans_path + ".rep";
    const Rep rep = InChild([&] {
      Inputs in = Generate(*w, InstanceSeed(useed, instance), w->tuples);
      // One span per setup call and query, up to six per tuple.
      SpanLog log(traced, 8 + in.queries.size() + 6 * w->tuples);
      Rep r = RunRep(*w, InstanceSeed(useed, instance), in,
                     /*verify=*/false, log);
      r.instance = instance;
      if (keep_spans) {
        RJOIN_CHECK(log.WriteChromeTrace(rep_spans))
            << "cannot write " << rep_spans;
      }
      return r;
    });
    Instance& g = groups[instance];
    const bool fastest_so_far =
        g.traced_reps == 0 || rep.stream_s < g.fastest_traced.stream_s;
    if (!Record(*w, rep, &g)) {
      Fail("instance " + std::to_string(instance) +
           ": repetitions disagree on exact counts (answer digest " +
           std::to_string(g.first.exact.answer_digest) + " vs " +
           std::to_string(rep.exact.answer_digest) + ")");
    }
    if (keep_spans) {
      // Keep the spans of instance 0's fastest traced repetition.
      if (fastest_so_far) {
        std::filesystem::rename(rep_spans, spans_path, ec);
      } else {
        std::filesystem::remove(rep_spans, ec);
      }
      if (ec) Fail("cannot keep the spans file: " + ec.message());
    }
    rep_log += (reps == 0 ? "" : ", ") + RepJson(rep);
  }
  const int64_t verify_t0 = NowNs();
  const Rep verify = InChild([&] {
    Inputs in = Generate(*w, InstanceSeed(useed, 0), w->verify_tuples);
    SpanLog off(false, 0);
    return RunRep(*w, InstanceSeed(useed, 0), in, /*verify=*/true, off);
  });
  const int64_t verify_t1 = NowNs();

  const uint64_t failed = verify.missing_rows + verify.unexpected_rows +
                          verify.exact.answers_lost;
  const bool correct = failed == 0 && verify.checked_queries > 0;
  const std::vector<Metric> e2e = EndToEnd(*w, groups, verify);
  std::vector<Metric> layers;
  if (trace == 1) {
    layers = PerLayer(*w, groups);
    if (!WriteFile(out_dir + "/layers_" + tag + ".tsv", LayerTable(groups))) {
      Fail("cannot write the layer table");
    }
  }

  // The results file: provenance, inputs, every repetition, every metric.
  std::string digests;
  for (const Instance& g : groups) {
    digests += std::string(digests.empty() ? "" : ", ") + "\"" +
               std::to_string(g.first.exact.answer_digest) + "\"";
  }
  std::string json =
      "{\"provenance\": " + provenance + ", \"workload\": \"" + w->name +
      "\", \"seed\": " + std::to_string(seed) +
      ", \"seconds\": " + std::to_string(seconds) +
      ", \"trace\": " + std::to_string(trace) +
      ", \"repetition_mode\": \"fork per repetition; fastest repetition per "
      "instance; " +
      std::to_string(reps) + " repetitions over " +
      std::to_string(w->instances) + " instances\", \"nproc\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"nodes\": " + std::to_string(w->nodes) +
      ", \"queries\": " + std::to_string(w->queries) +
      ", \"tuples\": " + std::to_string(w->tuples) +
      ", \"answer_digests\": [" + digests +
      "], \"verify\": {\"tuples\": " + std::to_string(w->verify_tuples) +
      ", \"checked_queries\": " + std::to_string(verify.checked_queries) +
      ", \"oracle_rows\": " + std::to_string(verify.oracle_rows) +
      ", \"missing_rows\": " + std::to_string(verify.missing_rows) +
      ", \"unexpected_rows\": " + std::to_string(verify.unexpected_rows) +
      ", \"answers_lost\": " + std::to_string(verify.exact.answers_lost) +
      ", \"answer_error_rate\": " +
      Num(Ratio(static_cast<double>(failed),
                static_cast<double>(verify.oracle_rows))) +
      "}, \"fastest_whole_repetitions\": {\"tuples_per_sec\": " +
      Num(static_cast<double>(w->instances * w->tuples) /
          SumOver(groups, &Instance::fastest,
                  [](const Rep& r) { return r.stream_s; })) +
      "}, \"end_to_end\": " + MetricsJson(e2e) +
      ", \"per_layer\": " + MetricsJson(layers) + ", \"repetitions\": [" +
      rep_log + "]}\n";
  if (!WriteFile(out_dir + "/result_" + tag + ".json", json)) {
    Fail("cannot write the results file");
  }

  std::fprintf(stderr,
               "rjbench: %s seed=%lld: %zu repetitions, verification pass "
               "%.1f s, %s\n",
               w->name, seed, reps,
               static_cast<double>(verify_t1 - verify_t0) / 1e9,
               correct ? "correct" : "INCORRECT");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(
                  std::max<uint64_t>(1, verify.oracle_rows)),
              static_cast<unsigned long long>(failed),
              MetricsJson(trace == 1 ? layers : e2e).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
