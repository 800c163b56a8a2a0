// Micro-benchmarks for the building blocks: SHA-1 hashing, identifier
// arithmetic, Chord lookup/routing, SQL parsing, the rewrite step, the Zipf
// sampler, and the tuple-ingest hot path (per-tuple PublishTuple vs batched
// PublishBatch). Uses google-benchmark; results also land in
// BENCH_micro_core.json (google-benchmark's JSON format) unless the caller
// passes an explicit --benchmark_out.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/engine.h"
#include "core/interner.h"
#include "core/key.h"
#include "core/messages.h"
#include "dht/route_cache.h"
#include "sim/event_queue.h"
#include "core/planner.h"
#include "core/residual.h"
#include "dht/chord_network.h"
#include "dht/transport.h"
#include "sim/latency.h"
#include "sim/simulator.h"
#include "sql/parser.h"
#include "sql/rewriter.h"
#include "stats/metrics.h"
#include "util/random.h"
#include "util/sha1.h"
#include "util/zipf.h"
#include "workload/generator.h"

namespace {

using namespace rjoin;

void BM_Sha1Short(benchmark::State& state) {
  const std::string key = "R0|A3|42";
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1(key));
  }
}
BENCHMARK(BM_Sha1Short);

void BM_Sha1Block(benchmark::State& state) {
  const std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1Block)->Arg(64)->Arg(1024)->Arg(16384);

// The key-id plane hot path: interning an already-seen key (one
// dictionary probe, no allocation) vs. the SHA-1 the string-keyed plane
// paid per message (BM_Sha1Short above).
void BM_InternHitValueKey(benchmark::State& state) {
  core::KeyInterner interner;
  const sql::Value v = sql::Value::Int(42);
  interner.InternValue("R0", "A3", v);  // first sight outside the loop
  for (auto _ : state) {
    benchmark::DoNotOptimize(interner.InternValue("R0", "A3", v));
  }
}
BENCHMARK(BM_InternHitValueKey);

// Resolving the cached ring id from an interned key (what Transport's
// SendKey routes on) — replaces a per-message SHA-1.
void BM_InternedRingId(benchmark::State& state) {
  core::KeyInterner interner;
  const core::KeyId key = interner.InternValue("R0", "A3", sql::Value::Int(7));
  for (auto _ : state) {
    benchmark::DoNotOptimize(interner.ring_id(key));
  }
}
BENCHMARK(BM_InternedRingId);

void BM_NodeIdArithmetic(benchmark::State& state) {
  const dht::NodeId a = dht::NodeId::FromKey("a");
  const dht::NodeId b = dht::NodeId::FromKey("b");
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Add(b).Subtract(b));
  }
}
BENCHMARK(BM_NodeIdArithmetic);

void BM_ChordSuccessor(benchmark::State& state) {
  auto net = dht::ChordNetwork::Create(static_cast<size_t>(state.range(0)),
                                       1);
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net->SuccessorOf(dht::NodeId::FromUint64(rng.Next())));
  }
}
BENCHMARK(BM_ChordSuccessor)->Arg(256)->Arg(1024);

void BM_ChordRoute(benchmark::State& state) {
  auto net = dht::ChordNetwork::Create(static_cast<size_t>(state.range(0)),
                                       1);
  const auto alive = net->AliveNodes();
  Rng rng(11);
  for (auto _ : state) {
    const auto src = alive[rng.NextBounded(alive.size())];
    benchmark::DoNotOptimize(
        net->RouteHops(src, dht::NodeId::FromUint64(rng.Next())));
  }
}
BENCHMARK(BM_ChordRoute)->Arg(256)->Arg(1024);

// ------------------------------------------------------- routing plane --
//
// What the route cache buys per steady-state send: BM_RouteResolveUncached
// is the O(log N) greedy finger walk every message paid before the cache;
// BM_RouteResolveCached is the open-addressed probe a warm send pays now.
// Both cycle the same 512-key working set from one source node.

constexpr size_t kRouteKeys = 512;

// SHA-1-hashed keys, like the index keys the engine routes on — spread over
// the whole ring (NodeId::FromUint64 would pile every key next to ring
// position zero and make all routes from the first ring node degenerate).
std::vector<dht::NodeId> SpreadKeys() {
  std::vector<dht::NodeId> keys;
  keys.reserve(kRouteKeys);
  for (size_t i = 0; i < kRouteKeys; ++i) {
    keys.push_back(dht::NodeId::FromKey("route-key-" + std::to_string(i)));
  }
  return keys;
}

void BM_RouteResolveUncached(benchmark::State& state) {
  auto net = dht::ChordNetwork::Create(static_cast<size_t>(state.range(0)),
                                       1);
  const auto alive = net->AliveNodes();
  const dht::NodeIndex src = alive[alive.size() / 2];
  const std::vector<dht::NodeId> keys = SpreadKeys();
  std::vector<dht::NodeIndex> path;
  size_t i = 0;
  for (auto _ : state) {
    net->RoutePath(src, keys[i++ % kRouteKeys], &path);
    benchmark::DoNotOptimize(path.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouteResolveUncached)->Arg(256)->Arg(1024);

void BM_RouteResolveCached(benchmark::State& state) {
  auto net = dht::ChordNetwork::Create(static_cast<size_t>(state.range(0)),
                                       1);
  const auto alive = net->AliveNodes();
  const dht::NodeIndex src = alive[alive.size() / 2];
  const uint64_t gen = net->topology_generation();
  const std::vector<dht::NodeId> keys = SpreadKeys();
  dht::RouteCache cache;
  std::vector<dht::NodeIndex> path;
  for (uint32_t k = 0; k < kRouteKeys; ++k) {
    net->RoutePath(src, keys[k], &path);
    cache.Insert(k, gen, path);
  }
  uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Lookup(i++ % kRouteKeys, gen));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouteResolveCached)->Arg(256)->Arg(1024);

// -------------------------------------------------------- event pumps --
//
// Hold-model comparison of the old std::push_heap/pop_heap vector against
// the calendar queue behind sim::EventQueue: with H events pending, each
// iteration pops the earliest and reschedules it a small delay ahead (the
// discrete-event steady state). The binary heap sifts O(log H) per
// operation; the calendar queue stays O(1) as H grows.

constexpr uint64_t kHoldSpread = 64;  // delay range, ticks (<< window size)

void PrimeEnvelope(core::EnvelopeRef& env, Rng& rng, uint64_t& order) {
  env->time = rng.NextBounded(kHoldSpread);
  env->order = order++;
}

void BM_BinaryHeapHold(benchmark::State& state) {
  const size_t pending = static_cast<size_t>(state.range(0));
  struct HeapLater {
    bool operator()(const core::EnvelopeRef& a,
                    const core::EnvelopeRef& b) const {
      if (a->time != b->time) return a->time > b->time;
      return a->order > b->order;
    }
  };
  core::MessagePool pool(1024);
  std::vector<core::EnvelopeRef> heap;
  heap.reserve(pending);
  Rng rng(21);
  uint64_t order = 0;
  for (size_t i = 0; i < pending; ++i) {
    core::EnvelopeRef env = pool.Acquire();
    PrimeEnvelope(env, rng, order);
    heap.push_back(std::move(env));
    std::push_heap(heap.begin(), heap.end(), HeapLater{});
  }
  for (auto _ : state) {
    std::pop_heap(heap.begin(), heap.end(), HeapLater{});
    core::EnvelopeRef env = std::move(heap.back());
    heap.pop_back();
    env->time += 1 + rng.NextBounded(kHoldSpread - 1);
    env->order = order++;
    heap.push_back(std::move(env));
    std::push_heap(heap.begin(), heap.end(), HeapLater{});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BinaryHeapHold)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_CalendarQueueHold(benchmark::State& state) {
  const size_t pending = static_cast<size_t>(state.range(0));
  core::MessagePool pool(1024);
  sim::EventQueue queue;
  Rng rng(21);
  uint64_t order = 0;
  for (size_t i = 0; i < pending; ++i) {
    core::EnvelopeRef env = pool.Acquire();
    PrimeEnvelope(env, rng, order);
    queue.Push(std::move(env));
  }
  for (auto _ : state) {
    core::EnvelopeRef env = queue.Pop();
    env->time += 1 + rng.NextBounded(kHoldSpread - 1);
    queue.Push(std::move(env));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CalendarQueueHold)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_ParseQuery(benchmark::State& state) {
  const std::string text =
      "SELECT R.B, S.B FROM R, S, P, M "
      "WHERE R.A=S.A AND S.B=P.B AND P.C=M.C WINDOW 100 TUPLES";
  for (auto _ : state) {
    auto q = sql::Parser::Parse(text);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_ParseQuery);

sql::Catalog MicroCatalog() {
  sql::Catalog c;
  (void)c.AddRelation(sql::Schema("R", {"A", "B", "C"}));
  (void)c.AddRelation(sql::Schema("S", {"A", "B", "C"}));
  (void)c.AddRelation(sql::Schema("P", {"A", "B", "C"}));
  return c;
}

// The id form of BM_InternHitValueKey: a code-dictionary hit, no text.
void BM_ResolveHitValueKey(benchmark::State& state) {
  sql::Catalog catalog = MicroCatalog();
  core::KeyInterner interner;
  const uint32_t rel = core::TuplePool::Global().InternRelation("R");
  const core::ValueId v = core::ValueInterner::Global().Intern(
      sql::Value::Int(42));
  interner.ResolveValue(catalog, rel, 0, v);  // first sight outside the loop
  for (auto _ : state) {
    benchmark::DoNotOptimize(interner.ResolveValue(catalog, rel, 0, v));
  }
}
BENCHMARK(BM_ResolveHitValueKey);

void BM_ReferenceRewrite(benchmark::State& state) {
  sql::Catalog catalog = MicroCatalog();
  auto q = sql::Parser::Parse(
      "SELECT R.B, S.B FROM R,S,P WHERE R.A=S.A AND S.B=P.B");
  sql::Rewriter rewriter(&catalog);
  auto t = sql::MakeTuple(
      "R", {sql::Value::Int(3), sql::Value::Int(5), sql::Value::Int(7)}, 1,
      1, 1);
  for (auto _ : state) {
    auto out = rewriter.Rewrite(*q, *t);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ReferenceRewrite);

// Matches + Bind of a pre-pooled tuple record: the engine's trigger step.
void BM_ResidualBind(benchmark::State& state) {
  sql::Catalog catalog = MicroCatalog();
  auto spec = sql::Parser::Parse(
      "SELECT R.B, S.B FROM R,S,P WHERE R.A=S.A AND S.B=P.B");
  auto iq = core::InputQuery::Create(1, 0, 0, *spec, &catalog);
  core::Residual r0(&*iq);
  const core::TupleRef t = core::TuplePool::Global().Make(
      "R", {sql::Value::Int(3), sql::Value::Int(5), sql::Value::Int(7)}, 1,
      1, 1);
  for (auto _ : state) {
    if (r0.Matches(0, t)) {
      benchmark::DoNotOptimize(r0.Bind(0, t));
    }
  }
}
BENCHMARK(BM_ResidualBind);

void BM_IndexingCandidates(benchmark::State& state) {
  sql::Catalog catalog = MicroCatalog();
  auto spec = sql::Parser::Parse(
      "SELECT R.B, S.B FROM R,S,P WHERE R.A=S.A AND S.B=P.B");
  auto iq = core::InputQuery::Create(1, 0, 0, *spec, &catalog);
  const core::TupleRef t = core::TuplePool::Global().Make(
      "R", {sql::Value::Int(3), sql::Value::Int(5), sql::Value::Int(7)}, 1,
      1, 1);
  core::Residual r = core::Residual(&*iq).Bind(0, t);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::IndexingCandidates(
        r, core::RewriteIndexLevels::kIncludeAttribute));
  }
}
BENCHMARK(BM_IndexingCandidates);

void BM_ZipfSample(benchmark::State& state) {
  ZipfDistribution z(static_cast<uint64_t>(state.range(0)), 0.9);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(z.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(100)->Arg(10000);

// ------------------------------------------------------ tuple ingest path --
//
// Per-tuple ingest cost of the two publish paths, message handling included
// (each iteration runs the simulator to quiescence). items_per_second in the
// report is tuples/s; compare BM_PublishPerTuple against BM_PublishBatch to
// see what batching amortizes (schema lookup, attribute-key hashing, tuple
// and message allocation, MultiSend dispatch).

struct IngestHarness {
  explicit IngestHarness(size_t nodes, uint32_t attr_replication = 1)
      : catalog(workload::BuildCatalog(
            {.num_relations = 4, .num_attributes = 5, .num_values = 100})),
        network(dht::ChordNetwork::Create(nodes, 1)),
        latency(1),
        sim(&metrics, 99),
        transport(network.get(), &sim, &latency) {
    core::EngineConfig cfg;
    cfg.attr_replication = attr_replication;
    engine = std::make_unique<core::RJoinEngine>(
        cfg, catalog.get(), network.get(), &transport, &sim);
  }

  std::unique_ptr<sql::Catalog> catalog;
  std::unique_ptr<dht::ChordNetwork> network;
  sim::FixedLatency latency;
  stats::MetricsRegistry metrics;
  sim::Simulator sim;
  dht::Transport transport;
  std::unique_ptr<core::RJoinEngine> engine;
};

std::vector<sql::Value> IngestRow(Rng& rng, size_t arity) {
  std::vector<sql::Value> row;
  row.reserve(arity);
  for (size_t i = 0; i < arity; ++i) {
    row.push_back(sql::Value::Int(static_cast<int64_t>(rng.NextBounded(100))));
  }
  return row;
}

// Both ingest harnesses advance the stream clock by kTupleGap per published
// tuple (as workload::Experiment does), so ALTT retention — which depends on
// tuples per simulated tick — is identical for the two paths.
constexpr sim::SimTime kTupleGap = 16;

void BM_PublishPerTuple(benchmark::State& state) {
  IngestHarness h(256);
  Rng rng(7);
  for (auto _ : state) {
    auto t = h.engine->PublishTuple(0, "R0", IngestRow(rng, 5));
    benchmark::DoNotOptimize(t);
    h.sim.Run();
    h.sim.RunUntil(h.sim.Now() + kTupleGap);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PublishPerTuple)->Iterations(20000);

void BM_PublishBatch(benchmark::State& state) {
  IngestHarness h(256);
  Rng rng(7);
  const size_t batch_size = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    std::vector<std::vector<sql::Value>> rows;
    rows.reserve(batch_size);
    for (size_t i = 0; i < batch_size; ++i) {
      rows.push_back(IngestRow(rng, 5));
    }
    auto out = h.engine->PublishBatch(0, "R0", std::move(rows));
    benchmark::DoNotOptimize(out);
    h.sim.Run();
    h.sim.RunUntil(h.sim.Now() + kTupleGap * batch_size);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch_size));
}
BENCHMARK(BM_PublishBatch)->Arg(16)->Iterations(1250);
BENCHMARK(BM_PublishBatch)->Arg(256)->Iterations(80);

void BM_ObserveHistoryPerTuple(benchmark::State& state) {
  IngestHarness h(256);
  Rng rng(7);
  for (auto _ : state) {
    auto s = h.engine->ObserveStreamHistory("R0", IngestRow(rng, 5));
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObserveHistoryPerTuple)->Iterations(20000);

void BM_ObserveHistoryBulk(benchmark::State& state) {
  IngestHarness h(256);
  Rng rng(7);
  const size_t batch_size = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    std::vector<std::vector<sql::Value>> rows;
    rows.reserve(batch_size);
    for (size_t i = 0; i < batch_size; ++i) {
      rows.push_back(IngestRow(rng, 5));
    }
    auto s = h.engine->ObserveStreamHistoryBulk("R0", rows);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch_size));
}
BENCHMARK(BM_ObserveHistoryBulk)->Arg(256)->Iterations(80);

}  // namespace

// BENCHMARK_MAIN, plus a default --benchmark_out so the run always leaves a
// machine-readable BENCH_micro_core.json next to the fig benches' files
// (directory overridable with RJOIN_BENCH_OUT).
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) has_out = true;
  }
  std::string out_flag, format_flag;
  if (!has_out) {
    out_flag = "--benchmark_out=" + rjoin::bench::BenchOutDir() +
               "/BENCH_micro_core.json";
    format_flag = "--benchmark_out_format=json";
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
