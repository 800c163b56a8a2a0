#ifndef RJOIN_WORKLOAD_EXPERIMENT_H_
#define RJOIN_WORKLOAD_EXPERIMENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/engine.h"
#include "dht/chord_network.h"
#include "dht/route_cache.h"
#include "dht/transport.h"
#include "runtime/shard_router.h"
#include "runtime/sharded_runtime.h"
#include "sim/latency.h"
#include "sim/simulator.h"
#include "sql/schema.h"
#include "stats/alloc_tracker.h"
#include "stats/distribution.h"
#include "stats/metrics.h"
#include "workload/churn.h"
#include "workload/generator.h"

namespace rjoin::workload {

/// One experiment of the paper's Section 8: build a Chord network, submit Q
/// continuous k-way joins, stream T tuples, measure traffic / query
/// processing load / storage load.
struct ExperimentConfig {
  size_t num_nodes = 1000;
  size_t num_queries = 20000;
  size_t num_tuples = 400;
  int way = 4;  ///< relations per join query (4/6/8 in Fig. 6)

  WorkloadParams workload;  ///< schema + Zipf parameters

  core::PlannerPolicy policy = core::PlannerPolicy::kRic;
  bool charge_ric = true;

  /// Candidate levels for rewritten queries. The benches use
  /// kIncludeAttribute (the full Section 6 candidate set) so the Worst
  /// baseline can actually make the worst choice; kValuePreferred keeps
  /// strict eventual completeness with finite Delta (see planner.h).
  core::RewriteIndexLevels rewrite_levels =
      core::RewriteIndexLevels::kValuePreferred;

  /// Section 7's candidate-table + piggy-backing reuse (ablation knob).
  bool reuse_ric_info = true;

  /// Attribute-level query replication factor ([18]; ablation knob).
  uint32_t attr_replication = 1;

  /// Successor-list state replication factor r (docs/failures.md): every
  /// state-mutating delivery mirrors its per-key slice to the next r-1
  /// successors, and a silent crash promotes the replica at the new owner.
  /// 0 (default) resolves from the RJOIN_REPLICATION environment variable;
  /// when that is unset too, r = 1 (replication off, zero overhead).
  uint32_t replication = 0;

  /// Same window for all queries (Fig. 7/8); nullopt = no windows.
  std::optional<sql::WindowSpec> window;

  /// Run window GC every this many tuples.
  size_t sweep_every = 32;

  /// Ticks between consecutive tuple publications (the stream's
  /// inter-arrival gap; also the clock for time-based windows).
  uint64_t tuple_gap = 16;

  /// Explicit ring positions (id-movement experiment, Fig. 9).
  std::optional<std::vector<dht::NodeId>> node_positions;

  bool keep_history = false;  ///< record tuples for oracle checks

  /// Worker shards of the parallel runtime. 0 (default) resolves from the
  /// RJOIN_SHARDS environment variable; when that is unset/0 too, the
  /// experiment runs on the serial sim::Simulator exactly as before. Any
  /// value >= 1 (explicit or via env) runs on the ShardedRuntime — S=1
  /// executes the identical round schedule serially, so S=1 vs S=4 runs
  /// are bit-identical (see docs/runtime.md). kForceSerial pins the legacy
  /// serial path even when RJOIN_SHARDS is set (baseline rows of the
  /// scaling bench).
  uint32_t shards = 0;

  static constexpr uint32_t kForceSerial = UINT32_MAX;

  /// Stream tuples back-to-back (one publication per tuple_gap of virtual
  /// time, with cascades from many tuples in flight at once) instead of
  /// draining each tuple to quiescence before the next. This is the
  /// steady-state streaming mode the scaling bench measures; per-tuple
  /// samples then reflect what had completed by each publication slot
  /// rather than each tuple's full cost.
  bool pipeline_stream = false;

  uint64_t seed = 1;

  /// Live topology churn while the tuple stream runs: joins, graceful
  /// leaves, and (via ChurnSpec::faults) silent crashes scheduled as
  /// in-band events (see docs/churn.md, docs/failures.md). Unset, the
  /// RJOIN_CHURN environment variable (a rate in churn ops per tuple) can
  /// switch churn on; both unset = static topology, zero overhead. Spare
  /// nodes and joined nodes are excluded from query-owner/publisher
  /// placement, so answers are never addressed to a departed node.
  std::optional<ChurnSpec> churn;

  /// Stream-history draws observed (rates only, no publication) before any
  /// query is submitted, so RIC has a "last window" to consult. Models the
  /// long-running stream of the paper's setting.
  size_t warmup_observations = 64;

  /// Capture per-node load snapshots after these many tuples.
  std::vector<size_t> checkpoints;

  /// Scales num_nodes/num_queries (x-axis parameters like tuple counts are
  /// left untouched). Benches default to 0.25 of paper scale; set
  /// RJOIN_SCALE=paper for full size.
  void ApplyScale(double factor);
};

/// Reads the RJOIN_SCALE environment variable: "paper" => 1.0, a number =>
/// that factor, unset => `default_factor`.
double ScaleFromEnv(double default_factor = 0.25);

/// Resolves the shard count an experiment will actually use: `requested`
/// when >= 1, else the RJOIN_SHARDS environment variable (clamped to
/// [1, 64]), else 0 = the serial simulator path.
/// ExperimentConfig::kForceSerial always resolves to 0.
uint32_t ResolveShardCount(uint32_t requested);

/// Resolves the churn spec an experiment will use: the config's spec when
/// set, else one built from the RJOIN_CHURN environment variable (churn
/// operations per published tuple; unset/0 = no churn).
std::optional<ChurnSpec> ResolveChurnSpec(const ExperimentConfig& config);

/// Resolves the replication factor an experiment will use: `requested` when
/// >= 1 (clamped to [1, 8], the successor-list length), else the
/// RJOIN_REPLICATION environment variable, else 1 (replication off).
uint32_t ResolveReplication(uint32_t requested);

/// Per-node load vectors captured at a checkpoint.
struct LoadSnapshot {
  size_t after_tuples = 0;
  std::vector<uint64_t> messages;      ///< cumulative traffic per node
  std::vector<uint64_t> ric_messages;  ///< cumulative RIC traffic per node
  std::vector<uint64_t> qpl;           ///< cumulative QPL per node
  std::vector<uint64_t> storage;       ///< current stored items per node
  /// Cumulative per-plane heap-allocation counters at the checkpoint, so a
  /// bench can report steady-state allocs_per_tuple over a tail window
  /// (between two checkpoints) instead of averaging in the cold ramp.
  stats::AllocCounts allocs;
  /// Cumulative route-cache counters at the checkpoint (process-wide, same
  /// windowing idea: steady-state route_cache_hit_rate is the delta between
  /// two checkpoints, excluding the cold first-sight ramp).
  dht::RouteCache::Stats route_cache;
};

/// Cumulative totals sampled after each published tuple (Fig. 8).
struct PerTupleSample {
  uint64_t total_messages = 0;
  uint64_t ric_messages = 0;
  uint64_t total_qpl = 0;
  uint64_t total_storage = 0;  ///< cumulative stores (not reduced by GC)
};

struct ExperimentResult {
  uint64_t traffic_after_queries = 0;  ///< messages spent indexing queries
  uint64_t ric_after_queries = 0;
  std::vector<PerTupleSample> per_tuple;  ///< cumulative series, one per tuple
  std::vector<LoadSnapshot> snapshots;    ///< at requested checkpoints
  LoadSnapshot final_snapshot;
  uint64_t answers_delivered = 0;
  size_t num_nodes = 0;
  size_t num_tuples = 0;

  /// Average messages per node per tuple over the tuple phase
  /// (the y-axis of Figs. 3a-7a).
  double MsgsPerNodePerTuple() const;
  double RicMsgsPerNodePerTuple() const;
  /// Average total messages per node including query indexing (Fig. 2a).
  double TotalMsgsPerNode() const;
  double RicMsgsPerNode() const;
  double QplPerNode() const;
};

/// Drives one experiment end to end. Also exposes the pieces so benches and
/// examples can interleave custom steps (e.g. the two-phase id-movement run).
class Experiment {
 public:
  explicit Experiment(ExperimentConfig config);
  ~Experiment();

  /// Submits queries, streams tuples, returns measurements.
  ExperimentResult Run();

  /// The engine's observed per-key storage responsibility (input to the
  /// id-movement balancer).
  std::vector<dht::KeyLoad> KeyLoadProfile() const;

  core::RJoinEngine& engine() { return *engine_; }
  const stats::MetricsRegistry& metrics() const { return metrics_; }
  const sql::Catalog& catalog() const { return *catalog_; }
  sim::Simulator& simulator() { return sim_; }
  dht::ChordNetwork& network() { return *network_; }
  const ExperimentConfig& config() const { return config_; }

  /// The parallel runtime, or nullptr on the serial path.
  runtime::ShardedRuntime* runtime() { return runtime_.get(); }

  /// Event-pump seams (serial simulator or sharded runtime).
  void RunToQuiescence();
  void RunUntilTime(sim::SimTime until);
  sim::SimTime NowTime() const;

 private:
  LoadSnapshot Snapshot(size_t after_tuples) const;

  /// Generates the churn trace across the stream span (events held back
  /// until the stream clock reaches them — RunToQuiescence drains every
  /// scheduled event regardless of its time, so scheduling the whole trace
  /// up front would apply it during the first tuple's cascade).
  void BuildChurnTrace(sim::SimTime stream_start);

  /// Schedules every pending trace event with time <= `until` as an
  /// in-band NodeJoin/NodeLeave/NodeCrash message.
  void ReleaseChurnUpTo(sim::SimTime until);

  ExperimentConfig config_;
  std::optional<ChurnSpec> resolved_churn_;
  std::vector<ChurnEvent> churn_trace_;
  size_t churn_cursor_ = 0;
  std::unique_ptr<sql::Catalog> catalog_;
  std::unique_ptr<dht::ChordNetwork> network_;
  sim::Simulator sim_;
  sim::FixedLatency latency_;
  stats::MetricsRegistry metrics_;
  std::unique_ptr<dht::Transport> transport_;
  std::unique_ptr<core::RJoinEngine> engine_;
  // Declared after engine_/transport_ so workers are joined (runtime_
  // destroyed) first on teardown.
  uint32_t resolved_shards_ = 0;
  std::unique_ptr<runtime::ShardedRuntime> runtime_;
  std::unique_ptr<runtime::ShardRouter> router_;
};

}  // namespace rjoin::workload

#endif  // RJOIN_WORKLOAD_EXPERIMENT_H_
