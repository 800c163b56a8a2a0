#include "workload/experiment.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "util/logging.h"

namespace rjoin::workload {

void ExperimentConfig::ApplyScale(double factor) {
  if (factor == 1.0) return;
  num_nodes = std::max<size_t>(16, static_cast<size_t>(num_nodes * factor));
  num_queries =
      std::max<size_t>(16, static_cast<size_t>(num_queries * factor));
}

double ScaleFromEnv(double default_factor) {
  const char* env = std::getenv("RJOIN_SCALE");
  if (env == nullptr || *env == '\0') return default_factor;
  const std::string s(env);
  if (s == "paper" || s == "PAPER" || s == "full") return 1.0;
  const double v = std::atof(env);
  return v > 0.0 ? v : default_factor;
}

uint32_t ResolveShardCount(uint32_t requested) {
  if (requested == ExperimentConfig::kForceSerial) return 0;
  if (requested >= 1) return std::min<uint32_t>(requested, 64);
  const char* env = std::getenv("RJOIN_SHARDS");
  if (env == nullptr || *env == '\0') return 0;
  const long v = std::atol(env);
  if (v <= 0) return 0;
  return static_cast<uint32_t>(std::min<long>(v, 64));
}

std::optional<ChurnSpec> ResolveChurnSpec(const ExperimentConfig& config) {
  if (config.churn.has_value()) return config.churn;
  const char* env = std::getenv("RJOIN_CHURN");
  if (env == nullptr || *env == '\0') return std::nullopt;
  const double rate = std::atof(env);
  if (rate <= 0.0) return std::nullopt;
  ChurnSpec spec;
  spec.rate = rate;
  return spec;
}

uint32_t ResolveReplication(uint32_t requested) {
  // Clamp to the successor-list length: a mirror cannot reach farther than
  // the ground-truth successor list the recovery path walks.
  if (requested >= 1) return std::min<uint32_t>(requested, 8);
  const char* env = std::getenv("RJOIN_REPLICATION");
  if (env == nullptr || *env == '\0') return 1;
  const long v = std::atol(env);
  if (v <= 1) return 1;
  return static_cast<uint32_t>(std::min<long>(v, 8));
}

double ExperimentResult::MsgsPerNodePerTuple() const {
  if (per_tuple.empty() || num_nodes == 0) return 0.0;
  const uint64_t tuple_msgs =
      per_tuple.back().total_messages - traffic_after_queries;
  return static_cast<double>(tuple_msgs) /
         (static_cast<double>(num_nodes) *
          static_cast<double>(per_tuple.size()));
}

double ExperimentResult::RicMsgsPerNodePerTuple() const {
  if (per_tuple.empty() || num_nodes == 0) return 0.0;
  const uint64_t ric = per_tuple.back().ric_messages - ric_after_queries;
  return static_cast<double>(ric) / (static_cast<double>(num_nodes) *
                                     static_cast<double>(per_tuple.size()));
}

double ExperimentResult::TotalMsgsPerNode() const {
  if (per_tuple.empty() || num_nodes == 0) return 0.0;
  return static_cast<double>(per_tuple.back().total_messages) /
         static_cast<double>(num_nodes);
}

double ExperimentResult::RicMsgsPerNode() const {
  if (per_tuple.empty() || num_nodes == 0) return 0.0;
  return static_cast<double>(per_tuple.back().ric_messages) /
         static_cast<double>(num_nodes);
}

double ExperimentResult::QplPerNode() const {
  if (per_tuple.empty() || num_nodes == 0) return 0.0;
  return static_cast<double>(per_tuple.back().total_qpl) /
         static_cast<double>(num_nodes);
}

Experiment::Experiment(ExperimentConfig config)
    : config_(std::move(config)),
      resolved_churn_(ResolveChurnSpec(config_)),
      catalog_(BuildCatalog(config_.workload)),
      latency_(1) {
  if (config_.node_positions.has_value()) {
    network_ = dht::ChordNetwork::CreateWithPositions(*config_.node_positions);
  } else {
    // Churn runs reserve `spare_nodes` extra leave victims past the
    // participant indices [0, num_nodes).
    const size_t spares =
        resolved_churn_.has_value() ? resolved_churn_->spare_nodes : 0;
    network_ =
        dht::ChordNetwork::Create(config_.num_nodes + spares, config_.seed);
  }
  metrics_.Resize(network_->num_total());
  transport_ = std::make_unique<dht::Transport>(network_.get(), &sim_,
                                                &latency_, &metrics_,
                                                Rng(config_.seed ^ 0xabcdef));
  core::EngineConfig ecfg;
  ecfg.policy = config_.policy;
  ecfg.rewrite_levels = config_.rewrite_levels;
  ecfg.charge_ric_messages = config_.charge_ric;
  ecfg.reuse_ric_info = config_.reuse_ric_info;
  ecfg.attr_replication = config_.attr_replication;
  ecfg.replication = ResolveReplication(config_.replication);
  ecfg.keep_history = config_.keep_history;
  ecfg.seed = config_.seed ^ 0x5eed;
  // Observation epoch: roughly 16 tuple publications.
  ecfg.ric_epoch = std::max<uint64_t>(1, 16 * config_.tuple_gap);
  ecfg.ct_validity = 4 * ecfg.ric_epoch;
  engine_ = std::make_unique<core::RJoinEngine>(ecfg, catalog_.get(),
                                                network_.get(),
                                                transport_.get(), &sim_,
                                                &metrics_);

  resolved_shards_ = ResolveShardCount(config_.shards);
  if (resolved_shards_ >= 1) {
    runtime::ShardedRuntime::Options opt;
    opt.shards = resolved_shards_;
    // Lookahead comes from the latency model alone — it is a timing
    // guarantee, not a tuning knob.
    opt.lookahead = runtime::AutoRoundWidth(latency_);
    runtime_ = std::make_unique<runtime::ShardedRuntime>(
        opt, network_->num_total(), &metrics_);
    router_ = std::make_unique<runtime::ShardRouter>(runtime_.get(),
                                                     config_.seed ^ 0xabcdef);
    transport_->set_router(router_.get());
    engine_->AttachRuntime(runtime_.get());
  }
}

Experiment::~Experiment() = default;

void Experiment::RunToQuiescence() {
  if (runtime_ != nullptr) {
    runtime_->Run();
  } else {
    sim_.Run();
  }
}

void Experiment::RunUntilTime(sim::SimTime until) {
  if (runtime_ != nullptr) {
    runtime_->RunUntil(until);
  } else {
    sim_.RunUntil(until);
  }
}

sim::SimTime Experiment::NowTime() const {
  return runtime_ != nullptr ? runtime_->Now() : sim_.Now();
}

LoadSnapshot Experiment::Snapshot(size_t after_tuples) const {
  LoadSnapshot snap;
  snap.after_tuples = after_tuples;
  const auto& nodes = metrics_.all_nodes();
  snap.messages.reserve(nodes.size());
  for (const auto& m : nodes) {
    snap.messages.push_back(m.messages_sent);
    snap.ric_messages.push_back(m.ric_messages_sent);
    snap.qpl.push_back(m.qpl);
    snap.storage.push_back(
        m.storage_current > 0 ? static_cast<uint64_t>(m.storage_current) : 0);
  }
  snap.allocs = stats::ReadAllocCounts();
  snap.route_cache = dht::RouteCache::Aggregate();
  return snap;
}

ExperimentResult Experiment::Run() {
  ExperimentResult result;
  // Per-node averages divide by the fixed participant count, so a churn
  // sweep (whose spare/joiner population scales with the rate) keeps a
  // comparable denominator across rates. Without churn this equals
  // num_alive() exactly.
  result.num_nodes = std::min<size_t>(network_->num_alive(),
                                      config_.num_nodes);
  result.num_tuples = config_.num_tuples;

  // Query owners and tuple publishers come from the participant prefix
  // only: churn spares and joined nodes may depart mid-stream, and an
  // answer addressed to a departed owner would be lost.
  std::vector<dht::NodeIndex> alive;
  for (dht::NodeIndex n : network_->AliveNodes()) {
    if (n < config_.num_nodes) alive.push_back(n);
  }
  Rng placement_rng(config_.seed ^ 0x9a9a9a);

  // Phase 0: prime the tuple-rate trackers with stream history (same
  // distribution as the live stream) so indexing decisions can use RIC.
  // All observations carry the same (pre-stream) timestamp, so grouping the
  // draws by relation and recording them through the bulk path produces the
  // same rates while resolving each relation's attribute-level nodes once.
  {
    TupleGenerator warm(config_.workload, catalog_.get(),
                        config_.seed * 29 + 11);
    std::vector<TupleGenerator::Batch> batches;
    warm.NextBatch(config_.warmup_observations, &batches);
    for (const TupleGenerator::Batch& batch : batches) {
      RJOIN_CHECK(
          engine_->ObserveStreamHistoryBulk(batch.relation, batch.rows).ok());
    }
  }

  // Phase 1: submit continuous queries from random owner nodes.
  QueryGenerator qgen(config_.workload, catalog_.get(), config_.seed * 7 + 1);
  sql::WindowSpec window;
  if (config_.window.has_value()) window = *config_.window;
  for (size_t i = 0; i < config_.num_queries; ++i) {
    const dht::NodeIndex owner =
        alive[placement_rng.NextBounded(alive.size())];
    auto id = engine_->SubmitQuery(owner, qgen.Next(config_.way, window));
    RJOIN_CHECK(id.ok()) << id.status().ToString();
  }
  RunToQuiescence();
  result.traffic_after_queries = metrics_.total_messages();
  result.ric_after_queries = metrics_.total_ric_messages();

  // Phase 1.5: lay out the churn trace across the coming stream span; its
  // events are released into the event plane as the stream clock reaches
  // them (in-band NodeJoin/NodeLeave messages the engine stages and
  // applies at round barriers).
  if (resolved_churn_.has_value()) BuildChurnTrace(NowTime());

  // Phase 2: stream tuples. Each tuple is processed to quiescence so the
  // per-tuple load attribution matches the paper's measurement method.
  TupleGenerator tgen(config_.workload, catalog_.get(), config_.seed * 13 + 5);
  size_t next_checkpoint = 0;
  result.per_tuple.reserve(config_.num_tuples);
  // One reused draw buffer: the streaming loop publishes from it by const
  // reference, so the driver side of the stream allocates nothing per tuple.
  TupleGenerator::Draw d;
  for (size_t i = 0; i < config_.num_tuples; ++i) {
    // Churn ops due within this publication slot enter the event plane
    // now, so topology mutations interleave with the stream instead of
    // being drained all at once by the first RunToQuiescence.
    if (resolved_churn_.has_value()) {
      ReleaseChurnUpTo(NowTime() + config_.tuple_gap);
    }
    const dht::NodeIndex publisher =
        alive[placement_rng.NextBounded(alive.size())];
    tgen.Next(&d);
    auto t = engine_->PublishTuple(publisher, d.relation, d.values);
    RJOIN_CHECK(t.ok()) << t.status().ToString();
    if (config_.pipeline_stream) {
      // Streaming mode: advance one inter-arrival slot and keep cascades
      // from multiple tuples in flight (the parallel runtime's bread and
      // butter). The final drain happens after the loop.
      RunUntilTime(NowTime() + config_.tuple_gap);
    } else {
      RunToQuiescence();
    }

    PerTupleSample sample;
    sample.total_messages = metrics_.total_messages();
    sample.ric_messages = metrics_.total_ric_messages();
    sample.total_qpl = metrics_.total_qpl();
    sample.total_storage = metrics_.total_storage();
    result.per_tuple.push_back(sample);

    if ((i + 1) % config_.sweep_every == 0) engine_->SweepWindows();

    while (next_checkpoint < config_.checkpoints.size() &&
           config_.checkpoints[next_checkpoint] == i + 1) {
      result.snapshots.push_back(Snapshot(i + 1));
      ++next_checkpoint;
    }

    // Advance the stream clock to the next inter-arrival slot (pipelined
    // mode already did, right after the publication).
    if (!config_.pipeline_stream) {
      RunUntilTime(NowTime() + config_.tuple_gap);
    }
  }
  // Any trace remainder (leaves pushed past the stream end by their settle
  // gap) still runs before the final drain, so every handoff lands.
  if (resolved_churn_.has_value()) {
    ReleaseChurnUpTo(UINT64_MAX);
    RunToQuiescence();
  }
  if (config_.pipeline_stream) RunToQuiescence();
  engine_->SweepWindows();

  result.final_snapshot = Snapshot(config_.num_tuples);
  result.answers_delivered = metrics_.answers_delivered();
  return result;
}

void Experiment::BuildChurnTrace(sim::SimTime stream_start) {
  const ChurnSpec& spec = *resolved_churn_;
  const sim::SimTime span =
      std::max<sim::SimTime>(1, config_.num_tuples * config_.tuple_gap);
  const uint64_t seed = spec.seed != 0 ? spec.seed : config_.seed * 77 + 3;
  size_t joins = 0;
  size_t leaves = 0;
  size_t crashes = 0;
  churn_trace_ = GenerateChurnTrace(spec, config_.num_tuples, stream_start,
                                    span, seed, &joins, &leaves, &crashes);
  churn_cursor_ = 0;
}

void Experiment::ReleaseChurnUpTo(sim::SimTime until) {
  const ChurnSpec& spec = *resolved_churn_;
  // Victim slots resolve to node indices: spares were created right after
  // the participants, and the j-th join lands on the next sequential index
  // in application (= trace) order.
  const dht::NodeIndex spare_base =
      static_cast<dht::NodeIndex>(config_.num_nodes);
  const dht::NodeIndex join_base =
      static_cast<dht::NodeIndex>(config_.num_nodes + spec.spare_nodes);
  for (; churn_cursor_ < churn_trace_.size() &&
         churn_trace_[churn_cursor_].time <= until;
       ++churn_cursor_) {
    const ChurnEvent& e = churn_trace_[churn_cursor_];
    if (e.kind == ChurnOpKind::kJoin) {
      // Bootstrap at node 0: a participant, alive for the whole run.
      RJOIN_CHECK(engine_->ScheduleJoin(e.time, e.join_id, 0).ok());
    } else {
      const dht::NodeIndex victim =
          e.victim_slot < spec.spare_nodes
              ? spare_base + static_cast<dht::NodeIndex>(e.victim_slot)
              : join_base +
                    static_cast<dht::NodeIndex>(e.victim_slot -
                                                spec.spare_nodes);
      if (e.kind == ChurnOpKind::kCrash) {
        RJOIN_CHECK(
            engine_->ScheduleCrash(e.time, victim, e.crash_successors).ok());
      } else {
        RJOIN_CHECK(engine_->ScheduleLeave(e.time, victim).ok());
      }
    }
  }
}

std::vector<dht::KeyLoad> Experiment::KeyLoadProfile() const {
  return engine_->KeyLoadProfile();
}

}  // namespace rjoin::workload
