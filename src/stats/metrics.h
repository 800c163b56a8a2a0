#ifndef RJOIN_STATS_METRICS_H_
#define RJOIN_STATS_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rjoin::stats {

/// Index of a node in the simulated network.
using NodeIndex = uint32_t;

/// Per-node counters matching the paper's Section 8 definitions:
///  - traffic: messages the node sends, including DHT-routing forwards;
///  - query processing load (QPL): rewritten queries received in order to
///    search locally stored tuples + tuples received in order to search
///    locally stored queries;
///  - storage load (SL): rewritten queries + tuples stored locally.
struct NodeMetrics {
  uint64_t messages_sent = 0;      ///< total traffic (weight 1 per message)
  uint64_t ric_messages_sent = 0;  ///< subset of traffic due to RIC requests
  uint64_t qpl = 0;                ///< cumulative query-processing load
  uint64_t storage_total = 0;      ///< cumulative items ever stored
  int64_t storage_current = 0;     ///< items stored right now (windows GC
                                   ///< decrements this)
  uint64_t altt_stored = 0;        ///< attribute-level tuple-table inserts
                                   ///< (reported separately; Section 4 fix)
};

/// Registry of per-node counters plus network-wide totals. All RJoin and DHT
/// components report through this single object so experiments can snapshot
/// and diff.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(size_t num_nodes = 0) : nodes_(num_nodes) {}

  /// Grows the registry (new nodes joining).
  void Resize(size_t num_nodes) {
    if (num_nodes > nodes_.size()) nodes_.resize(num_nodes);
  }
  size_t num_nodes() const { return nodes_.size(); }

  /// Records `count` messages sent by `node`. `ric` marks RIC-request
  /// traffic, reported as a separate series in the paper's figures.
  void AddTraffic(NodeIndex node, uint64_t count = 1, bool ric = false) {
    nodes_[node].messages_sent += count;
    total_messages_ += count;
    if (ric) {
      nodes_[node].ric_messages_sent += count;
      total_ric_messages_ += count;
    }
  }

  void AddQpl(NodeIndex node, uint64_t count = 1) {
    nodes_[node].qpl += count;
    total_qpl_ += count;
  }

  void AddStore(NodeIndex node, uint64_t count = 1) {
    nodes_[node].storage_total += count;
    nodes_[node].storage_current += static_cast<int64_t>(count);
    total_storage_ += count;
  }

  void RemoveStore(NodeIndex node, uint64_t count = 1) {
    nodes_[node].storage_current -= static_cast<int64_t>(count);
  }

  void AddAlttStore(NodeIndex node, uint64_t count = 1) {
    nodes_[node].altt_stored += count;
  }

  const NodeMetrics& node(NodeIndex i) const { return nodes_[i]; }
  const std::vector<NodeMetrics>& all_nodes() const { return nodes_; }

  uint64_t total_messages() const { return total_messages_; }
  uint64_t total_ric_messages() const { return total_ric_messages_; }
  uint64_t total_qpl() const { return total_qpl_; }
  uint64_t total_storage() const { return total_storage_; }

  /// Number of delivered answers (maintained by the RJoin engine).
  uint64_t answers_delivered() const { return answers_delivered_; }
  void AddAnswer() { ++answers_delivered_; }

 private:
  std::vector<NodeMetrics> nodes_;
  uint64_t total_messages_ = 0;
  uint64_t total_ric_messages_ = 0;
  uint64_t total_qpl_ = 0;
  uint64_t total_storage_ = 0;
  uint64_t answers_delivered_ = 0;
};

}  // namespace rjoin::stats

#endif  // RJOIN_STATS_METRICS_H_
