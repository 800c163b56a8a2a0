#include "stats/metrics.h"

namespace rjoin::stats {

void MetricsRegistry::MergeFrom(MetricsRegistry* shard) {
  RJOIN_CHECK(shard->nodes_.size() <= nodes_.size())
      << "shard registry larger than the main registry";
  auto merge_node = [&](NodeIndex n) {
    NodeMetrics& from = shard->nodes_[n];
    NodeMetrics& to = nodes_[n];
    to.messages_sent += from.messages_sent;
    to.ric_messages_sent += from.ric_messages_sent;
    to.qpl += from.qpl;
    to.storage_total += from.storage_total;
    to.storage_current += from.storage_current;
    to.altt_stored += from.altt_stored;
    from = NodeMetrics{};
  };
  if (shard->track_dirty_) {
    for (NodeIndex n : shard->dirty_) {
      merge_node(n);
      shard->touched_[n] = 0;
    }
    shard->dirty_.clear();
  } else {
    for (NodeIndex n = 0; n < shard->nodes_.size(); ++n) merge_node(n);
  }
  total_messages_ += shard->total_messages_;
  total_ric_messages_ += shard->total_ric_messages_;
  total_qpl_ += shard->total_qpl_;
  total_storage_ += shard->total_storage_;
  answers_delivered_ += shard->answers_delivered_;
  shard->total_messages_ = 0;
  shard->total_ric_messages_ = 0;
  shard->total_qpl_ = 0;
  shard->total_storage_ = 0;
  shard->answers_delivered_ = 0;
}

}  // namespace rjoin::stats
