#ifndef RJOIN_RUNTIME_SHARDED_RUNTIME_H_
#define RJOIN_RUNTIME_SHARDED_RUNTIME_H_

#include <cstdint>

namespace rjoin::runtime {

/// The parallel runtime is gone (PAPER.md says why); every experiment runs
/// on sim::Simulator. perfbench/rjbench.cc is the only reader of these two
/// process-wide counter sets, which therefore always read zero.
class ShardedRuntime {
 public:
  struct SchedulerStats {
    uint64_t epochs = 0;
  };
  struct MailboxStats {
    uint64_t batches = 0;
    uint64_t envelopes = 0;
  };

  static SchedulerStats AggregateScheduler() { return {}; }
  static MailboxStats AggregateMailbox() { return {}; }
};

}  // namespace rjoin::runtime

#endif  // RJOIN_RUNTIME_SHARDED_RUNTIME_H_
