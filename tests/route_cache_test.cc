// Tests of the cached routing plane (dht/route_cache.h + Transport's
// SendKey/MultiSendKeys): entry round-trips against the greedy RoutePath
// ground truth, topology-generation invalidation after churn, the one-hop
// forwarding path for departed senders, hit/miss accounting, cached ==
// uncached delivery equivalence, and destination coalescing semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/interner.h"
#include "core/key.h"
#include "core/messages.h"
#include "dht/chord_network.h"
#include "dht/route_cache.h"
#include "dht/transport.h"
#include "sim/latency.h"
#include "sim/simulator.h"
#include "stats/metrics.h"
#include "util/random.h"

namespace rjoin::dht {
namespace {

// Typed test payload: an AnswerDeliver whose query_id carries the value.
core::MessageTask TestMsg(int v) {
  core::AnswerDeliver msg;
  msg.query_id = static_cast<uint64_t>(v);
  return core::MessageTask(std::move(msg));
}

class Collector : public MessageHandler {
 public:
  void HandleMessage(NodeIndex self, core::MessageTask&& task) override {
    ASSERT_EQ(task.kind(), core::MessageKind::kAnswerDeliver);
    received.emplace_back(self, static_cast<int>(task.answer().query_id));
  }
  std::vector<std::pair<NodeIndex, int>> received;
};

// ------------------------------------------------------------ RouteCache --

TEST(RouteCacheTest, InsertLookupRoundTripsTheForwardingTail) {
  auto net = ChordNetwork::Create(64, 3);
  const auto alive = net->AliveNodes();
  RouteCache cache;
  const uint64_t gen = net->topology_generation();
  const NodeId ring_id = NodeId::FromKey("round-trip-key");
  const auto path = net->Route(alive[5], ring_id);
  ASSERT_GT(path.size(), 1u);

  cache.Insert(42, gen, path);
  const RouteCache::Entry* entry = cache.Lookup(42, gen);
  ASSERT_NE(entry, nullptr);
  // The entry is the full forwarding tail path[1..]: replaying it charges
  // the same nodes and draws the same latencies as the uncached walk.
  ASSERT_EQ(entry->hops, path.size() - 1);
  for (uint32_t i = 0; i < entry->hops; ++i) {
    EXPECT_EQ(entry->hop[i], path[i + 1]);
  }
  EXPECT_EQ(entry->hop[entry->hops - 1], net->SuccessorOf(ring_id));
}

TEST(RouteCacheTest, GenerationMismatchInvalidatesEveryEntry) {
  auto net = ChordNetwork::Create(32, 4);
  const auto alive = net->AliveNodes();
  RouteCache cache;
  for (uint32_t k = 0; k < 8; ++k) {
    cache.Insert(k, /*generation=*/0,
                 net->Route(alive[0], NodeId::FromKey("g" + std::to_string(k))));
  }
  ASSERT_NE(cache.Lookup(3, 0), nullptr);
  // One generation bump (any churn op) drops the whole table...
  EXPECT_EQ(cache.Lookup(3, 1), nullptr);
  for (uint32_t k = 0; k < 8; ++k) {
    EXPECT_EQ(cache.Lookup(k, 1), nullptr);
  }
  // ...and the table re-fills at the new generation.
  const auto path = net->Route(alive[0], NodeId::FromKey("g3"));
  cache.Insert(3, 1, path);
  const RouteCache::Entry* entry = cache.Lookup(3, 1);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->hops, path.size() - 1);
}

TEST(RouteCacheTest, SelfRoutesAndOverlongPathsStayUncached) {
  RouteCache cache;
  // A self-route (source is responsible) has no forwarding tail.
  cache.Insert(1, 0, std::vector<NodeIndex>{7});
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
  // Paths longer than kMaxCachedHops recompute every time.
  std::vector<NodeIndex> long_path(RouteCache::kMaxCachedHops + 2);
  for (size_t i = 0; i < long_path.size(); ++i) {
    long_path[i] = static_cast<NodeIndex>(i);
  }
  cache.Insert(2, 0, long_path);
  EXPECT_EQ(cache.Lookup(2, 0), nullptr);
}

TEST(RouteCacheTest, AggregateCountsHitsAndMisses) {
  const RouteCache::Stats before = RouteCache::Aggregate();
  auto net = ChordNetwork::Create(16, 5);
  const auto alive = net->AliveNodes();
  RouteCache cache;
  EXPECT_EQ(cache.Lookup(9, 0), nullptr);  // miss
  const auto path = net->Route(alive[1], NodeId::FromKey("acct"));
  if (path.size() > 1) {
    cache.Insert(9, 0, path);
    EXPECT_NE(cache.Lookup(9, 0), nullptr);  // hit
    EXPECT_NE(cache.Lookup(9, 0), nullptr);  // hit
    const RouteCache::Stats after = RouteCache::Aggregate();
    EXPECT_EQ(after.hits - before.hits, 2u);
    EXPECT_EQ(after.misses - before.misses, 1u);
  }
}

TEST(RouteCacheTest, GrowsPastInitialCapacityWithoutLosingEntries) {
  RouteCache cache;
  std::vector<NodeIndex> path{1, 2, 3};  // tail {2, 3}
  for (uint32_t k = 0; k < 500; ++k) {
    cache.Insert(k, 0, path);
  }
  for (uint32_t k = 0; k < 500; ++k) {
    const RouteCache::Entry* e = cache.Lookup(k, 0);
    ASSERT_NE(e, nullptr) << k;
    EXPECT_EQ(e->hops, 2u);
  }
}

// -------------------------------------------------------- SuccessorCache --

TEST(SuccessorCacheTest, LookupMissesThenHitsAfterInsert) {
  const RouteCache::Stats before = RouteCache::Aggregate();
  SuccessorCache cache;
  EXPECT_EQ(cache.Lookup(7, /*generation=*/3), kInvalidNode);  // miss
  cache.Insert(7, 3, /*responsible=*/42);
  EXPECT_EQ(cache.Lookup(7, 3), 42u);  // hit
  EXPECT_EQ(cache.Lookup(7, 3), 42u);  // hit
  // Both cache levels share the process-wide counters.
  const RouteCache::Stats after = RouteCache::Aggregate();
  EXPECT_EQ(after.hits - before.hits, 2u);
  EXPECT_EQ(after.misses - before.misses, 1u);
}

TEST(SuccessorCacheTest, StaleGenerationMissesPerEntry) {
  SuccessorCache cache;
  cache.Insert(1, /*generation=*/5, 10);
  cache.Insert(2, /*generation=*/5, 11);
  // A topology bump does not clear the table; each entry simply fails its
  // per-lookup generation check until re-inserted under the new stamp.
  EXPECT_EQ(cache.Lookup(1, 6), kInvalidNode);
  EXPECT_EQ(cache.Lookup(2, 6), kInvalidNode);
  cache.Insert(1, 6, 20);
  EXPECT_EQ(cache.Lookup(1, 6), 20u);
  // The overwritten slot no longer answers for the old generation either.
  EXPECT_EQ(cache.Lookup(1, 5), kInvalidNode);
  // Untouched entries stay valid under their own stamp (the transport only
  // ever queries with its network's current generation, but the memo
  // itself is per-entry, not per-table).
  EXPECT_EQ(cache.Lookup(2, 5), 11u);
}

TEST(SuccessorCacheTest, GrowsToCoverLargeKeyIds) {
  SuccessorCache cache;
  cache.Insert(100000, /*generation=*/2, 9);
  EXPECT_EQ(cache.Lookup(100000, 2), 9u);
  EXPECT_EQ(cache.Lookup(99999, 2), kInvalidNode);  // neighbors untouched
}

TEST(SuccessorCacheTest, SweepBookkeepingTracksGenerations) {
  SuccessorCache cache;
  EXPECT_EQ(cache.swept_generation(), 0u);  // never swept
  cache.set_swept_generation(4);
  EXPECT_EQ(cache.swept_generation(), 4u);
}

// ----------------------------------------------------- Transport + cache --

class TransportCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = ChordNetwork::Create(32, 11);
    metrics_.Resize(net_->num_total());
    transport_ = std::make_unique<Transport>(net_.get(), &sim_, &latency_);
    transport_->set_handler(&collector_);
  }

  core::KeyId Intern(const std::string& text) {
    return core::KeyInterner::Global().Intern(text, core::Level::kValue);
  }

  std::unique_ptr<ChordNetwork> net_;
  sim::FixedLatency latency_{1};
  stats::MetricsRegistry metrics_;
  sim::Simulator sim_{&metrics_, 5};
  std::unique_ptr<Transport> transport_;
  Collector collector_;
};

TEST_F(TransportCacheTest, WarmSendKeyIsBitIdenticalToColdSendKey) {
  const core::KeyId key = Intern("warm-vs-cold");
  const NodeIndex src = net_->AliveNodes()[0];
  const NodeIndex responsible =
      net_->SuccessorOf(core::KeyInterner::Global().ring_id(key));

  const size_t cold_hops = transport_->SendKey(src, key, TestMsg(1));
  sim_.Run();
  const uint64_t cold_messages = metrics_.total_messages();
  const sim::SimTime cold_elapsed = sim_.Now();

  // The second send resolves from the cache; hop count, per-hop traffic
  // charges, and delivery delay must replay the cold walk exactly.
  const size_t warm_hops = transport_->SendKey(src, key, TestMsg(2));
  sim_.Run();
  EXPECT_EQ(warm_hops, cold_hops);
  EXPECT_EQ(metrics_.total_messages() - cold_messages, cold_messages);
  EXPECT_EQ(sim_.Now() - cold_elapsed, cold_elapsed);
  ASSERT_EQ(collector_.received.size(), 2u);
  EXPECT_EQ(collector_.received[0].first, responsible);
  EXPECT_EQ(collector_.received[1].first, responsible);
}

TEST_F(TransportCacheTest, LeaveNodeInvalidatesTheCachedRoute) {
  const core::KeyId key = Intern("leave-invalidates");
  const NodeId ring_id = core::KeyInterner::Global().ring_id(key);
  NodeIndex src = net_->AliveNodes()[0];
  const NodeIndex old_responsible = net_->SuccessorOf(ring_id);
  if (src == old_responsible) src = net_->AliveNodes()[1];

  transport_->SendKey(src, key, TestMsg(1));  // warms the cache
  sim_.Run();

  // The responsible node departs: the topology generation bumps, so the
  // stale entry (ending at the dead node) is never replayed — the next
  // send re-walks and delivers to the spliced-in successor.
  ASSERT_TRUE(net_->LeaveNode(old_responsible).ok());
  const NodeIndex new_responsible = net_->SuccessorOf(ring_id);
  ASSERT_NE(new_responsible, old_responsible);

  collector_.received.clear();
  transport_->SendKey(src, key, TestMsg(2));
  sim_.Run();
  ASSERT_EQ(collector_.received.size(), 1u);
  EXPECT_EQ(collector_.received[0].first, new_responsible);
}

TEST_F(TransportCacheTest, DepartedSenderTakesOneHopForwarding) {
  const core::KeyId key = Intern("departed-sender");
  const NodeId ring_id = core::KeyInterner::Global().ring_id(key);
  const auto alive = net_->AliveNodes();
  NodeIndex src = alive[0];
  if (src == net_->SuccessorOf(ring_id)) src = alive[1];

  transport_->SendKey(src, key, TestMsg(1));  // warms the cache
  sim_.Run();

  // The *sender* departs. An in-flight handoff may still emit from it: the
  // post-churn forwarding rule charges exactly one transmission and hands
  // the message one hop to the current responsible, cache not consulted.
  ASSERT_TRUE(net_->LeaveNode(src).ok());
  const NodeIndex responsible = net_->SuccessorOf(ring_id);
  collector_.received.clear();
  const uint64_t before = metrics_.total_messages();
  const sim::SimTime t0 = sim_.Now();
  transport_->SendKey(src, key, TestMsg(2));
  sim_.Run();
  ASSERT_EQ(collector_.received.size(), 1u);
  EXPECT_EQ(collector_.received[0].first, responsible);
  EXPECT_EQ(metrics_.total_messages() - before, 1u);
  EXPECT_EQ(sim_.Now() - t0, 1u);  // FixedLatency(1), one hop
}

TEST_F(TransportCacheTest, DisabledCacheMatchesEnabledCacheExactly) {
  // Two identically seeded transports over identically seeded networks,
  // one with the cache killed: every delivery and every counter must be
  // bit-identical — the cache may change who computes the path, never the
  // path.
  auto net2 = ChordNetwork::Create(32, 11);
  stats::MetricsRegistry metrics2;
  metrics2.Resize(net2->num_total());
  sim::Simulator sim2(&metrics2, 5);
  Collector collector2;
  Transport uncached(net2.get(), &sim2, &latency_);
  uncached.set_handler(&collector2);
  uncached.set_route_cache_enabled(false);

  Rng keys(77);
  for (int i = 0; i < 40; ++i) {
    const core::KeyId key =
        Intern("dis-vs-en:" + std::to_string(keys.Next() % 12));
    const NodeIndex src = net_->AliveNodes()[i % 32];
    const size_t hops_cached = transport_->SendKey(src, key, TestMsg(i));
    const size_t hops_plain = uncached.SendKey(src, key, TestMsg(i));
    EXPECT_EQ(hops_cached, hops_plain) << i;
  }
  sim_.Run();
  sim2.Run();
  EXPECT_EQ(collector_.received, collector2.received);
  EXPECT_EQ(metrics_.total_messages(), metrics2.total_messages());
  EXPECT_EQ(sim_.Now(), sim2.Now());
}

TEST_F(TransportCacheTest, MultiSendKeysCoalescesByDestination) {
  const NodeIndex src = net_->AliveNodes()[3];
  // A batch with deliberate destination repeats: 3 distinct keys, each
  // carried 4 times.
  std::vector<std::pair<core::KeyId, core::MessageTask>> batch;
  std::vector<NodeIndex> expect_dst;
  for (int i = 0; i < 12; ++i) {
    const core::KeyId key = Intern("coalesce:" + std::to_string(i % 3));
    batch.emplace_back(key, TestMsg(i));
    expect_dst.push_back(
        net_->SuccessorOf(core::KeyInterner::Global().ring_id(key)));
  }
  const Transport::CoalesceStats before = Transport::AggregateCoalesce();
  transport_->MultiSendKeys(src, &batch);
  EXPECT_TRUE(batch.empty());  // drained in place
  sim_.Run();

  // Every payload arrives at its own responsible node.
  ASSERT_EQ(collector_.received.size(), 12u);
  for (int i = 0; i < 12; ++i) {
    const int v = collector_.received[i].second;
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 12);
    EXPECT_EQ(collector_.received[i].first,
              expect_dst[static_cast<size_t>(v)]);
  }

  // One wire message per distinct destination, all 12 payloads accounted.
  const Transport::CoalesceStats after = Transport::AggregateCoalesce();
  std::vector<NodeIndex> distinct = expect_dst;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  EXPECT_EQ(after.groups - before.groups, distinct.size());
  EXPECT_EQ(after.payloads - before.payloads, 12u);
}

}  // namespace
}  // namespace rjoin::dht
