// Tests of the interned key-id plane: KeyInterner identity/lookup
// semantics, concurrent intern/lookup (run under TSan in CI) of the key,
// value and relation-name dictionaries, the KeyIdMap flat container, the
// FlatU64Set (DISTINCT fingerprint semantics, including the deliberate
// collision behavior, and erase against a reference set), node-state slab
// pooling, and id-stability plus bit-identical answers across shard counts.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/engine.h"
#include "core/interner.h"
#include "core/key_map.h"
#include "core/node_state.h"
#include "core/slab_pool.h"
#include "dht/chord_network.h"
#include "dht/transport.h"
#include "runtime/sharded_runtime.h"
#include "sim/latency.h"
#include "sim/event_pump.h"
#include "sql/parser.h"
#include "sql/schema.h"
#include "stats/metrics.h"

namespace rjoin::core {
namespace {

// ------------------------------------------------------------ KeyInterner --

TEST(KeyInternerTest, InternIsIdempotent) {
  KeyInterner in;
  const KeyId a = in.Intern("alpha", Level::kAttribute);
  const KeyId b = in.Intern("beta", Level::kValue);
  EXPECT_NE(a, b);
  EXPECT_EQ(in.Intern("alpha", Level::kAttribute), a);
  EXPECT_EQ(in.Intern("beta", Level::kValue), b);
  EXPECT_EQ(in.size(), 2u);
  EXPECT_EQ(in.stats().misses, 2u);
  EXPECT_EQ(in.stats().hits, 2u);
}

TEST(KeyInternerTest, EntriesRoundTrip) {
  KeyInterner in;
  const KeyId a = in.InternAttribute("R", "A");
  EXPECT_EQ(in.text(a), AttributeKey("R", "A").text);
  EXPECT_EQ(in.level(a), Level::kAttribute);
  EXPECT_EQ(in.ring_id(a), KeyRingId(AttributeKey("R", "A")));

  const KeyId v = in.InternValue("R", "A", sql::Value::Int(42));
  EXPECT_EQ(in.text(v), ValueKey("R", "A", sql::Value::Int(42)).text);
  EXPECT_EQ(in.level(v), Level::kValue);
  EXPECT_EQ(in.ring_id(v), KeyRingId(ValueKey("R", "A", sql::Value::Int(42))));

  // The boundary IndexKey form interns to the same id as the builders.
  EXPECT_EQ(in.Intern(AttributeKey("R", "A")), a);
}

TEST(KeyInternerTest, FindMissesWithoutInserting) {
  KeyInterner in;
  EXPECT_EQ(in.Find("never-interned"), kInvalidKeyId);
  EXPECT_EQ(in.size(), 0u);
  const KeyId a = in.Intern("present", Level::kAttribute);
  EXPECT_EQ(in.Find("present"), a);
}

TEST(KeyInternerTest, SameTextAtBothLevelsStaysDistinct) {
  // A sharded attribute key's text can equal a value key's text: with
  // shard suffix "#3", AttributeKey(R, A)+shard 3 and ValueKey(R, A, "#3")
  // concatenate identically. Identity is the (text, level) pair, so the
  // two intern to distinct ids that share a ring position — exactly the
  // seed's IndexKey{text, level} semantics.
  KeyInterner in;
  const KeyId attr = in.WithShard(in.InternAttribute("R", "A"), 3);
  const KeyId value = in.InternValue("R", "A", sql::Value::Str("#3"));
  ASSERT_EQ(in.text(attr), in.text(value));
  EXPECT_NE(attr, value);
  EXPECT_EQ(in.level(attr), Level::kAttribute);
  EXPECT_EQ(in.level(value), Level::kValue);
  EXPECT_EQ(in.ring_id(attr), in.ring_id(value));
  EXPECT_EQ(in.Find(in.text(attr), Level::kAttribute), attr);
  EXPECT_EQ(in.Find(in.text(value), Level::kValue), value);
}

TEST(KeyInternerTest, WithShardMatchesBoundaryForm) {
  KeyInterner in;
  const KeyId base = in.InternAttribute("R", "A");
  EXPECT_EQ(in.WithShard(base, 0), base);
  const KeyId s3 = in.WithShard(base, 3);
  EXPECT_EQ(in.text(s3), ShardedAttributeKey("R", "A", 3).text);
  EXPECT_EQ(in.level(s3), Level::kAttribute);
}

TEST(KeyInternerTest, SurvivesIndexResizes) {
  // Push well past the initial 1024-slot index so reads span resizes.
  KeyInterner in;
  std::vector<KeyId> ids;
  for (int i = 0; i < 5000; ++i) {
    ids.push_back(in.Intern("key-" + std::to_string(i), Level::kValue));
  }
  EXPECT_EQ(in.size(), 5000u);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(in.Find("key-" + std::to_string(i)), ids[i]);
    EXPECT_EQ(in.text(ids[i]), "key-" + std::to_string(i));
  }
}

// The concurrency shape the sharded runtime produces: many threads
// interning overlapping key sets (mostly hits) while also looking up
// entries interned by other threads. Run under TSan in CI.
TEST(KeyInternerTest, ConcurrentInternAndLookupAgree) {
  KeyInterner in;
  constexpr int kThreads = 8;
  constexpr int kKeys = 2000;  // spans several index resizes
  std::vector<std::vector<KeyId>> ids(kThreads,
                                      std::vector<KeyId>(kKeys, 0));
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (int k = 0; k < kKeys; ++k) {
        const std::string text = "shared-" + std::to_string(k);
        const KeyId id = in.Intern(text, Level::kValue);
        ids[t][k] = id;
        // Entry fields must be fully visible through the published id.
        EXPECT_EQ(in.text(id), text);
        EXPECT_EQ(in.Find(text), id);
      }
    });
  }
  for (auto& th : threads) th.join();
  // Every thread resolved every text to the same id.
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[t], ids[0]);
  }
  EXPECT_EQ(in.size(), static_cast<uint32_t>(kKeys));
}

// The churn shape: while worker-like threads keep interning/looking up the
// steady-state key population, a "churn" thread interns waves of brand-new
// keys (the joiner's re-sharded attribute keys and fresh value keys churn
// traces produce) and immediately resolves them. Mixes first-sight inserts
// with concurrent hits across index resizes. Run under TSan in CI.
TEST(KeyInternerTest, ChurnInterleavedInternAndLookupStress) {
  KeyInterner in;
  constexpr int kWorkers = 6;
  constexpr int kSteadyKeys = 600;
  constexpr int kChurnWaves = 40;
  constexpr int kKeysPerWave = 50;
  std::atomic<int> ready{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kWorkers + 1) {
      }
      uint64_t rounds = 0;
      // At least one full round regardless of scheduling (a single-core
      // host can let the churn thread finish first).
      do {
        for (int k = 0; k < kSteadyKeys; ++k) {
          const std::string text = "steady-" + std::to_string(k);
          const KeyId id = in.Intern(text, Level::kValue);
          EXPECT_EQ(in.Find(text, Level::kValue), id);
          EXPECT_EQ(in.text(id), text);
        }
        ++rounds;
      } while (!stop.load(std::memory_order_acquire));
      EXPECT_GT(rounds, 0u) << "worker " << t << " never completed a round";
    });
  }
  std::thread churn([&] {
    ready.fetch_add(1);
    while (ready.load() < kWorkers + 1) {
    }
    for (int wave = 0; wave < kChurnWaves; ++wave) {
      for (int k = 0; k < kKeysPerWave; ++k) {
        const std::string text =
            "churn-" + std::to_string(wave) + "-" + std::to_string(k);
        const KeyId id = in.Intern(text, Level::kAttribute);
        EXPECT_EQ(in.Find(text, Level::kAttribute), id);
        EXPECT_EQ(in.level(id), Level::kAttribute);
      }
    }
    stop.store(true, std::memory_order_release);
  });
  churn.join();
  for (auto& th : threads) th.join();
  EXPECT_EQ(in.size(),
            static_cast<uint32_t>(kSteadyKeys + kChurnWaves * kKeysPerWave));
}

// ------------------------------------------ value and relation dictionaries --

// Several threads intern the same n entries in one shared order, pairs of
// them from the same offset (so first sights race), while reader threads
// look up and read back every entry an interner has published. `intern(i)`
// returns entry i's id, `find(i)` its id without inserting (entry i must be
// interned), and `matches(id, i)` reads entry `id` back against entry i.
// Asserts one id per entry, dense in [0, n). Run under TSan in CI.
template <typename Intern, typename Find, typename Matches>
void InternConcurrently(int n, const Intern& intern, const Find& find,
                        const Matches& matches) {
  constexpr int kInterners = 4;
  constexpr int kReaders = 2;
  std::vector<std::vector<uint32_t>> ids(kInterners,
                                         std::vector<uint32_t>(n));
  std::unique_ptr<std::atomic<uint32_t>[]> published(
      new std::atomic<uint32_t>[n]);
  for (int i = 0; i < n; ++i) published[i].store(kNotInterned);
  std::atomic<int> interning{kInterners};
  std::vector<std::thread> threads;
  for (int t = 0; t < kInterners; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < n; ++k) {
        const int i = (k + t / 2 * n / 2) % n;
        const uint32_t id = intern(i);
        ids[t][i] = id;
        EXPECT_EQ(find(i), id);
        EXPECT_TRUE(matches(id, i)) << i;
        published[i].store(id, std::memory_order_release);
      }
      interning.fetch_sub(1);
    });
  }
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      // At least one full pass, however the threads are scheduled.
      do {
        for (int i = 0; i < n; ++i) {
          const uint32_t id = published[i].load(std::memory_order_acquire);
          if (id == kNotInterned) continue;
          EXPECT_EQ(find(i), id);
          EXPECT_TRUE(matches(id, i)) << i;
        }
      } while (interning.load() > 0);
    });
  }
  for (auto& th : threads) th.join();
  std::vector<bool> taken(n, false);
  for (int i = 0; i < n; ++i) {
    for (int t = 1; t < kInterners; ++t) EXPECT_EQ(ids[t][i], ids[0][i]);
    ASSERT_LT(ids[0][i], static_cast<uint32_t>(n));
    EXPECT_FALSE(taken[ids[0][i]]) << "two entries share id " << ids[0][i];
    taken[ids[0][i]] = true;
  }
}

/// Entry i of the value tests: ints (negative ones too) and strings, with
/// the int 12 and the string "12" both present.
sql::Value TestValue(int i) {
  return i % 2 == 0 ? sql::Value::Int(i / 2 - 700)
                    : sql::Value::Str(std::to_string(i / 2));
}

TEST(DictionaryTest, ValuesInternConcurrentlyToOneDenseIdEach) {
  ValueInterner values;
  constexpr int kValues = 3000;  // spans several index doublings
  InternConcurrently(
      kValues, [&](int i) { return values.Intern(TestValue(i)); },
      [&](int i) { return values.Find(TestValue(i)); },
      [&](ValueId id, int i) { return values.value(id) == TestValue(i); });
  EXPECT_EQ(values.size(), static_cast<uint32_t>(kValues));
  EXPECT_NE(values.Find(sql::Value::Int(12)),
            values.Find(sql::Value::Str("12")));
  EXPECT_EQ(values.Find(sql::Value::Int(100000)), kInvalidValueId);
}

TEST(DictionaryTest, RelationNamesInternConcurrentlyToOneDenseIdEach) {
  TuplePool pool;
  constexpr int kNames = 1000;  // spans one index doubling
  auto name = [](int i) { return "Rel" + std::to_string(i); };
  // A repeated InternRelation is the lock-free lookup.
  auto intern = [&](int i) { return pool.InternRelation(name(i)); };
  InternConcurrently(kNames, intern, intern, [&](uint32_t id, int i) {
    return pool.relation_name(id) == name(i);
  });
}

// Entries are never evicted, so a full dictionary is a fatal error that
// names the dictionary; the relation names' cap (4,096) is the one a test
// can reach.
TEST(DictionaryDeathTest, AFullDictionaryNamesItself) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  TuplePool pool;
  for (int i = 0; i < 4096; ++i) pool.InternRelation("R" + std::to_string(i));
  EXPECT_EQ(pool.relation_name(4095), "R4095");
  EXPECT_DEATH(pool.InternRelation("one more"), "relation dictionary full");
}

TEST(DictionaryTest, OneThreadAssignsIdsInFirstInternOrder) {
  ValueInterner values;
  EXPECT_EQ(values.Intern(sql::Value::Int(10)), 0u);
  EXPECT_EQ(values.Intern(sql::Value::Str("a")), 1u);
  EXPECT_EQ(values.Intern(sql::Value::Int(10)), 0u);
  EXPECT_EQ(values.Intern(sql::Value::Int(-3)), 2u);
  EXPECT_EQ(values.size(), 3u);

  TuplePool pool;
  EXPECT_EQ(pool.InternRelation("S"), 0u);
  EXPECT_EQ(pool.InternRelation("R"), 1u);
  EXPECT_EQ(pool.InternRelation("S"), 0u);
  EXPECT_EQ(pool.InternRelation("T"), 2u);
  EXPECT_EQ(pool.relation_name(1), "R");

  KeyInterner keys;
  EXPECT_EQ(keys.Intern("k", Level::kValue), 0u);
  EXPECT_EQ(keys.Intern("k", Level::kAttribute), 1u);
  EXPECT_EQ(keys.InternAttribute("R", "A"), 2u);
  EXPECT_EQ(keys.Intern("k", Level::kValue), 0u);
}

// ------------------------------------------------- handoff emission order --

TEST(HandoffOrderTest, KeysInRangeSortedIgnoresMapInsertionOrder) {
  // ROADMAP note: KeyIdMap iteration order is unspecified — nothing
  // ordering-sensitive may consume it. Handoff extraction therefore sorts
  // by ring id: two maps holding the same key set in reversed insertion
  // order must emit the identical sequence.
  KeyInterner in;
  std::vector<KeyId> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back(in.Intern("hk-" + std::to_string(i), Level::kValue));
  }
  KeyIdMap<uint64_t> forward, backward;
  for (size_t i = 0; i < keys.size(); ++i) forward[keys[i]] = i;
  for (size_t i = keys.size(); i-- > 0;) backward[keys[i]] = i;

  const dht::NodeId whole_low = dht::NodeId::FromKey("range-anchor");
  const auto a =
      KeysInRangeSorted(forward, in, whole_low, whole_low);  // whole ring
  const auto b = KeysInRangeSorted(backward, in, whole_low, whole_low);
  ASSERT_EQ(a.size(), keys.size());
  EXPECT_EQ(a, b) << "emission depends on KeyIdMap insertion order";
  // And the order really is ring order.
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_TRUE(in.ring_id(a[i - 1]) < in.ring_id(a[i]) ||
                (in.ring_id(a[i - 1]) == in.ring_id(a[i]) && a[i - 1] < a[i]))
        << "not sorted by ring id at " << i;
  }
}

TEST(HandoffOrderTest, KeysInRangeSortedFiltersByRingInterval) {
  KeyInterner in;
  KeyIdMap<int> m;
  std::vector<KeyId> keys;
  for (int i = 0; i < 200; ++i) {
    const KeyId id = in.Intern("fk-" + std::to_string(i), Level::kValue);
    m[id] = i;
    keys.push_back(id);
  }
  // Pick an interval (low, high] from two interned ring positions.
  std::vector<KeyId> sorted = keys;
  SortKeysByRingId(&sorted, in);
  const dht::NodeId low = in.ring_id(sorted[40]);
  const dht::NodeId high = in.ring_id(sorted[120]);
  const auto got = KeysInRangeSorted(m, in, low, high);
  // (low, high]: sorted[41..120] inclusive — 80 keys.
  ASSERT_EQ(got.size(), 80u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], sorted[41 + i]);
    EXPECT_TRUE(dht::InIntervalOpenClosed(in.ring_id(got[i]), low, high));
  }
  // Same-level same-ring-text tie break: both levels of one text emit
  // attribute first (Level::kAttribute < Level::kValue).
  KeyIdMap<int> tied;
  const KeyId attr = in.Intern("tie-text", Level::kAttribute);
  const KeyId value = in.Intern("tie-text", Level::kValue);
  tied[value] = 1;
  tied[attr] = 2;
  const dht::NodeId anchor = in.ring_id(attr);
  const auto pair = KeysInRangeSorted(tied, in, anchor, anchor);
  ASSERT_EQ(pair.size(), 2u);
  EXPECT_EQ(pair[0], attr);
  EXPECT_EQ(pair[1], value);
}

// --------------------------------------------------------------- KeyIdMap --

TEST(KeyIdMapTest, InsertFindGrow) {
  KeyIdMap<uint64_t> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.Find(7), nullptr);
  for (KeyId k = 0; k < 1000; ++k) m[k] = k * 3;
  EXPECT_EQ(m.size(), 1000u);
  for (KeyId k = 0; k < 1000; ++k) {
    ASSERT_NE(m.Find(k), nullptr);
    EXPECT_EQ(*m.Find(k), k * 3);
  }
  EXPECT_EQ(m.Find(1000), nullptr);

  uint64_t sum = 0;
  size_t visited = 0;
  m.ForEach([&](KeyId, uint64_t& v) {
    sum += v;
    ++visited;
  });
  EXPECT_EQ(visited, 1000u);
  EXPECT_EQ(sum, 3u * (999u * 1000u) / 2u);

  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.Find(3), nullptr);
  m[3] = 9;  // reusable after clear
  EXPECT_EQ(*m.Find(3), 9u);
}

// ------------------------------------------ FlatU64Set as projection memory --

TEST(ProjectionSetTest, DeduplicatesAndGrowsPastInline) {
  FlatU64Set set;
  for (uint64_t i = 1; i <= 100; ++i) {
    EXPECT_TRUE(set.Insert(i * 0x9e3779b9u)) << i;
  }
  EXPECT_EQ(set.size(), 100u);
  for (uint64_t i = 1; i <= 100; ++i) {
    EXPECT_FALSE(set.Insert(i * 0x9e3779b9u)) << i;
  }
  EXPECT_EQ(set.size(), 100u);
}

TEST(ProjectionSetTest, ZeroFingerprintIsValid) {
  FlatU64Set set;
  EXPECT_TRUE(set.Insert(0));
  EXPECT_FALSE(set.Insert(0));
  EXPECT_EQ(set.size(), 1u);
}

// The documented collision trade-off: the set stores 64-bit fingerprints,
// not projections, so two *different* projections that fingerprint to the
// same 64-bit value are treated as one — the second is suppressed. (The
// engine's DISTINCT rule accepts this ~n^2/2^64 false-suppression rate in
// exchange for never storing projection strings.)
TEST(ProjectionSetTest, CollidingFingerprintsAreSuppressed) {
  FlatU64Set set;
  const uint64_t fp = 0xdeadbeefcafef00dull;
  EXPECT_TRUE(set.Insert(fp));   // projection A
  EXPECT_FALSE(set.Insert(fp));  // different projection B, same fingerprint
  EXPECT_EQ(set.size(), 1u);

  // The zero alias is part of the same trade: a projection hashing to 0
  // and one hashing to the alias constant collide.
  EXPECT_TRUE(set.Insert(0));
  EXPECT_FALSE(set.Insert(0x9e3779b97f4a7c15ull));
}

// -------------------------------------------------------------- FlatU64Set --

// Differential test of insert, erase and lookup against std::unordered_set,
// with the zero alias applied to the reference too. Each round starts from
// an empty set over a universe of random values plus
//  * values homed in the last slots of every table up to 4096 slots (their
//    probe chains wrap past the last slot, so erase shifts across the wrap)
//    and values homed in the first slots (where the wrapped chains land);
//  * 0 next to its alias.
// Small universes stay inline and erase there; large ones spill and double
// the table several times.
TEST(FlatU64SetTest, MatchesAReferenceSetUnderInsertEraseAndLookup) {
  constexpr uint64_t kZeroAlias = 0x9e3779b97f4a7c15ull;
  auto canon = [&](uint64_t v) { return v == 0 ? kZeroAlias : v; };
  std::mt19937_64 rng(20240611);
  for (size_t universe_size : {2, 3, 4, 5, 24, 200, 1500}) {
    std::vector<uint64_t> universe{0, kZeroAlias};
    while (universe.size() < universe_size) {
      const uint64_t high = rng() << 12;
      switch (universe.size() % 3) {
        case 0: universe.push_back(high | (0xfff - rng() % 3)); break;
        case 1: universe.push_back(high | (rng() % 3)); break;
        default: universe.push_back(rng()); break;
      }
    }
    universe.resize(universe_size);
    FlatU64Set set;
    std::unordered_set<uint64_t> reference;
    for (int op = 0; op < 40000; ++op) {
      const uint64_t v = universe[rng() % universe.size()];
      const uint64_t c = canon(v);
      // Insert-heavy first, so the set fills up, then erase-heavy.
      const uint64_t roll = rng() % 10;
      if (roll < (op < 20000 ? 5u : 2u)) {
        ASSERT_EQ(set.Insert(v), reference.insert(c).second) << op;
      } else if (roll < 7) {
        ASSERT_EQ(set.Erase(v), reference.erase(c) == 1) << op;
      } else {
        ASSERT_EQ(set.Contains(v), reference.count(c) == 1) << op;
      }
      ASSERT_EQ(set.size(), reference.size()) << op;
    }
    for (uint64_t v : universe) {
      EXPECT_EQ(set.Contains(v), reference.count(canon(v)) == 1);
    }
  }
}

TEST(FlatU64SetTest, ZeroAndItsAliasAreOneValueInlineAndInTheTable) {
  for (int spilled = 0; spilled < 2; ++spilled) {
    FlatU64Set set;
    for (uint64_t v = 1; v <= (spilled ? 40u : 1u); ++v) set.Insert(v << 20);
    EXPECT_TRUE(set.Insert(0));
    EXPECT_TRUE(set.Contains(0x9e3779b97f4a7c15ull));
    EXPECT_FALSE(set.Insert(0x9e3779b97f4a7c15ull));
    EXPECT_TRUE(set.Erase(0x9e3779b97f4a7c15ull));
    EXPECT_FALSE(set.Contains(0));
    EXPECT_FALSE(set.Erase(0));
  }
}

// ---------------------------------------------------------------- SlabPool --

TEST(SlabPoolTest, RecyclesThroughFreelist) {
  SlabPool<AlttEntry> pool(4);  // tiny slabs to force growth
  std::vector<uint32_t> idx;
  for (int i = 0; i < 10; ++i) idx.push_back(pool.Allocate());
  EXPECT_EQ(pool.allocated(), 10u);
  EXPECT_EQ(pool.live(), 10u);
  for (uint32_t i : idx) pool.Free(i);
  EXPECT_EQ(pool.live(), 0u);
  // Steady state: re-allocation reuses freed nodes, no new storage.
  for (int i = 0; i < 10; ++i) pool.Allocate();
  EXPECT_EQ(pool.allocated(), 10u);
  EXPECT_EQ(pool.live(), 10u);
}

TEST(SlabPoolTest, FreeDropsOwnedResources) {
  SlabPool<AlttEntry> pool;
  const uint32_t idx = pool.Allocate();
  TuplePool& tuples = TuplePool::Global();
  const uint64_t released_before = tuples.stats().released;
  TupleRef tuple =
      tuples.Make("R", {sql::Value::Int(1)}, 1, 1, 1);
  pool.at(idx).value = AlttEntry{std::move(tuple), 5};
  pool.Free(idx);
  EXPECT_EQ(tuples.stats().released, released_before + 1)
      << "Free must release the tuple reference back to the pool";
}

// ------------------------------------- id stability across shard counts --

struct Harness {
  explicit Harness(size_t nodes, uint32_t shards = 0, uint64_t seed = 7)
      : catalog(TestCatalog()),
        network(dht::ChordNetwork::Create(nodes, seed)),
        latency(1),
        metrics(network->num_total()),
        pump(runtime::MakeEventPump(shards, network->num_total(), latency,
                                    &metrics, seed * 31)),
        transport(network.get(), pump.get(), &latency),
        engine(EngineConfig{}, &catalog, network.get(), &transport,
               pump.get()) {}

  static sql::Catalog TestCatalog() {
    sql::Catalog c;
    EXPECT_TRUE(c.AddRelation(sql::Schema("R", {"A", "B"})).ok());
    EXPECT_TRUE(c.AddRelation(sql::Schema("S", {"A", "B"})).ok());
    return c;
  }

  void Run() { pump->Run(); }

  sql::Catalog catalog;
  std::unique_ptr<dht::ChordNetwork> network;
  sim::FixedLatency latency;
  stats::MetricsRegistry metrics;
  std::unique_ptr<sim::EventPump> pump;
  dht::Transport transport;
  RJoinEngine engine;
};

std::vector<sql::Value> Row(int64_t a, int64_t b) {
  return {sql::Value::Int(a), sql::Value::Int(b)};
}

/// One fixed workload: a join query plus an interleaved R/S stream.
void RunWorkload(Harness& h) {
  auto parsed = sql::Parser::Parse(
      "SELECT R.B, S.B FROM R, S WHERE R.A = S.A WINDOW 8 TUPLES");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(h.engine.SubmitQuery(0, std::move(*parsed)).ok());
  h.Run();
  for (int i = 0; i < 48; ++i) {
    const char* rel = (i % 2 == 0) ? "R" : "S";
    ASSERT_TRUE(h.engine.PublishTuple(1, rel, Row(i % 5, i)).ok());
    h.Run();
  }
}

std::vector<std::string> AnswerStrings(const RJoinEngine& engine) {
  std::vector<std::string> out;
  for (const Answer& a : engine.answers()) {
    std::string s = std::to_string(a.query_id) + "@" +
                    std::to_string(a.delivered_at) + ":";
    for (const sql::Value& v : a.row) s += v.ToKeyString() + ",";
    out.push_back(std::move(s));
  }
  return out;
}

TEST(KeyIdStabilityTest, IdsAndAnswersInvariantAcrossShardCounts) {
  // The workload's key texts, resolved through the global interner before,
  // between, and after runs at different shard counts: ids must never
  // change once assigned (append-only interner), and the engines must
  // produce bit-identical answer streams — id values never order behavior.
  KeyInterner& in = KeyInterner::Global();

  Harness serial(24, /*shards=*/0);
  RunWorkload(serial);
  const std::vector<std::string> serial_answers =
      AnswerStrings(serial.engine);
  ASSERT_FALSE(serial_answers.empty());

  std::vector<std::string> texts;
  std::vector<KeyId> ids_before;
  for (const char* attr : {"A", "B"}) {
    for (const char* rel : {"R", "S"}) {
      texts.push_back(AttributeKey(rel, attr).text);
      for (int v = 0; v < 5; ++v) {
        texts.push_back(ValueKey(rel, attr, sql::Value::Int(v)).text);
      }
    }
  }
  for (const std::string& t : texts) ids_before.push_back(in.Find(t));
  // The attribute-level keys of the workload must exist by now.
  EXPECT_NE(in.Find(AttributeKey("R", "A").text), kInvalidKeyId);

  for (uint32_t shards : {1u, 4u, 7u}) {
    Harness sharded(24, shards);
    RunWorkload(sharded);
    EXPECT_EQ(AnswerStrings(sharded.engine), serial_answers)
        << "answers diverged at S=" << shards;
    for (size_t i = 0; i < texts.size(); ++i) {
      EXPECT_EQ(in.Find(texts[i]), ids_before[i])
          << "id of '" << texts[i] << "' changed at S=" << shards;
    }
  }
}

}  // namespace
}  // namespace rjoin::core
