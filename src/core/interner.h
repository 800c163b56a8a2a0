#ifndef RJOIN_CORE_INTERNER_H_
#define RJOIN_CORE_INTERNER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "core/dictionary.h"
#include "core/key.h"
#include "core/tuple_ref.h"
#include "dht/id.h"
#include "sql/value.h"

namespace rjoin::sql {
class Catalog;
}  // namespace rjoin::sql

namespace rjoin::core {

/// Append-only dictionary of index keys: each distinct canonical
/// (text, level) pair is stored once and named by a dense u32 KeyId. An entry caches the
/// key's indexing level and its SHA-1 ring identifier, so everything past
/// the construction boundary — message payloads, routing, node-state
/// buckets, rate tracking, candidate tables — works on a u32 and never
/// re-hashes key text.
///
/// Concurrency contract (core::Dictionary's; the shape the sharded runtime
/// needs):
///  * Reads — Find(), text(), level(), ring_id() — are lock-free and safe
///    from any thread, concurrently with inserts.
///  * Inserts take a mutex, but only for keys seen for the first time; a
///    repeated Intern() is a lock-free hit. Steady state interns nothing.
///  * Entries are immortal, so ids and `const std::string&` references
///    stay valid forever.
///
/// Determinism: ids are assigned in first-intern order. Driver-phase
/// interning (query submission, tuple publication) is sequential and thus
/// canonical; worker-phase interning (rewrite candidates) may race, so id
/// *values* can differ between runs — which is why no ordering the engine
/// emits ever depends on id values (event keys are (time, src, seq); see
/// docs/keys.md for the full argument). Within one process, text -> id is
/// a fixed bijection (keyed by (text, level)), so an S=1 run and an S=4
/// run of the same workload resolve identical keys to identical ids.
///
/// The hot path names keys by ids instead of text: (relation id, attribute
/// index, level, value id) packs into a u64 code, and a second Dictionary
/// maps codes to KeyIds. A code's first sight builds the text and interns
/// it as above, so KeyIds, their first-sight order and ring positions are
/// those of the text form (docs/keys.md).
class KeyInterner {
 public:
  /// Process-wide interner the engine/transport stack uses by default.
  static KeyInterner& Global();

  /// Id of the (text, level) key, interning it on first sight. Identity is
  /// the *pair*: the same text interned at both levels yields two ids with
  /// the same ring position — e.g. the sharded attribute key
  /// `R·A·#3` and a value key for the string value "#3" share their text,
  /// and the seed kept them level-distinct, so the interner must too.
  KeyId Intern(std::string_view text, Level level);

  /// Interns a boundary-form key.
  KeyId Intern(const IndexKey& key) { return Intern(key.text, key.level); }

  /// Attribute-level key Hash(R + A), built into a reusable thread-local
  /// buffer (no allocation on the hit path). The text form, for callers
  /// that hold names and raw values (stream-history setup, tests).
  KeyId InternAttribute(std::string_view relation, std::string_view attr);

  /// Value-level key Hash(R + A + v), text form.
  KeyId InternValue(std::string_view relation, std::string_view attr,
                    const sql::Value& value);

  /// The id form of InternAttribute: the attribute-level key of attribute
  /// index `attr` of the relation with TuplePool id `rel`. The ids map to
  /// the key through a code dictionary; only a code's first sight looks up
  /// the relation's name and `catalog`'s attribute name and calls the text
  /// form with them. So both forms return the same KeyId.
  KeyId ResolveAttribute(const sql::Catalog& catalog, uint32_t rel, int attr);

  /// The id form of InternValue, for interned value `value`. Int 42 and
  /// string "42" have distinct ValueIds but one key text, so both codes
  /// resolve to one KeyId, as in the text form.
  KeyId ResolveValue(const sql::Catalog& catalog, uint32_t rel, int attr,
                     ValueId value);

  /// Re-shards an attribute-level key ([18]'s replication scheme); shard 0
  /// is the plain key. Resolved from (attr_key, shard) like the id forms.
  KeyId WithShard(KeyId attr_key, uint32_t shard);

  /// Id of (text, level) if already interned, else kInvalidKeyId.
  /// Lock-free.
  KeyId Find(std::string_view text, Level level) const;

  /// Level-agnostic lookup (tests and other cold boundaries): the
  /// attribute-level entry if one exists, else the value-level one.
  KeyId Find(std::string_view text) const;

  /// Canonical text of an interned key. The reference is stable for the
  /// interner's lifetime.
  const std::string& text(KeyId id) const { return keys_.at(id).text; }

  /// Indexing level the key was interned with.
  Level level(KeyId id) const { return keys_.at(id).level; }

  /// Cached ring identifier (SHA-1 of the text, computed once at intern).
  const dht::NodeId& ring_id(KeyId id) const { return keys_.at(id).ring_id; }

  /// Number of interned keys.
  uint32_t size() const { return keys_.size(); }

  /// Intern-traffic counters, one hit or miss per key resolution (text or
  /// id form). hits = resolutions that inserted no key (the steady state,
  /// and racing first-sight calls that lost the lock); misses = key
  /// inserts, so misses == entries. text_builds counts key texts built:
  /// every text-form call, and each code's first sight in the id forms.
  struct Stats {
    uint64_t entries = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t text_builds = 0;
  };
  Stats stats() const;

 private:
  struct Entry {
    std::string text;
    dht::NodeId ring_id;
    Level level = Level::kAttribute;
  };
  struct EntryHash {
    uint64_t operator()(const Entry& e) const;
  };
  /// One id-form identity (see KeyCode in interner.cc) and its key.
  struct CodeEntry {
    uint64_t code = 0;
    KeyId key = kInvalidKeyId;
  };
  struct CodeHash {
    uint64_t operator()(const CodeEntry& e) const;
  };

  /// Id-form lookup: the key of `code`, or on its first sight the key
  /// `miss()` interns through a text form, remembered for the code.
  template <typename Miss>
  KeyId Resolve(uint64_t code, const Miss& miss);

  // 1,024-entry slabs, 4M keys hard cap.
  Dictionary<Entry, EntryHash, 10, 1u << 12> keys_{"key"};
  // Codes outnumber keys only by int/string aliases of one value text.
  Dictionary<CodeEntry, CodeHash, 10, 1u << 13> codes_{"key code"};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> text_builds_{0};
};

}  // namespace rjoin::core

#endif  // RJOIN_CORE_INTERNER_H_
