#ifndef RJOIN_CORE_KEY_H_
#define RJOIN_CORE_KEY_H_

#include <cstdint>
#include <string>

#include "dht/id.h"
#include "sql/value.h"

namespace rjoin::core {

/// Indexing granularity (Section 3). Items indexed under the concatenation
/// of relation and attribute name are at the *attribute level*; items
/// indexed under relation + attribute + value are at the *value level*.
enum class Level : uint8_t {
  kAttribute,
  kValue,
};

const char* LevelName(Level level);

/// Dense interned identifier of an index key (see core::KeyInterner). The
/// whole hot path — message payloads, node-state buckets, rate tracking,
/// candidate tables, routing — carries this u32 instead of the
/// canonical key text; the text and its SHA-1 ring id are interned once.
using KeyId = uint32_t;

inline constexpr KeyId kInvalidKeyId = static_cast<KeyId>(-1);

/// Unit separator between the concatenated components of a key's canonical
/// text: cannot appear in identifiers or integer values, keeping keys
/// collision-free (e.g. rel "RA" + attr "B" vs "R" + "AB").
inline constexpr char kKeySep = '\x1f';

/// A DHT index key in its canonical textual form. `text` is the
/// concatenation that gets hashed (the paper's Rel + Attr [+ Value], with
/// an unambiguous separator). Only the cold boundary (key construction,
/// tests, tracing) handles IndexKeys; everything in flight carries the
/// interned KeyId.
struct IndexKey {
  std::string text;
  Level level = Level::kAttribute;

  friend bool operator==(const IndexKey& a, const IndexKey& b) {
    return a.text == b.text && a.level == b.level;
  }
};

/// Attribute-level key: Hash(R + A).
IndexKey AttributeKey(const std::string& relation, const std::string& attr);

/// Sharded attribute-level key: Hash(R + A + shard). Used by the
/// query-replication scheme of [18] (referenced in Section 3): input
/// queries are replicated across `r` shard positions and each tuple's
/// attribute-level copy goes to exactly one shard, spreading the load of
/// hot attribute-level nodes without duplicating answers.
IndexKey ShardedAttributeKey(const std::string& relation,
                             const std::string& attr, uint32_t shard);

/// Value-level key: Hash(R + A + v).
IndexKey ValueKey(const std::string& relation, const std::string& attr,
                  const sql::Value& value);

/// Re-shards an existing attribute-level key (shard 0 == the plain key).
IndexKey WithShard(const IndexKey& attr_key, uint32_t shard);

/// The ring identifier of a key: SHA-1 of its canonical text. Interned
/// entries cache this; the boundary form exists for tests and one-off
/// constructions.
dht::NodeId KeyRingId(const IndexKey& key);

}  // namespace rjoin::core

#endif  // RJOIN_CORE_KEY_H_
