#include "core/interner.h"

#include <utility>

#include "sql/schema.h"
#include "stats/alloc_tracker.h"
#include "util/hash.h"
#include "util/logging.h"

namespace rjoin::core {

namespace {

/// Index hash of the (text, level) identity. The level is folded in
/// because the same text can legally exist at both levels (a sharded
/// attribute suffix colliding with a string value).
uint64_t HashKey(std::string_view text, Level level) {
  uint64_t h = Fnv1a64(text);
  if (level == Level::kValue) h ^= 0x9e3779b97f4a7c15ull;
  return h;
}

/// Equality of a stored entry with the (text, level) identity.
auto SameKey(std::string_view text, Level level) {
  return [text, level](const auto& e) {
    return e.level == level && e.text == text;
  };
}

/// Reusable buffer for building candidate key text before the intern
/// lookup; the hit path allocates nothing beyond the buffer's high-water
/// mark.
std::string& KeyBuffer() {
  static std::string buf;
  buf.clear();
  return buf;
}

/// The id-form identity of a key, packed into a u64: a 2-bit kind, a
/// 30-bit high part and a 32-bit low part. Attribute- and value-level keys
/// put (relation id, attribute index) high and the value id (0 for the
/// attribute level) low; a sharded copy puts its shard high and the base
/// key's id low.
enum class CodeKind : uint64_t { kAttribute = 0, kValue = 1, kShard = 2 };

uint64_t KeyCode(CodeKind kind, uint64_t high, uint32_t low) {
  RJOIN_DCHECK(high < uint64_t{1} << 30);
  return static_cast<uint64_t>(kind) << 62 | high << 32 | low;
}

uint64_t ColumnCode(CodeKind kind, uint32_t rel, int attr, ValueId value) {
  RJOIN_DCHECK(attr >= 0 && attr < (1 << 16));
  return KeyCode(kind, uint64_t{rel} << 16 | static_cast<uint64_t>(attr),
                 value);
}
static_assert(TuplePool::kMaxRelations <= 1u << 14);

/// Relation and attribute names of attribute index `attr` of the relation
/// with TuplePool id `rel` (immortal, or owned by the catalog).
std::pair<std::string_view, std::string_view> ColumnNames(
    const sql::Catalog& catalog, uint32_t rel, int attr) {
  const std::string& relation = TuplePool::Global().relation_name(rel);
  const sql::Schema* schema = catalog.Find(relation);
  RJOIN_CHECK(schema != nullptr && attr >= 0 &&
              static_cast<size_t>(attr) < schema->arity())
      << "no attribute " << attr << " in relation " << relation;
  return {relation, schema->attributes()[static_cast<size_t>(attr)]};
}

}  // namespace

static_assert(kInvalidKeyId == kNotInterned);

KeyInterner& KeyInterner::Global() {
  static KeyInterner* interner = new KeyInterner();  // immortal
  return *interner;
}

uint64_t KeyInterner::EntryHash::operator()(const Entry& e) const {
  return HashKey(e.text, e.level);
}

KeyId KeyInterner::Find(std::string_view text, Level level) const {
  return keys_.Find(HashKey(text, level), SameKey(text, level));
}

KeyId KeyInterner::Find(std::string_view text) const {
  const KeyId attr = Find(text, Level::kAttribute);
  return attr != kInvalidKeyId ? attr : Find(text, Level::kValue);
}

KeyId KeyInterner::Intern(std::string_view text, Level level) {
  const uint64_t hash = HashKey(text, level);
  const KeyId id = keys_.Find(hash, SameKey(text, level));
  if (id != kInvalidKeyId) {
    ++hits_;
    return id;
  }
  ++misses_;
  return keys_.Insert(hash, [&](Entry& e) {
    e.text.assign(text);
    e.level = level;
    e.ring_id = dht::NodeId::FromKey(text);
  });
}

uint64_t KeyInterner::CodeHash::operator()(const CodeEntry& e) const {
  return rjoin::SplitMix64(e.code);
}

template <typename Miss>
KeyId KeyInterner::Resolve(uint64_t code, const Miss& miss) {
  const uint64_t hash = rjoin::SplitMix64(code);
  const uint32_t found =
      codes_.Find(hash, [code](const CodeEntry& e) { return e.code == code; });
  if (found != kNotInterned) {
    ++hits_;
    return codes_.at(found).key;
  }
  // First sight of the code: the text form builds and interns the key (a
  // hit when the text form or an aliasing code got there first), so both
  // forms name one text by construction.
  const KeyId key = miss();
  rjoin::stats::AllocScope scope(rjoin::stats::AllocPlane::kPoolCapacity);
  codes_.Insert(hash, [code, key](CodeEntry& e) {
    e.code = code;
    e.key = key;
  });
  return key;
}

KeyId KeyInterner::ResolveAttribute(const sql::Catalog& catalog, uint32_t rel,
                                    int attr) {
  return Resolve(ColumnCode(CodeKind::kAttribute, rel, attr, 0), [&] {
    const auto [relation, name] = ColumnNames(catalog, rel, attr);
    return InternAttribute(relation, name);
  });
}

KeyId KeyInterner::ResolveValue(const sql::Catalog& catalog, uint32_t rel,
                                int attr, ValueId value) {
  return Resolve(ColumnCode(CodeKind::kValue, rel, attr, value), [&] {
    const auto [relation, name] = ColumnNames(catalog, rel, attr);
    return InternValue(relation, name, ValueInterner::Global().value(value));
  });
}

KeyId KeyInterner::InternAttribute(std::string_view relation,
                                   std::string_view attr) {
  ++text_builds_;
  std::string& buf = KeyBuffer();
  buf.append(relation);
  buf += kKeySep;
  buf.append(attr);
  return Intern(buf, Level::kAttribute);
}

KeyId KeyInterner::InternValue(std::string_view relation,
                               std::string_view attr,
                               const sql::Value& value) {
  ++text_builds_;
  std::string& buf = KeyBuffer();
  buf.append(relation);
  buf += kKeySep;
  buf.append(attr);
  buf += kKeySep;
  value.AppendKeyString(&buf);
  return Intern(buf, Level::kValue);
}

KeyId KeyInterner::WithShard(KeyId attr_key, uint32_t shard) {
  if (shard == 0) return attr_key;
  return Resolve(KeyCode(CodeKind::kShard, shard, attr_key), [&] {
    ++text_builds_;
    const Entry& base = keys_.at(attr_key);
    std::string& buf = KeyBuffer();
    buf.append(base.text);
    buf += kKeySep;
    buf += '#';
    buf += std::to_string(shard);
    return Intern(buf, base.level);
  });
}

KeyInterner::Stats KeyInterner::stats() const {
  Stats s;
  s.entries = keys_.size();
  s.hits = hits_;
  s.misses = misses_;
  s.text_builds = text_builds_;
  return s;
}

}  // namespace rjoin::core
