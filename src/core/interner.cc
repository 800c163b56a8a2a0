#include "core/interner.h"

#include <tuple>

#include "util/hash.h"

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

/// Reusable per-thread buffer for building candidate key text before the
/// intern lookup; the hit path allocates nothing beyond the buffer's
/// high-water mark.
std::string& KeyBuffer() {
  static thread_local std::string buf;
  buf.clear();
  return buf;
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
  const auto same = SameKey(text, level);
  KeyId id = keys_.Find(hash, same);
  bool inserted = false;
  if (id == kInvalidKeyId) {
    std::tie(id, inserted) = keys_.Insert(hash, same, [&](Entry& e) {
      e.text.assign(text);
      e.level = level;
      e.ring_id = dht::NodeId::FromKey(text);
    });
  }
  (inserted ? misses_ : hits_).fetch_add(1, std::memory_order_relaxed);
  return id;
}

KeyId KeyInterner::InternAttribute(std::string_view relation,
                                   std::string_view attr) {
  std::string& buf = KeyBuffer();
  buf.append(relation);
  buf += kKeySep;
  buf.append(attr);
  return Intern(buf, Level::kAttribute);
}

KeyId KeyInterner::InternValue(std::string_view relation,
                               std::string_view attr,
                               const sql::Value& value) {
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
  const Entry& base = keys_.at(attr_key);
  std::string& buf = KeyBuffer();
  buf.append(base.text);
  buf += kKeySep;
  buf += '#';
  buf += std::to_string(shard);
  return Intern(buf, base.level);
}

KeyInterner::Stats KeyInterner::stats() const {
  Stats s;
  s.entries = keys_.size();
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace rjoin::core
