#include "core/tuple_ref.h"

#include <utility>

#include "stats/alloc_tracker.h"
#include "util/hash.h"
#include "util/logging.h"

namespace rjoin::core {
namespace {

/// Domain-tagged value hash: int and string values can never collide into
/// the same id because equality is checked against the stored sql::Value,
/// but tagging keeps probe chains short when both domains are in play.
uint64_t HashValue(const sql::Value& v) {
  if (v.is_int()) {
    return rjoin::SplitMix64(static_cast<uint64_t>(v.AsInt()) ^
                             0x7475706c65696e74ull);
  }
  return rjoin::Fnv1a64(v.AsString()) ^ 0x7475706c65737472ull;
}

}  // namespace

// ---------------------------------------------------------------------------
// ValueInterner

static_assert(kInvalidValueId == kNotInterned);

ValueInterner& ValueInterner::Global() {
  static ValueInterner* g = new ValueInterner();
  return *g;
}

uint64_t ValueInterner::ValueHash::operator()(const sql::Value& v) const {
  return HashValue(v);
}

ValueId ValueInterner::Find(const sql::Value& v) const {
  return values_.Find(HashValue(v),
                      [&v](const sql::Value& e) { return e == v; });
}

ValueId ValueInterner::Intern(const sql::Value& v) {
  const ValueId id = Find(v);
  if (id != kInvalidValueId) return id;
  rjoin::stats::AllocScope scope(rjoin::stats::AllocPlane::kTuple);
  return values_.Insert(HashValue(v), [&v](sql::Value& e) { e = v; });
}

// ---------------------------------------------------------------------------
// TuplePool

TuplePool& TuplePool::Global() {
  static TuplePool* g = new TuplePool();
  return *g;
}

uint64_t TuplePool::NameHash::operator()(const std::string& name) const {
  return rjoin::Fnv1a64(name);
}

uint32_t TuplePool::InternRelation(std::string_view name) {
  const uint64_t hash = rjoin::Fnv1a64(name);
  const uint32_t id =
      relations_.Find(hash, [name](const std::string& e) { return e == name; });
  if (id != kNotInterned) return id;
  rjoin::stats::AllocScope scope(rjoin::stats::AllocPlane::kTuple);
  return relations_.Insert(hash, [name](std::string& e) { e.assign(name); });
}

uint32_t TuplePool::Allocate() {
  ++stats_.acquired;
  if (free_ != kNil) {
    ++stats_.recycled;
    const uint32_t idx = free_;
    Rec& r = at(idx);
    free_ = r.next;
    r.next = kNil;
    r.refs = 1;
    return idx;
  }
  const uint32_t idx = allocated_++;
  RJOIN_CHECK(idx < RecordSpine::kCapacity);
  if (RecordSpine::OpensSlab(idx)) {
    // Slab growth is capacity acquisition, not per-record traffic.
    rjoin::stats::AllocScope scope(rjoin::stats::AllocPlane::kPoolCapacity);
    records_.AddSlab(idx);
    ++stats_.slabs_allocated;
    stats_.records_allocated += RecordSpine::kSlabSize;
  }
  at(idx).refs = 1;
  return idx;
}

void TuplePool::ReleaseRecord(uint32_t idx) {
  ++stats_.released;
  at(idx).next = free_;
  free_ = idx;
}

TupleRef TuplePool::Make(std::string_view relation,
                         const std::vector<sql::Value>& values,
                         uint64_t pub_time, uint64_t seq_no,
                         uint64_t tuple_id) {
  const uint32_t rel = InternRelation(relation);
  const uint32_t idx = Allocate();
  Rec& r = at(idx);
  r.pub_time = pub_time;
  r.seq_no = seq_no;
  r.tuple_id = tuple_id;
  r.relation = rel;
  r.arity = static_cast<uint16_t>(values.size());
  ValueId* out = r.vals;
  if (r.arity > kInlineArity) {
    if (r.overflow_cap < r.arity) {
      rjoin::stats::AllocScope scope(rjoin::stats::AllocPlane::kTuple);
      r.overflow = std::make_unique<ValueId[]>(r.arity);
      r.overflow_cap = r.arity;
    }
    out = r.overflow.get();
  }
  ValueInterner& vi = ValueInterner::Global();
  for (size_t i = 0; i < values.size(); ++i) {
    out[i] = vi.Intern(values[i]);
  }
  return TupleRef::AdoptRaw(idx);
}

sql::TuplePtr TupleRef::Materialize() const {
  const TuplePool::Rec& r = rec();
  std::vector<sql::Value> values;
  values.reserve(r.arity);
  const ValueId* cols = r.columns();
  ValueInterner& vi = ValueInterner::Global();
  for (uint16_t i = 0; i < r.arity; ++i) {
    values.push_back(vi.value(cols[i]));
  }
  return sql::MakeTuple(std::string(relation_name()), std::move(values),
                        r.pub_time, r.seq_no, r.tuple_id);
}

}  // namespace rjoin::core
