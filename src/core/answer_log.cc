#include "core/answer_log.h"

#include <algorithm>

#include "core/residual.h"
#include "util/logging.h"

namespace rjoin::core {

namespace {

/// MurmurHash3's 64-bit finalizer: a bijection of u64 that maps only 0 to
/// 0, so distinct nonzero keys stay distinct and nonzero after mixing.
uint64_t Mix64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdull;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ull;
  k ^= k >> 33;
  return k;
}

uint64_t RowHash(const ValueId* row, uint32_t len) {
  uint64_t h = len;
  for (uint32_t i = 0; i < len; ++i) h = h * 0x9e3779b97f4a7c15ull + row[i];
  return Mix64(h);
}

constexpr size_t kFirstIndexSlots = 64;

}  // namespace

bool AnswerLog::Append(uint64_t query, const ValueId* row, uint32_t len,
                       uint64_t delivered_at, bool distinct) {
  RJOIN_CHECK(query <= UINT32_MAX)
      << "query id " << query << " does not fit the answer log's 32 bits";
  RJOIN_CHECK(len <= static_cast<uint32_t>(kMaxSelectItems))
      << "answer row of " << len << " values";
  const uint32_t id = InternRow(row, len);
  // (query, id + 1) is never 0, FlatU64Set's one aliased value, and Mix64
  // keeps it so: the set is exact.
  if (distinct &&
      !distinct_.Insert(Mix64(query << 32 | (uint64_t{id} + 1)))) {
    return false;
  }
  if (size_ == records_.capacity()) records_.AddChunk();
  records_[size_++] = Record{delivered_at, static_cast<uint32_t>(query), id};
  return true;
}

uint32_t AnswerLog::InternRow(const ValueId* row, uint32_t len) {
  if ((size_t{num_rows_} + 1) * 2 > index_cap_) GrowIndex();
  const uint64_t tag = RowHash(row, len) >> 32;
  const size_t mask = index_cap_ - 1;
  size_t slot = tag & mask;
  for (; index_[slot] != 0; slot = (slot + 1) & mask) {
    if (index_[slot] >> 32 != tag) continue;
    const uint32_t id = static_cast<uint32_t>(index_[slot]) - 1;
    if (RowEquals(id, row, len)) return id;
  }

  RJOIN_CHECK(num_rows_ < UINT32_MAX) << "answer log row table is full";
  // A row that would cross into the next arena chunk starts there instead,
  // so every row is one contiguous run.
  constexpr size_t kArenaChunk = decltype(arena_)::kChunk;
  const size_t offset = arena_used_ & (kArenaChunk - 1);
  if (offset + len > kArenaChunk) arena_used_ += kArenaChunk - offset;
  RJOIN_CHECK(arena_used_ + len <= UINT32_MAX)
      << "answer log value arena is full";
  while (arena_used_ + len > arena_.capacity()) arena_.AddChunk();
  for (uint32_t i = 0; i < len; ++i) arena_[arena_used_ + i] = row[i];

  const uint32_t id = num_rows_++;
  if (id == rows_.capacity()) rows_.AddChunk();
  rows_[id] = RowRef{static_cast<uint32_t>(arena_used_), len};
  arena_used_ += len;
  index_[slot] = tag << 32 | (uint64_t{id} + 1);
  return id;
}

bool AnswerLog::RowEquals(uint32_t id, const ValueId* row,
                          uint32_t len) const {
  const RowRef& ref = rows_[id];
  if (ref.len != len) return false;
  if (len == 0) return true;
  const ValueId* stored = &arena_[ref.start];
  return std::equal(stored, stored + len, row);
}

void AnswerLog::GrowIndex() {
  stats::AllocScope plane(stats::AllocPlane::kPoolCapacity);
  const size_t cap = index_cap_ == 0 ? kFirstIndexSlots : index_cap_ * 2;
  auto bigger = std::make_unique<uint64_t[]>(cap);
  for (size_t i = 0; i < index_cap_; ++i) {
    const uint64_t s = index_[i];
    if (s == 0) continue;
    size_t j = (s >> 32) & (cap - 1);
    while (bigger[j] != 0) j = (j + 1) & (cap - 1);
    bigger[j] = s;
  }
  index_ = std::move(bigger);
  index_cap_ = cap;
}

Answer AnswerLog::operator[](size_t i) const {
  RJOIN_DCHECK(i < size_);
  const Record& rec = records_[i];
  const RowRef& ref = rows_[rec.row];
  Answer answer;
  answer.query_id = rec.query;
  answer.delivered_at = rec.delivered_at;
  answer.row.reserve(ref.len);
  const ValueInterner& values = ValueInterner::Global();
  for (uint32_t k = 0; k < ref.len; ++k) {
    answer.row.push_back(values.value(arena_[ref.start + k]));
  }
  return answer;
}

std::vector<Answer> AnswerLog::For(uint64_t query) const {
  std::vector<Answer> out;
  for (size_t i = 0; i < size_; ++i) {
    if (records_[i].query == query) out.push_back((*this)[i]);
  }
  return out;
}

}  // namespace rjoin::core
