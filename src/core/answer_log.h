#ifndef RJOIN_CORE_ANSWER_LOG_H_
#define RJOIN_CORE_ANSWER_LOG_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <type_traits>
#include <vector>

#include "core/node_state.h"
#include "core/tuple_ref.h"
#include "sql/value.h"
#include "stats/alloc_tracker.h"

namespace rjoin::core {

/// An answer delivered to the owner of a continuous query, as readers see
/// it. The log does not store these: AnswerLog builds one per read.
struct Answer {
  uint64_t query_id = 0;
  std::vector<sql::Value> row;
  uint64_t delivered_at = 0;
};

/// The answer sink of Procedures 2-3 at the query owners: every answer
/// delivered in a run, in delivery order.
///
/// - **Log.** One 16-byte Record per delivery, in chunks.
/// - **Rows.** Each distinct row content (a ValueId array, at most
///   kMaxSelectItems wide) is stored once, whichever queries receive it.
///   The values sit in one chunked arena; an open-addressing index finds a
///   row by its content and compares the values exactly on every hit.
/// - **DISTINCT.** A DISTINCT query keeps only the first delivery of each
///   (query, row id) pair — exact, no fingerprint.
///
/// Row ids are assigned in append order, so the log is a pure function of
/// the sequence of Append calls. Growth (chunks, index doubling, the
/// DISTINCT set) is charged to stats::AllocPlane::kPoolCapacity; an append
/// allocates nothing else. Single-threaded: the engine appends on the
/// serial pump's thread, or on the driver at a runtime barrier.
class AnswerLog {
 public:
  AnswerLog() = default;
  AnswerLog(const AnswerLog&) = delete;
  AnswerLog& operator=(const AnswerLog&) = delete;

  /// Appends the delivery of `row` (`len` values, at most kMaxSelectItems) to
  /// `query` at virtual time `delivered_at`. With `distinct`, a row this
  /// query already received is dropped instead. Returns whether the answer
  /// was appended.
  bool Append(uint64_t query, const ValueId* row, uint32_t len,
              uint64_t delivered_at, bool distinct);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Distinct row contents stored so far, across all queries.
  size_t rows() const { return num_rows_; }

  /// The i-th answer in delivery order, built from its record and row.
  Answer operator[](size_t i) const;

  /// The answers of `query`, in delivery order.
  std::vector<Answer> For(uint64_t query) const;

  /// Input iterator over the log in delivery order; dereferencing builds
  /// the Answer.
  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Answer;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Answer;

    Iterator() = default;
    Answer operator*() const { return (*log_)[i_]; }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++i_;
      return old;
    }
    bool operator==(const Iterator&) const = default;

   private:
    friend class AnswerLog;
    Iterator(const AnswerLog* log, size_t i) : log_(log), i_(i) {}

    const AnswerLog* log_ = nullptr;
    size_t i_ = 0;
  };

  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, size_); }

 private:
  /// Append-only array in fixed-size chunks: growing it adds a chunk and
  /// never moves an element. Chunks are left uninitialized, so pages no
  /// element has reached stay out of the resident set.
  template <typename T, int kChunkBits>
  class Chunks {
    static_assert(std::is_trivially_default_constructible_v<T>);

   public:
    static constexpr size_t kChunk = size_t{1} << kChunkBits;

    T& operator[](size_t i) {
      return chunks_[i >> kChunkBits][i & (kChunk - 1)];
    }
    const T& operator[](size_t i) const {
      return chunks_[i >> kChunkBits][i & (kChunk - 1)];
    }
    size_t capacity() const { return chunks_.size() * kChunk; }
    void AddChunk() {
      stats::AllocScope plane(stats::AllocPlane::kPoolCapacity);
      chunks_.push_back(std::make_unique_for_overwrite<T[]>(kChunk));
    }

   private:
    std::vector<std::unique_ptr<T[]>> chunks_;
  };

  /// One delivered answer. Written whole before it is read, so it needs
  /// no initializers (see Chunks).
  struct Record {
    uint64_t delivered_at;
    uint32_t query;
    uint32_t row;  ///< id in the row table
  };
  static_assert(sizeof(Record) == 16);

  /// Where a row's values start in the arena, and how many there are.
  struct RowRef {
    uint32_t start;
    uint32_t len;
  };

  /// Id of the row with these values, storing it on first sight.
  uint32_t InternRow(const ValueId* row, uint32_t len);
  bool RowEquals(uint32_t id, const ValueId* row, uint32_t len) const;
  void GrowIndex();

  Chunks<Record, 14> records_;
  size_t size_ = 0;

  Chunks<RowRef, 13> rows_;
  uint32_t num_rows_ = 0;
  /// Row values, never split across a chunk boundary.
  Chunks<ValueId, 14> arena_;
  size_t arena_used_ = 0;
  /// Row index: slot = (upper 32 bits of the row hash) << 32 | (id + 1),
  /// 0 = empty. The home slot comes from the stored hash bits, so growing
  /// rehashes without reading a row.
  std::unique_ptr<uint64_t[]> index_;
  size_t index_cap_ = 0;

  /// (query, row id) pairs DISTINCT queries have received.
  FlatU64Set distinct_;
};

}  // namespace rjoin::core

#endif  // RJOIN_CORE_ANSWER_LOG_H_
