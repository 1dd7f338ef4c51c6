// Columnar per-point attribute store and the predicate language of the
// filtered query pipeline.
//
// An AttributeStore is a table parallel to a dataset: row i holds the
// attributes of point id i. Filtered search (engine/query_pipeline.h)
// evaluates a Predicate over the published prefix into a BitVector — one
// bit per id, bit set iff the row passes — which is then composed
// word-wise with the tombstone bitmap and pushed into the verify kernels.
// Evaluating up front rather than per candidate is what makes the filter a
// pushdown: candidates pay one bit test instead of a row gather plus
// comparisons, and the linear path can enumerate survivors by
// word-skipping the composed bitmap.
//
// Concurrency matches the dataset containers (util/published_array.h): one
// writer appends rows while query threads read concurrently. The row count
// is release-published after every column's value is written, so a reader
// that observes size() >= id also observes id's attribute values; ids at
// or past the published size simply fail every predicate ("not visible
// yet" is indistinguishable from "not inserted yet", which is exactly the
// tombstone bitmap's staleness contract in reverse).

#ifndef HYBRIDLSH_DATA_ATTRIBUTES_H_
#define HYBRIDLSH_DATA_ATTRIBUTES_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/bit_vector.h"
#include "util/published_array.h"
#include "util/status.h"

namespace hybridlsh {
namespace data {

/// Columnar store of uint32 attributes, one row per point id. Columns are
/// declared up front (AddColumn before the first AppendRow); rows are
/// appended by the single writer in id order, in lockstep with the
/// dataset's Append.
class AttributeStore {
 public:
  AttributeStore() = default;

  /// Declares a named column and returns its index. Must be called before
  /// the first AppendRow (HLSH_CHECK otherwise): readers identify columns
  /// by index, and a column growing mid-stream would have no values for
  /// already-published rows.
  size_t AddColumn(std::string name) {
    HLSH_CHECK(rows_.load(std::memory_order_relaxed) == 0 &&
               "AddColumn after the first AppendRow");
    names_.push_back(std::move(name));
    columns_.emplace_back();
    return names_.size() - 1;
  }

  size_t num_columns() const { return names_.size(); }

  const std::string& column_name(size_t column) const {
    HLSH_DCHECK(column < names_.size());
    return names_[column];
  }

  /// Index of the named column, or nullopt.
  std::optional<size_t> FindColumn(std::string_view name) const {
    for (size_t c = 0; c < names_.size(); ++c) {
      if (names_[c] == name) return c;
    }
    return std::nullopt;
  }

  /// Published row count; acquire-ordered, so values of any row below the
  /// returned count are visible to this thread.
  size_t size() const { return rows_.load(std::memory_order_acquire); }

  /// Appends one row; values[c] is column c's value (values.size() must
  /// equal num_columns()). Single writer. The row becomes visible to
  /// readers only once every column holds it.
  void AppendRow(std::span<const uint32_t> values) {
    HLSH_CHECK(values.size() == columns_.size() &&
               "AppendRow arity mismatch");
    for (size_t c = 0; c < columns_.size(); ++c) {
      columns_[c].Append(&values[c], 1);
    }
    rows_.fetch_add(1, std::memory_order_release);
  }

  /// Value of `column` at `row`; row must be below a size() this thread
  /// has observed.
  uint32_t value(size_t column, size_t row) const {
    HLSH_DCHECK(column < columns_.size());
    return columns_[column].data()[row];
  }

  /// Raw column prefix of length `rows` (for the batched evaluator;
  /// `rows` must be below an observed size()).
  std::span<const uint32_t> column_span(size_t column, size_t rows) const {
    HLSH_DCHECK(column < columns_.size());
    return {columns_[column].data(), rows};
  }

  size_t MemoryBytes() const {
    size_t total = 0;
    for (const auto& c : columns_) total += c.MemoryBytes();
    return total;
  }

 private:
  std::vector<std::string> names_;
  std::vector<util::PublishedArray<uint32_t>> columns_;
  std::atomic<size_t> rows_{0};
};

/// A conjunction of closed-interval terms over attribute columns: a row
/// passes iff for every term, lo <= value(column, row) <= hi. Equality is
/// lo == hi; an empty conjunction passes every row (the "no predicate"
/// spec normally short-circuits before evaluation, but the semantics stay
/// total).
struct Predicate {
  struct Term {
    size_t column = 0;
    uint32_t lo = 0;
    uint32_t hi = std::numeric_limits<uint32_t>::max();
  };

  std::vector<Term> all_of;

  static Predicate Equals(size_t column, uint32_t value) {
    Predicate p;
    p.all_of.push_back(Term{column, value, value});
    return p;
  }

  static Predicate Between(size_t column, uint32_t lo, uint32_t hi) {
    Predicate p;
    p.all_of.push_back(Term{column, lo, hi});
    return p;
  }

  /// Adds a conjunct; returns *this for chaining.
  Predicate& And(const Term& term) {
    all_of.push_back(term);
    return *this;
  }

  /// Whether row `id` passes. The post-filter reference semantics: ids at
  /// or past the store's published size fail (their attributes are not
  /// visible yet). Every term's column must exist in the store (the
  /// engine's spec validation rejects other predicates with
  /// InvalidArgument); here an out-of-range column is a programming error
  /// (HLSH_DCHECK).
  bool Matches(const AttributeStore& store, size_t id) const;
};

/// Evaluates `pred` over rows [0, min(store.size(), id_limit)) into
/// *filter, resized to id_limit bits: bit i set iff row i passes. Every
/// term's column must exist in the store, as for Matches. Rows in
/// [store.size(), id_limit) fail, matching Predicate::Matches. The loop is
/// word-blocked (64 rows per word, term-major within the block) so the
/// evaluation cost is a handful of compares per row with no byte-level
/// bit twiddling; at bench scale this is the O(n) prologue that the
/// pushdown amortizes against the saved distance computations.
void EvaluateFilter(const AttributeStore& store, const Predicate& pred,
                    size_t id_limit, util::BitVector* filter);

}  // namespace data
}  // namespace hybridlsh

#endif  // HYBRIDLSH_DATA_ATTRIBUTES_H_
