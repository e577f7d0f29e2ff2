// In-memory relations plus the nominal-size metadata that drives the engine
// simulators.
//
// A Table holds the rows Musketeer actually executes on (the "sample") and a
// `scale` factor: the workload generators materialize a scaled-down sample of
// the paper's data sets (e.g., 1/1000th of the Twitter graph) and set scale
// so that nominal_rows() == the data set size the paper used. Engine
// simulators charge time against nominal sizes while computing real results
// on the sample; correctness checks always compare sample contents.
//
// Storage is columnar: one typed Column per schema field plus a row count
// (see column.h). Batch kernels operate on the typed vectors directly;
// row-at-a-time call sites (the record-oriented timely runtime, tests) go
// through ValueAt / MaterializeRow, which rebuild the old row-of-variants
// view on demand.

#ifndef MUSKETEER_SRC_RELATIONAL_TABLE_H_
#define MUSKETEER_SRC_RELATIONAL_TABLE_H_

#include <atomic>
#include <cassert>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/status.h"
#include "src/base/units.h"
#include "src/relational/column.h"
#include "src/relational/schema.h"
#include "src/relational/value.h"

namespace musketeer {

class Table {
 public:
  Table() = default;
  explicit Table(Schema schema) : schema_(std::move(schema)) {
    cols_.reserve(schema_.num_fields());
    for (const Field& f : schema_.fields()) {
      cols_.emplace_back(f.type);
    }
  }
  // Compatibility constructor: bulk-loads row-of-variants data.
  Table(Schema schema, std::vector<Row> rows) : Table(std::move(schema)) {
    Reserve(rows.size());
    for (const Row& r : rows) {
      AddRow(r);
    }
  }
  // Adopts pre-built columns (the batch kernels' output path). All columns
  // must match the schema types and share one length.
  static Table FromColumns(Schema schema, std::vector<Column> cols);

  // The avg_row_bytes cache is a relaxed atomic (Tables are shared read-only
  // across worker threads); copies must not copy the atomic directly.
  Table(const Table& o)
      : schema_(o.schema_),
        cols_(o.cols_),
        num_rows_(o.num_rows_),
        scale_(o.scale_) {
    avg_row_bytes_cache_.store(
        o.avg_row_bytes_cache_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
  Table(Table&& o) noexcept
      : schema_(std::move(o.schema_)),
        cols_(std::move(o.cols_)),
        num_rows_(o.num_rows_),
        scale_(o.scale_) {
    avg_row_bytes_cache_.store(
        o.avg_row_bytes_cache_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    o.num_rows_ = 0;
    o.InvalidateAvgRowBytes();
  }
  Table& operator=(const Table& o) {
    if (this != &o) {
      schema_ = o.schema_;
      cols_ = o.cols_;
      num_rows_ = o.num_rows_;
      scale_ = o.scale_;
      avg_row_bytes_cache_.store(
          o.avg_row_bytes_cache_.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    return *this;
  }
  Table& operator=(Table&& o) noexcept {
    if (this != &o) {
      schema_ = std::move(o.schema_);
      cols_ = std::move(o.cols_);
      num_rows_ = o.num_rows_;
      scale_ = o.scale_;
      avg_row_bytes_cache_.store(
          o.avg_row_bytes_cache_.load(std::memory_order_relaxed),
          std::memory_order_relaxed);
      o.num_rows_ = 0;
      o.InvalidateAvgRowBytes();
    }
    return *this;
  }

  const Schema& schema() const { return schema_; }

  size_t num_fields() const { return cols_.size(); }
  const Column& col(size_t c) const { return cols_[c]; }

  size_t num_rows() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  Value ValueAt(size_t row, size_t c) const { return cols_[c].ValueAt(row); }

  // Rebuilds one row (all rows) as row-of-variants. O(num_fields) Value
  // materializations per row — a compatibility path, not a kernel path.
  Row MaterializeRow(size_t row) const;
  std::vector<Row> MaterializeRows() const;

  // Appends one row-of-variants row. Numeric cells coerce to the column type
  // (like the typed engines' load path); a string/numeric mismatch against
  // the schema is a programming error (assert; the cell loads as a default
  // value in release builds so row alignment is preserved).
  void AddRow(const Row& row);

  void Reserve(size_t n) {
    for (Column& c : cols_) {
      c.Reserve(n);
    }
  }

  // Moves `rows` onto the end of the table in order (bulk materialization
  // compatibility shim over AddRow).
  void AppendRows(std::vector<Row>&& rows) {
    Reserve(num_rows_ + rows.size());
    for (const Row& r : rows) {
      AddRow(r);
    }
    rows.clear();
  }

  // Appends row `i` of `src`; schemas must have identical column types.
  void AppendRowFrom(const Table& src, size_t i) {
    assert(src.cols_.size() == cols_.size());
    for (size_t c = 0; c < cols_.size(); ++c) {
      cols_[c].AppendFrom(src.cols_[c], i);
    }
    ++num_rows_;
    InvalidateAvgRowBytes();
  }

  // Splices `other` onto the end. A default-constructed (schema-less) table
  // adopts `other` wholesale — the engines' shuffle buckets start empty and
  // take their schema from the first append.
  void AppendTable(Table&& other);
  void AppendTableCopy(const Table& other);

  // New table with rows [begin, end); keeps schema and scale.
  Table Slice(size_t begin, size_t end) const;

  // New table with the rows at `idx` in `idx` order; keeps schema and scale.
  Table Gather(const std::vector<uint32_t>& idx) const;

  // Validates the structural invariant: one column per schema field, every
  // column of the schema's type and of num_rows() length. (Cell-level type
  // mismatches cannot exist in columnar storage.)
  Status Validate() const;

  // --- Nominal-size metadata -------------------------------------------
  // scale = nominal rows per sample row (>= 1.0). Propagated through
  // relational operators so engine simulators can charge full-size time.
  double scale() const { return scale_; }
  void set_scale(double scale) { scale_ = scale; }

  double nominal_rows() const {
    return static_cast<double>(num_rows_) * scale_;
  }

  // Average serialized bytes per row of the sample (measured on up to the
  // first 1024 rows; exact for narrow tables). Computed from the column
  // footprints, cached, and invalidated when rows are appended; safe to call
  // concurrently on a shared immutable Table.
  double avg_row_bytes() const;

  // Nominal serialized footprint: nominal_rows * avg_row_bytes.
  Bytes nominal_bytes() const { return nominal_rows() * avg_row_bytes(); }

  // Actual sample footprint.
  Bytes sample_bytes() const {
    return static_cast<double>(num_rows_) * avg_row_bytes();
  }

  // Renders the first `limit` rows for debugging.
  std::string DebugString(size_t limit = 10) const;

  // Lexicographic whole-row comparison (RowLess semantics: cell-wise
  // CompareValues, then arity).
  static int CompareRowsAt(const Table& a, size_t i, const Table& b, size_t j);

  // True if both tables contain the same multiset of rows (ignoring order)
  // and compatible schemas (same arity; doubles compare with tolerance).
  static bool SameContent(const Table& a, const Table& b);

  // Exact equality: same schema types, same row order, and bit-identical
  // values (typed column compare; no cross-numeric coercion). This is the
  // parallel data plane's determinism check.
  static bool Identical(const Table& a, const Table& b);

 private:
  void InvalidateAvgRowBytes() {
    avg_row_bytes_cache_.store(-1.0, std::memory_order_relaxed);
  }

  Schema schema_;
  std::vector<Column> cols_;
  size_t num_rows_ = 0;
  double scale_ = 1.0;
  // < 0 means "not computed". Relaxed atomic: concurrent readers may race to
  // compute it, but they all store the same deterministic value.
  mutable std::atomic<double> avg_row_bytes_cache_{-1.0};
};

// Row hash over the given columns, identical to the row-of-variants RowHash
// mix (the engines' shuffle partitioning depends on these exact values).
inline size_t HashRow(const Table& t, size_t row, const std::vector<int>& cols) {
  size_t h = 0x9e3779b97f4a7c15ULL;
  for (int c : cols) {
    h ^= t.col(c).HashAt(row) + 0x9e3779b9 + (h << 6) + (h >> 2);
  }
  return h;
}

using TablePtr = std::shared_ptr<const Table>;

}  // namespace musketeer

#endif  // MUSKETEER_SRC_RELATIONAL_TABLE_H_
