// Relational operator kernels.
//
// These are the semantics every simulated engine executes; the engines differ
// only in *when* they materialize intermediates and what simulated time they
// charge. Keeping one kernel guarantees all back-ends produce matching
// results (identical up to floating-point summation order when an engine's
// substrate reorders double addition), which the integration tests verify
// against a reference run.
//
// Scale propagation: each kernel sets the output's nominal-size scale from
// its inputs. Samples produced by src/workloads/ are constructed so that this
// propagation stays consistent (e.g., a downsampled graph keeps vertex and
// edge samples aligned so JOIN(vertices, edges) scales like the edges).

#ifndef MUSKETEER_SRC_RELATIONAL_OPS_H_
#define MUSKETEER_SRC_RELATIONAL_OPS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/relational/table.h"

namespace musketeer {

using RowPredicate = std::function<bool(const Row&)>;
using RowProjector = std::function<Value(const Row&)>;

// Batch expression evaluator: computes one output column for rows
// [begin, end) of a table in one call (see Expr::CompileBatch). The batch
// kernels evaluate expressions column-at-a-time through these instead of a
// RowProjector per cell.
using BatchEval = std::function<Column(const Table&, size_t begin, size_t end)>;

// Batch predicate evaluator in selection-bitmap form: writes 1/0 into
// mask[k] for row begin+k (see Expr::CompileMask). The vectorized kernels
// consume byte masks instead of materialized 0/1 columns, and compact them
// into index lists only once per morsel.
using MaskEval =
    std::function<void(const Table&, size_t begin, size_t end, uint8_t* mask)>;

enum class AggFn { kSum, kCount, kMin, kMax, kAvg };

const char* AggFnName(AggFn fn);

struct AggSpec {
  AggFn fn;
  int column;               // input column aggregated (ignored for COUNT)
  std::string output_name;  // name of the produced column
};

// SELECT over a byte-mask predicate: evaluates `filter` morsel-by-morsel
// and gathers the surviving rows.
Table SelectRowsMask(const Table& in, const MaskEval& filter);

// PROJECT: keep `columns` (by index) in order.
StatusOr<Table> ProjectColumns(const Table& in, const std::vector<int>& columns);

// Batch MAP: output column i = exprs[i] evaluated column-at-a-time. Each
// expression's output column type must match out_schema (callers insert a
// cast, see Expr::CompileBatch users in src/ir/eval.cc).
Table MapRowsBatch(const Table& in, const Schema& out_schema,
                   const std::vector<BatchEval>& exprs);

// JOIN: equi-join on left.columns[lkey] == right.columns[rkey].
// Output layout matches the paper's generated code: (key, left-rest, right-rest).
StatusOr<Table> HashJoin(const Table& left, const Table& right, int lkey, int rkey);

// CROSS JOIN: all pairs; output = (left cols, right cols).
Table CrossJoin(const Table& left, const Table& right);

// Bag UNION of two relation with compatible arity.
StatusOr<Table> UnionAll(const Table& a, const Table& b);

// Set INTERSECT / DIFFERENCE (distinct semantics, like the paper's operators).
StatusOr<Table> Intersect(const Table& a, const Table& b);
StatusOr<Table> Difference(const Table& a, const Table& b);

// DISTINCT rows.
Table Distinct(const Table& in);

// GROUP BY `group_columns`, computing `aggs`. With empty group_columns this
// is a full-relation aggregate producing one row.
StatusOr<Table> GroupByAgg(const Table& in, const std::vector<int>& group_columns,
                           const std::vector<AggSpec>& aggs);

// Global MIN/MAX over a column preserving the full row (extreme row). Ties
// resolve to the first row in canonical sort order, making results
// deterministic.
StatusOr<Table> ExtremeRow(const Table& in, int column, bool take_max);

// Sorts by the given columns ascending (stable).
Table SortBy(const Table& in, const std::vector<int>& columns);

// TOP-N rows by column (descending); used by recommendation workloads.
Table TopNBy(const Table& in, int column, size_t n);

}  // namespace musketeer

#endif  // MUSKETEER_SRC_RELATIONAL_OPS_H_
