// Scalar expressions used by IR operators (SELECT conditions, column-level
// arithmetic in MAP, WHILE loop predicates).
//
// Expressions are immutable trees shared by shared_ptr, so cloning a DAG (for
// WHILE expansion or partition exploration) is cheap. Columns are referenced
// by *name*; they are resolved to indices against a concrete schema when an
// expression is compiled for execution.

#ifndef MUSKETEER_SRC_IR_EXPR_H_
#define MUSKETEER_SRC_IR_EXPR_H_

#include <memory>
#include <string>

#include "src/base/status.h"
#include "src/relational/ops.h"
#include "src/relational/schema.h"

namespace musketeer {

enum class ExprKind { kColumn, kLiteral, kBinary };

enum class BinOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

const char* BinOpName(BinOp op);  // "+", "<", "AND", ...

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

class Expr {
 public:
  // Factories.
  static ExprPtr Column(std::string name);
  static ExprPtr Literal(Value value);
  static ExprPtr Binary(BinOp op, ExprPtr lhs, ExprPtr rhs);

  ExprKind kind() const { return kind_; }
  const std::string& column_name() const { return column_; }
  const Value& literal() const { return literal_; }
  BinOp op() const { return op_; }
  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }

  // Infers the result type against `schema`. Comparison/logic yields kInt64
  // (0/1); arithmetic yields kInt64 only if both sides are kInt64 and the op
  // is not division, else kDouble.
  StatusOr<FieldType> InferType(const Schema& schema) const;

  // Compiles to an evaluator bound to column indices of `schema`.
  StatusOr<RowProjector> Compile(const Schema& schema) const;

  // Compiles as a boolean row predicate (non-zero numeric => true).
  StatusOr<RowPredicate> CompilePredicate(const Schema& schema) const;

  // Compiles to a column-at-a-time evaluator: one call computes the
  // expression for a whole row range with typed loops (no per-cell variant
  // dispatch). The output column's type is InferType(schema); results are
  // value-identical to evaluating Compile()'s RowProjector per row.
  StatusOr<BatchEval> CompileBatch(const Schema& schema) const;

  // Compiles as a selection-bitmap evaluator: writes the row's truthiness
  // (1/0) into one byte per row — the predicate form SelectRowsMask
  // consumes. Top-level comparisons and AND/OR trees fill the mask directly
  // with typed branch-light loops, never materializing the intermediate 0/1
  // column CompileBatch would produce.
  // Kept rows are exactly those CompilePredicate accepts.
  StatusOr<MaskEval> CompileMask(const Schema& schema) const;

  // Source-like rendering, e.g. "(price > 100) AND (region = 5)".
  std::string ToString() const;

  // True if the expression only references columns present in `schema`.
  bool ResolvesAgainst(const Schema& schema) const;

  // Collects referenced column names into `out` (deduplicated, in first-use
  // order).
  void CollectColumns(std::vector<std::string>* out) const;

 private:
  Expr() = default;

  ExprKind kind_ = ExprKind::kLiteral;
  std::string column_;
  Value literal_ = static_cast<int64_t>(0);
  BinOp op_ = BinOp::kAdd;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

}  // namespace musketeer

#endif  // MUSKETEER_SRC_IR_EXPR_H_
