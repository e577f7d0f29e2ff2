// Shared scalar-expression parser (WHERE clauses, GAS apply chains, Lindi
// lambda bodies). Standard precedence climbing:
//   OR < AND < comparisons < additive < multiplicative < primary.
// Qualified column references ("rel.col") resolve to the bare column name;
// the relational layer keeps column names unique within a schema.

#ifndef MUSKETEER_SRC_FRONTENDS_EXPR_PARSER_H_
#define MUSKETEER_SRC_FRONTENDS_EXPR_PARSER_H_

#include "src/frontends/lexer.h"
#include "src/ir/expr.h"

namespace musketeer {

// The deepest expression the parser accepts, counting both the tree's depth
// and the parentheses and unary minuses open at any point. Everything that
// consumes an expression recurses once per level, so a deeper one from
// untrusted source could overflow the stack.
inline constexpr int kMaxExpressionDepth = 256;

// The deepest nesting of statement blocks (BEER WHILE bodies) a front end
// accepts. Parsing, and everything that walks the IR later, recurses once
// per level; a deeper program is InvalidArgument, naming the limit and the
// line.
inline constexpr int kMaxStatementDepth = 64;

// Parses one expression at the cursor. An expression deeper than
// kMaxExpressionDepth is InvalidArgument, naming the limit and the line.
StatusOr<ExprPtr> ParseExpression(TokenCursor* cursor);

}  // namespace musketeer

#endif  // MUSKETEER_SRC_FRONTENDS_EXPR_PARSER_H_
