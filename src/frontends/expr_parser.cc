#include "src/frontends/expr_parser.h"

#include <algorithm>
#include <string>

namespace musketeer {

namespace {

// An expression subtree and its depth (a leaf has depth 1).
struct Parsed {
  ExprPtr expr;
  int depth = 1;
};

class ExprParser {
 public:
  explicit ExprParser(TokenCursor* c) : c_(c) {}

  StatusOr<Parsed> Or() {
    MUSKETEER_ASSIGN_OR_RETURN(Parsed lhs, And());
    while (c_->ConsumeKeyword("OR")) {
      MUSKETEER_ASSIGN_OR_RETURN(Parsed rhs, And());
      MUSKETEER_ASSIGN_OR_RETURN(lhs, Join(BinOp::kOr, lhs, rhs));
    }
    return lhs;
  }

 private:
  StatusOr<Parsed> Primary() {
    const Token& t = c_->Peek();
    switch (t.kind) {
      case TokenKind::kInteger: {
        int64_t v = t.int_value;
        c_->Next();
        return Parsed{Expr::Literal(v)};
      }
      case TokenKind::kDouble: {
        double v = t.double_value;
        c_->Next();
        return Parsed{Expr::Literal(v)};
      }
      case TokenKind::kString: {
        std::string v = t.text;
        c_->Next();
        return Parsed{Expr::Literal(std::move(v))};
      }
      case TokenKind::kIdentifier: {
        std::string name = c_->Next().text;
        // Qualified reference: rel.col -> col.
        if (c_->Peek().IsSymbol(".") &&
            c_->Peek(1).kind == TokenKind::kIdentifier) {
          c_->Next();
          name = c_->Next().text;
        }
        return Parsed{Expr::Column(std::move(name))};
      }
      case TokenKind::kSymbol: {
        // Parentheses and unary minus recurse; bound the recursion before
        // it can exhaust the stack.
        const bool paren = t.IsSymbol("(");
        if (!paren && !t.IsSymbol("-")) {
          break;
        }
        if (nesting_ >= kMaxExpressionDepth) {
          return TooDeep();
        }
        c_->Next();
        ++nesting_;
        StatusOr<Parsed> inner = paren ? Or() : Primary();
        --nesting_;
        MUSKETEER_ASSIGN_OR_RETURN(Parsed sub, std::move(inner));
        if (paren) {
          MUSKETEER_RETURN_IF_ERROR(c_->ExpectSymbol(")"));
          return sub;
        }
        return Join(BinOp::kSub, Parsed{Expr::Literal(int64_t{0})}, sub);
      }
      default:
        break;
    }
    return c_->ErrorHere("expected expression");
  }

  StatusOr<Parsed> Mul() {
    MUSKETEER_ASSIGN_OR_RETURN(Parsed lhs, Primary());
    while (true) {
      BinOp op;
      if (c_->Peek().IsSymbol("*")) {
        op = BinOp::kMul;
      } else if (c_->Peek().IsSymbol("/")) {
        op = BinOp::kDiv;
      } else {
        return lhs;
      }
      c_->Next();
      MUSKETEER_ASSIGN_OR_RETURN(Parsed rhs, Primary());
      MUSKETEER_ASSIGN_OR_RETURN(lhs, Join(op, lhs, rhs));
    }
  }

  StatusOr<Parsed> Add() {
    MUSKETEER_ASSIGN_OR_RETURN(Parsed lhs, Mul());
    while (true) {
      BinOp op;
      if (c_->Peek().IsSymbol("+")) {
        op = BinOp::kAdd;
      } else if (c_->Peek().IsSymbol("-")) {
        op = BinOp::kSub;
      } else {
        return lhs;
      }
      c_->Next();
      MUSKETEER_ASSIGN_OR_RETURN(Parsed rhs, Mul());
      MUSKETEER_ASSIGN_OR_RETURN(lhs, Join(op, lhs, rhs));
    }
  }

  StatusOr<Parsed> Cmp() {
    MUSKETEER_ASSIGN_OR_RETURN(Parsed lhs, Add());
    BinOp op;
    const Token& t = c_->Peek();
    if (t.IsSymbol("=") || t.IsSymbol("==")) {
      op = BinOp::kEq;
    } else if (t.IsSymbol("!=")) {
      op = BinOp::kNe;
    } else if (t.IsSymbol("<")) {
      op = BinOp::kLt;
    } else if (t.IsSymbol("<=")) {
      op = BinOp::kLe;
    } else if (t.IsSymbol(">")) {
      op = BinOp::kGt;
    } else if (t.IsSymbol(">=")) {
      op = BinOp::kGe;
    } else {
      return lhs;
    }
    c_->Next();
    MUSKETEER_ASSIGN_OR_RETURN(Parsed rhs, Add());
    return Join(op, lhs, rhs);
  }

  StatusOr<Parsed> And() {
    MUSKETEER_ASSIGN_OR_RETURN(Parsed lhs, Cmp());
    while (c_->ConsumeKeyword("AND")) {
      MUSKETEER_ASSIGN_OR_RETURN(Parsed rhs, Cmp());
      MUSKETEER_ASSIGN_OR_RETURN(lhs, Join(BinOp::kAnd, lhs, rhs));
    }
    return lhs;
  }

  // Builds `lhs op rhs`, unless the tree would grow deeper than the limit.
  // Operator chains build their trees in a loop, so the check must happen
  // here: a deep tree is only recursed later (evaluation, printing, even its
  // destructor), where it would overflow the stack.
  StatusOr<Parsed> Join(BinOp op, const Parsed& lhs, const Parsed& rhs) const {
    const int depth = 1 + std::max(lhs.depth, rhs.depth);
    if (depth > kMaxExpressionDepth) {
      return TooDeep();
    }
    return Parsed{Expr::Binary(op, lhs.expr, rhs.expr), depth};
  }

  Status TooDeep() const {
    return c_->ErrorHere("expression nested deeper than " +
                         std::to_string(kMaxExpressionDepth) + " levels");
  }

  TokenCursor* c_;
  int nesting_ = 0;  // parentheses and unary minuses open at the cursor
};

}  // namespace

StatusOr<ExprPtr> ParseExpression(TokenCursor* cursor) {
  MUSKETEER_ASSIGN_OR_RETURN(Parsed parsed, ExprParser(cursor).Or());
  return parsed.expr;
}

}  // namespace musketeer
