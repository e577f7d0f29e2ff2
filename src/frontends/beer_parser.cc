#include "src/frontends/beer_parser.h"

#include <unordered_map>
#include <unordered_set>

#include "src/base/strings.h"
#include "src/frontends/expr_parser.h"
#include "src/frontends/lexer.h"
#include "src/frontends/udf_registry.h"

namespace musketeer {

namespace {

// Parser state for one DAG scope (the top level, or one WHILE body).
struct Scope {
  Dag* dag;
  // Relation name -> producing node id within this scope.
  std::unordered_map<std::string, int> defined;
  // Relations referenced but not defined here (candidate outer/base inputs),
  // in first-reference order.
  std::vector<std::string> external_refs;
};

class BeerParser {
 public:
  explicit BeerParser(TokenCursor* cursor) : cursor_(*cursor) {}

  Status ParseStatements(Scope* scope, bool stop_at_brace) {
    while (!cursor_.AtEnd()) {
      if (stop_at_brace && cursor_.Peek().IsSymbol("}")) {
        return OkStatus();
      }
      if (cursor_.Peek().IsKeyword("WHILE")) {
        MUSKETEER_RETURN_IF_ERROR(ParseWhile(scope));
        continue;
      }
      MUSKETEER_RETURN_IF_ERROR(ParseAssignment(scope));
    }
    if (stop_at_brace) {
      return cursor_.ErrorHere("expected '}' closing WHILE body");
    }
    return OkStatus();
  }

 private:
  // Resolves a relation reference: existing definition in scope, or a new
  // INPUT node (recorded as an external reference).
  int ResolveRelation(Scope* scope, const std::string& name) {
    auto it = scope->defined.find(name);
    if (it != scope->defined.end()) {
      return it->second;
    }
    int id = scope->dag->AddInput(name);
    scope->defined[name] = id;
    scope->external_refs.push_back(name);
    return id;
  }

  Status DefineRelation(Scope* scope, const std::string& name, int node_id) {
    if (scope->defined.count(name) > 0) {
      return cursor_.ErrorHere("relation '" + name + "' already defined");
    }
    scope->defined[name] = node_id;
    return OkStatus();
  }

  StatusOr<std::vector<std::string>> ParseColumnList() {
    std::vector<std::string> cols;
    do {
      MUSKETEER_ASSIGN_OR_RETURN(std::string col,
                                 cursor_.ExpectIdentifier("column name"));
      cols.push_back(std::move(col));
    } while (cursor_.ConsumeSymbol(","));
    return cols;
  }

  StatusOr<AggFn> ParseAggFn(const std::string& name) {
    if (EqualsIgnoreCase(name, "SUM")) {
      return AggFn::kSum;
    }
    if (EqualsIgnoreCase(name, "COUNT")) {
      return AggFn::kCount;
    }
    if (EqualsIgnoreCase(name, "MIN")) {
      return AggFn::kMin;
    }
    if (EqualsIgnoreCase(name, "MAX")) {
      return AggFn::kMax;
    }
    if (EqualsIgnoreCase(name, "AVG")) {
      return AggFn::kAvg;
    }
    return cursor_.ErrorHere("unknown aggregation function '" + name + "'");
  }

  // name = <op-expr> ;
  Status ParseAssignment(Scope* scope) {
    MUSKETEER_ASSIGN_OR_RETURN(std::string name,
                               cursor_.ExpectIdentifier("relation name"));
    MUSKETEER_RETURN_IF_ERROR(cursor_.ExpectSymbol("="));
    MUSKETEER_ASSIGN_OR_RETURN(int node, ParseOpExpr(scope, name));
    MUSKETEER_RETURN_IF_ERROR(cursor_.ExpectSymbol(";"));
    return DefineRelation(scope, name, node);
  }

  StatusOr<int> ParseOpExpr(Scope* scope, const std::string& name) {
    const Token& t = cursor_.Peek();
    if (t.IsKeyword("SELECT")) {
      return ParseSelect(scope, name);
    }
    if (t.IsKeyword("JOIN")) {
      return ParseJoin(scope, name);
    }
    if (t.IsKeyword("CROSSJOIN")) {
      return ParseBinarySet(scope, name, OpKind::kCrossJoin);
    }
    if (t.IsKeyword("UNION")) {
      return ParseBinarySet(scope, name, OpKind::kUnion);
    }
    if (t.IsKeyword("INTERSECT")) {
      return ParseBinarySet(scope, name, OpKind::kIntersect);
    }
    if (t.IsKeyword("DIFFERENCE")) {
      return ParseBinarySet(scope, name, OpKind::kDifference);
    }
    if (t.IsKeyword("DISTINCT")) {
      cursor_.Next();
      MUSKETEER_ASSIGN_OR_RETURN(std::string rel,
                                 cursor_.ExpectIdentifier("relation name"));
      int in = ResolveRelation(scope, rel);
      return scope->dag->AddNode(OpKind::kDistinct, name, {in}, DistinctParams{});
    }
    if (t.IsKeyword("AGG")) {
      return ParseAgg(scope, name);
    }
    if (t.IsKeyword("MAP")) {
      return ParseMap(scope, name);
    }
    if (t.IsKeyword("MAX") || t.IsKeyword("MIN")) {
      return ParseExtreme(scope, name);
    }
    if (t.IsKeyword("TOPN")) {
      return ParseTopN(scope, name);
    }
    if (t.IsKeyword("SORT")) {
      return ParseSort(scope, name);
    }
    if (t.IsKeyword("UDF")) {
      return ParseUdf(scope, name);
    }
    return cursor_.ErrorHere("expected an operator keyword");
  }

  StatusOr<int> ParseSelect(Scope* scope, const std::string& name) {
    cursor_.Next();  // SELECT
    bool star = cursor_.ConsumeSymbol("*");
    std::vector<std::string> cols;
    if (!star) {
      MUSKETEER_ASSIGN_OR_RETURN(cols, ParseColumnList());
    }
    MUSKETEER_RETURN_IF_ERROR(cursor_.ExpectKeyword("FROM"));
    MUSKETEER_ASSIGN_OR_RETURN(std::string rel,
                               cursor_.ExpectIdentifier("relation name"));
    int in = ResolveRelation(scope, rel);
    ExprPtr condition;
    if (cursor_.ConsumeKeyword("WHERE")) {
      MUSKETEER_ASSIGN_OR_RETURN(condition, ParseExpression(&cursor_));
    }
    if (condition != nullptr && !star) {
      int filtered = scope->dag->AddNode(OpKind::kSelect, name + "__filtered", {in},
                                         SelectParams{condition});
      return scope->dag->AddNode(OpKind::kProject, name, {filtered},
                                 ProjectParams{std::move(cols)});
    }
    if (condition != nullptr) {
      return scope->dag->AddNode(OpKind::kSelect, name, {in},
                                 SelectParams{condition});
    }
    if (star) {
      return cursor_.ErrorHere("SELECT * without WHERE is a no-op");
    }
    return scope->dag->AddNode(OpKind::kProject, name, {in},
                               ProjectParams{std::move(cols)});
  }

  StatusOr<int> ParseJoin(Scope* scope, const std::string& name) {
    cursor_.Next();  // JOIN
    MUSKETEER_ASSIGN_OR_RETURN(std::string left,
                               cursor_.ExpectIdentifier("left relation"));
    MUSKETEER_RETURN_IF_ERROR(cursor_.ExpectSymbol(","));
    MUSKETEER_ASSIGN_OR_RETURN(std::string right,
                               cursor_.ExpectIdentifier("right relation"));
    MUSKETEER_RETURN_IF_ERROR(cursor_.ExpectKeyword("ON"));
    // relA.key = relB.key (qualifiers may appear in either order).
    MUSKETEER_ASSIGN_OR_RETURN(std::string q1, cursor_.ExpectIdentifier("relation"));
    MUSKETEER_RETURN_IF_ERROR(cursor_.ExpectSymbol("."));
    MUSKETEER_ASSIGN_OR_RETURN(std::string k1, cursor_.ExpectIdentifier("column"));
    MUSKETEER_RETURN_IF_ERROR(cursor_.ExpectSymbol("="));
    MUSKETEER_ASSIGN_OR_RETURN(std::string q2, cursor_.ExpectIdentifier("relation"));
    MUSKETEER_RETURN_IF_ERROR(cursor_.ExpectSymbol("."));
    MUSKETEER_ASSIGN_OR_RETURN(std::string k2, cursor_.ExpectIdentifier("column"));

    std::string left_key;
    std::string right_key;
    if (q1 == left && q2 == right) {
      left_key = k1;
      right_key = k2;
    } else if (q1 == right && q2 == left) {
      left_key = k2;
      right_key = k1;
    } else {
      return cursor_.ErrorHere("JOIN ON qualifiers must name the joined relations '" +
                               left + "' and '" + right + "'");
    }
    int li = ResolveRelation(scope, left);
    int ri = ResolveRelation(scope, right);
    return scope->dag->AddNode(OpKind::kJoin, name, {li, ri},
                               JoinParams{left_key, right_key});
  }

  StatusOr<int> ParseBinarySet(Scope* scope, const std::string& name, OpKind kind) {
    cursor_.Next();  // keyword
    MUSKETEER_ASSIGN_OR_RETURN(std::string left,
                               cursor_.ExpectIdentifier("left relation"));
    MUSKETEER_RETURN_IF_ERROR(cursor_.ExpectSymbol(","));
    MUSKETEER_ASSIGN_OR_RETURN(std::string right,
                               cursor_.ExpectIdentifier("right relation"));
    int li = ResolveRelation(scope, left);
    int ri = ResolveRelation(scope, right);
    OpParams params;
    switch (kind) {
      case OpKind::kCrossJoin:
        params = CrossJoinParams{};
        break;
      case OpKind::kUnion:
        params = UnionParams{};
        break;
      case OpKind::kIntersect:
        params = IntersectParams{};
        break;
      default:
        params = DifferenceParams{};
        break;
    }
    return scope->dag->AddNode(kind, name, {li, ri}, std::move(params));
  }

  StatusOr<int> ParseAgg(Scope* scope, const std::string& name) {
    cursor_.Next();  // AGG
    std::vector<NamedAgg> aggs;
    do {
      MUSKETEER_ASSIGN_OR_RETURN(std::string fn_name,
                                 cursor_.ExpectIdentifier("aggregation function"));
      MUSKETEER_ASSIGN_OR_RETURN(AggFn fn, ParseAggFn(fn_name));
      MUSKETEER_RETURN_IF_ERROR(cursor_.ExpectSymbol("("));
      std::string col;
      if (!cursor_.ConsumeSymbol("*")) {
        MUSKETEER_ASSIGN_OR_RETURN(col, cursor_.ExpectIdentifier("column"));
      } else if (fn != AggFn::kCount) {
        return cursor_.ErrorHere("'*' argument only valid for COUNT");
      }
      MUSKETEER_RETURN_IF_ERROR(cursor_.ExpectSymbol(")"));
      MUSKETEER_RETURN_IF_ERROR(cursor_.ExpectKeyword("AS"));
      MUSKETEER_ASSIGN_OR_RETURN(std::string out,
                                 cursor_.ExpectIdentifier("output column"));
      aggs.push_back(NamedAgg{fn, std::move(col), std::move(out)});
    } while (cursor_.ConsumeSymbol(","));
    MUSKETEER_RETURN_IF_ERROR(cursor_.ExpectKeyword("FROM"));
    MUSKETEER_ASSIGN_OR_RETURN(std::string rel,
                               cursor_.ExpectIdentifier("relation name"));
    int in = ResolveRelation(scope, rel);
    if (cursor_.ConsumeKeyword("GROUP")) {
      MUSKETEER_RETURN_IF_ERROR(cursor_.ExpectKeyword("BY"));
      MUSKETEER_ASSIGN_OR_RETURN(std::vector<std::string> group_cols,
                                 ParseColumnList());
      return scope->dag->AddNode(OpKind::kGroupBy, name, {in},
                                 GroupByParams{std::move(group_cols), std::move(aggs)});
    }
    return scope->dag->AddNode(OpKind::kAgg, name, {in}, AggParams{std::move(aggs)});
  }

  StatusOr<int> ParseMap(Scope* scope, const std::string& name) {
    cursor_.Next();  // MAP
    std::vector<NamedExpr> outputs;
    do {
      MUSKETEER_ASSIGN_OR_RETURN(ExprPtr e, ParseExpression(&cursor_));
      std::string out;
      if (cursor_.ConsumeKeyword("AS")) {
        MUSKETEER_ASSIGN_OR_RETURN(out, cursor_.ExpectIdentifier("output column"));
      } else if (e->kind() == ExprKind::kColumn) {
        out = e->column_name();  // passthrough column keeps its name
      } else {
        return cursor_.ErrorHere("computed MAP column needs 'AS name'");
      }
      outputs.push_back(NamedExpr{std::move(out), std::move(e)});
    } while (cursor_.ConsumeSymbol(","));
    MUSKETEER_RETURN_IF_ERROR(cursor_.ExpectKeyword("FROM"));
    MUSKETEER_ASSIGN_OR_RETURN(std::string rel,
                               cursor_.ExpectIdentifier("relation name"));
    int in = ResolveRelation(scope, rel);
    return scope->dag->AddNode(OpKind::kMap, name, {in},
                               MapParams{std::move(outputs)});
  }

  StatusOr<int> ParseExtreme(Scope* scope, const std::string& name) {
    bool take_max = cursor_.Peek().IsKeyword("MAX");
    cursor_.Next();
    MUSKETEER_RETURN_IF_ERROR(cursor_.ExpectSymbol("("));
    MUSKETEER_ASSIGN_OR_RETURN(std::string col, cursor_.ExpectIdentifier("column"));
    MUSKETEER_RETURN_IF_ERROR(cursor_.ExpectSymbol(")"));
    MUSKETEER_RETURN_IF_ERROR(cursor_.ExpectKeyword("FROM"));
    MUSKETEER_ASSIGN_OR_RETURN(std::string rel,
                               cursor_.ExpectIdentifier("relation name"));
    int in = ResolveRelation(scope, rel);
    return scope->dag->AddNode(take_max ? OpKind::kMax : OpKind::kMin, name, {in},
                               ExtremeParams{std::move(col)});
  }

  StatusOr<int> ParseTopN(Scope* scope, const std::string& name) {
    cursor_.Next();  // TOPN
    MUSKETEER_RETURN_IF_ERROR(cursor_.ExpectSymbol("("));
    MUSKETEER_ASSIGN_OR_RETURN(std::string col, cursor_.ExpectIdentifier("column"));
    MUSKETEER_RETURN_IF_ERROR(cursor_.ExpectSymbol(","));
    if (cursor_.Peek().kind != TokenKind::kInteger) {
      return cursor_.ErrorHere("expected integer N");
    }
    int64_t n = cursor_.Next().int_value;
    MUSKETEER_RETURN_IF_ERROR(cursor_.ExpectSymbol(")"));
    MUSKETEER_RETURN_IF_ERROR(cursor_.ExpectKeyword("FROM"));
    MUSKETEER_ASSIGN_OR_RETURN(std::string rel,
                               cursor_.ExpectIdentifier("relation name"));
    int in = ResolveRelation(scope, rel);
    return scope->dag->AddNode(OpKind::kTopN, name, {in},
                               TopNParams{std::move(col), n});
  }

  StatusOr<int> ParseSort(Scope* scope, const std::string& name) {
    cursor_.Next();  // SORT
    MUSKETEER_ASSIGN_OR_RETURN(std::string rel,
                               cursor_.ExpectIdentifier("relation name"));
    MUSKETEER_RETURN_IF_ERROR(cursor_.ExpectKeyword("BY"));
    MUSKETEER_ASSIGN_OR_RETURN(std::vector<std::string> cols, ParseColumnList());
    int in = ResolveRelation(scope, rel);
    return scope->dag->AddNode(OpKind::kSort, name, {in},
                               SortParams{std::move(cols)});
  }

  // name = UDF function(rel [, rel...]);
  StatusOr<int> ParseUdf(Scope* scope, const std::string& name) {
    cursor_.Next();  // UDF
    MUSKETEER_ASSIGN_OR_RETURN(std::string fn_name,
                               cursor_.ExpectIdentifier("UDF name"));
    auto def = LookupUdf(fn_name);
    if (!def.ok()) {
      return cursor_.ErrorHere(def.status().message());
    }
    MUSKETEER_RETURN_IF_ERROR(cursor_.ExpectSymbol("("));
    std::vector<int> inputs;
    if (!cursor_.Peek().IsSymbol(")")) {
      do {
        MUSKETEER_ASSIGN_OR_RETURN(std::string rel,
                                   cursor_.ExpectIdentifier("relation name"));
        inputs.push_back(ResolveRelation(scope, rel));
      } while (cursor_.ConsumeSymbol(","));
    }
    MUSKETEER_RETURN_IF_ERROR(cursor_.ExpectSymbol(")"));
    if (static_cast<int>(inputs.size()) != def->arity) {
      return cursor_.ErrorHere("UDF '" + fn_name + "' expects " +
                               std::to_string(def->arity) + " relation(s), got " +
                               std::to_string(inputs.size()));
    }
    UdfParams params;
    params.name = def->name;
    params.output_schema = def->output_schema;
    params.fn = def->fn;
    return scope->dag->AddNode(OpKind::kUdf, name, std::move(inputs),
                               std::move(params));
  }

  // WHILE n LOOP lv = init UPDATE next [, ...] { body } YIELD rel AS name;
  Status ParseWhile(Scope* scope) {
    if (while_depth_ >= kMaxStatementDepth) {
      return cursor_.ErrorHere("WHILE blocks nested deeper than " +
                               std::to_string(kMaxStatementDepth) + " levels");
    }
    cursor_.Next();  // WHILE
    // WHILE FIXPOINT <max> iterates until the loop-carried relations stop
    // changing (data-dependent iteration), bounded by <max> trips.
    bool until_fixpoint = cursor_.ConsumeKeyword("FIXPOINT");
    if (cursor_.Peek().kind != TokenKind::kInteger) {
      return cursor_.ErrorHere("expected iteration count after WHILE");
    }
    int64_t iterations = cursor_.Next().int_value;
    MUSKETEER_RETURN_IF_ERROR(cursor_.ExpectKeyword("LOOP"));

    std::vector<LoopBinding> bindings;
    std::vector<int> inputs;
    do {
      MUSKETEER_ASSIGN_OR_RETURN(std::string lv,
                                 cursor_.ExpectIdentifier("loop variable"));
      MUSKETEER_RETURN_IF_ERROR(cursor_.ExpectSymbol("="));
      MUSKETEER_ASSIGN_OR_RETURN(std::string init,
                                 cursor_.ExpectIdentifier("initial relation"));
      MUSKETEER_RETURN_IF_ERROR(cursor_.ExpectKeyword("UPDATE"));
      MUSKETEER_ASSIGN_OR_RETURN(std::string next,
                                 cursor_.ExpectIdentifier("update relation"));
      inputs.push_back(ResolveRelation(scope, init));
      bindings.push_back(LoopBinding{std::move(lv), std::move(next)});
    } while (cursor_.ConsumeSymbol(","));

    MUSKETEER_RETURN_IF_ERROR(cursor_.ExpectSymbol("{"));
    auto body = std::make_unique<Dag>();
    Scope body_scope;
    body_scope.dag = body.get();
    // Loop variables resolve to body INPUT nodes.
    for (const LoopBinding& b : bindings) {
      int id = body->AddInput(b.loop_input);
      body_scope.defined[b.loop_input] = id;
    }
    ++while_depth_;
    Status body_status = ParseStatements(&body_scope, /*stop_at_brace=*/true);
    --while_depth_;
    MUSKETEER_RETURN_IF_ERROR(body_status);
    MUSKETEER_RETURN_IF_ERROR(cursor_.ExpectSymbol("}"));

    MUSKETEER_RETURN_IF_ERROR(cursor_.ExpectKeyword("YIELD"));
    MUSKETEER_ASSIGN_OR_RETURN(std::string result,
                               cursor_.ExpectIdentifier("result relation"));
    MUSKETEER_RETURN_IF_ERROR(cursor_.ExpectKeyword("AS"));
    MUSKETEER_ASSIGN_OR_RETURN(std::string name,
                               cursor_.ExpectIdentifier("output name"));
    MUSKETEER_RETURN_IF_ERROR(cursor_.ExpectSymbol(";"));

    if (body_scope.defined.count(result) == 0) {
      return cursor_.ErrorHere("YIELD relation '" + result +
                               "' not defined in WHILE body");
    }

    // Every body reference to an outer relation becomes an explicit
    // loop-invariant input of the WHILE node (creating a base-relation INPUT
    // in the outer scope if needed), so the job extractor sees the loop's
    // full data dependencies.
    for (const std::string& ref : body_scope.external_refs) {
      inputs.push_back(ResolveRelation(scope, ref));
    }

    WhileParams params;
    params.iterations = iterations;
    params.until_fixpoint = until_fixpoint;
    params.body = std::shared_ptr<const Dag>(body.release());
    params.bindings = std::move(bindings);
    params.result = std::move(result);
    int id = scope->dag->AddNode(OpKind::kWhile, name, std::move(inputs),
                                 std::move(params));
    return DefineRelation(scope, name, id);
  }

  TokenCursor& cursor_;
  int while_depth_ = 0;  // WHILE bodies open at the cursor
};

}  // namespace

StatusOr<std::unique_ptr<Dag>> BeerFrontend::Parse(const std::string& source) const {
  MUSKETEER_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  TokenCursor cursor(std::move(tokens));
  auto dag = std::make_unique<Dag>();
  Scope scope;
  scope.dag = dag.get();
  BeerParser parser(&cursor);
  MUSKETEER_RETURN_IF_ERROR(parser.ParseStatements(&scope, /*stop_at_brace=*/false));
  MUSKETEER_RETURN_IF_ERROR(dag->Validate());
  return dag;
}

}  // namespace musketeer
