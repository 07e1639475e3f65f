#include "cql/decorrelate.h"

#include <string>
#include <vector>

#include "cql/expr_eval.h"

namespace esp::cql {

using stream::DataType;

namespace {

Status Decline(const std::string& reason) {
  return Status::FailedPrecondition(reason);
}

/// Appends every column reference in `expr`. Returns false when `expr`
/// contains a subquery, whose scoping this analysis does not model.
bool CollectColumnRefs(const Expr& expr,
                       std::vector<const ColumnRefExpr*>& refs) {
  const auto all = [&refs](std::initializer_list<const Expr*> exprs) {
    for (const Expr* e : exprs) {
      if (e != nullptr && !CollectColumnRefs(*e, refs)) return false;
    }
    return true;
  };
  switch (expr.kind()) {
    case ExprKind::kLiteral:
    case ExprKind::kStar:
      return true;
    case ExprKind::kColumnRef:
      refs.push_back(static_cast<const ColumnRefExpr*>(&expr));
      return true;
    case ExprKind::kUnary:
      return all({static_cast<const UnaryExpr&>(expr).operand.get()});
    case ExprKind::kBinary: {
      const auto& binary = static_cast<const BinaryExpr&>(expr);
      return all({binary.lhs.get(), binary.rhs.get()});
    }
    case ExprKind::kFunctionCall:
      for (const ExprPtr& arg :
           static_cast<const FunctionCallExpr&>(expr).args) {
        if (!all({arg.get()})) return false;
      }
      return true;
    case ExprKind::kIn: {
      const auto& in = static_cast<const InExpr&>(expr);
      if (in.subquery != nullptr) return false;
      for (const ExprPtr& item : in.list) {
        if (!all({item.get()})) return false;
      }
      return all({in.lhs.get()});
    }
    case ExprKind::kIsNull:
      return all({static_cast<const IsNullExpr&>(expr).operand.get()});
    case ExprKind::kBetween: {
      const auto& between = static_cast<const BetweenExpr&>(expr);
      return all({between.value.get(), between.low.get(), between.high.get()});
    }
    case ExprKind::kCase: {
      const auto& case_expr = static_cast<const CaseExpr&>(expr);
      for (const CaseExpr::WhenClause& when : case_expr.whens) {
        if (!all({when.condition.get(), when.result.get()})) return false;
      }
      return all({case_expr.else_result.get()});
    }
    case ExprKind::kScalarSubquery:
    case ExprKind::kQuantifiedComparison:
    case ExprKind::kExists:
      return false;
  }
  return false;
}

}  // namespace

StatusOr<SubqueryRewrite> PlanDecorrelation(const SelectQuery& subquery,
                                            const AnalysisScope& outer,
                                            const SchemaCatalog& catalog) {
  if (subquery.from.size() != 1 ||
      subquery.from[0].kind != TableRef::Kind::kStream) {
    return Decline("FROM is not a single stream reference");
  }
  if (subquery.distinct || !subquery.order_by.empty() ||
      subquery.limit.has_value()) {
    return Decline("DISTINCT, ORDER BY or LIMIT");
  }
  if (subquery.group_by.empty() && internal::QueryUsesAggregation(subquery)) {
    return Decline("aggregate without GROUP BY");
  }
  // The subquery's own scope, without the enclosing one: a column that
  // resolves here is inner, exactly as the evaluator's scope walk decides.
  const TableRef& ref = subquery.from[0];
  AnalysisScope inner;
  StatusOr<stream::SchemaRef> schema = catalog.Find(ref.stream_name);
  if (!schema.ok()) return Decline(schema.status().message());
  inner.frames.push_back(
      {ref.alias.empty() ? ref.stream_name : ref.alias, *schema});

  std::vector<const ColumnRefExpr*> refs;
  bool plain = true;
  for (const SelectItem& item : subquery.items) {
    plain = plain && CollectColumnRefs(*item.expr, refs);
  }
  for (const ExprPtr& key : subquery.group_by) {
    plain = plain && CollectColumnRefs(*key, refs);
  }
  for (const Expr* clause : {subquery.where.get(), subquery.having.get()}) {
    if (clause != nullptr) plain = plain && CollectColumnRefs(*clause, refs);
  }
  if (!plain) return Decline("nested subquery");

  const ColumnRefExpr* outer_ref = nullptr;
  for (const ColumnRefExpr* column : refs) {
    if (InferExprType(*column, catalog, inner).ok()) continue;
    if (outer_ref != nullptr) return Decline("more than one outer reference");
    outer_ref = column;
  }
  if (outer_ref == nullptr) return Decline("not correlated");

  // The one outer reference must be a side of a top-level `=` conjunct whose
  // other side is an inner column.
  std::vector<const Expr*> conjuncts;
  if (subquery.where != nullptr) FlattenAnd(*subquery.where, conjuncts);
  const Expr* key_conjunct = nullptr;
  const ColumnRefExpr* inner_ref = nullptr;
  for (const Expr* conjunct : conjuncts) {
    if (conjunct->kind() != ExprKind::kBinary) continue;
    const auto& eq = static_cast<const BinaryExpr&>(*conjunct);
    if (eq.op != BinaryOp::kEquals ||
        eq.lhs->kind() != ExprKind::kColumnRef ||
        eq.rhs->kind() != ExprKind::kColumnRef) {
      continue;
    }
    const auto* lhs = static_cast<const ColumnRefExpr*>(eq.lhs.get());
    const auto* rhs = static_cast<const ColumnRefExpr*>(eq.rhs.get());
    if (lhs == outer_ref || rhs == outer_ref) {
      key_conjunct = conjunct;
      inner_ref = lhs == outer_ref ? rhs : lhs;
    }
  }
  if (key_conjunct == nullptr) {
    return Decline("outer reference outside a top-level column = column");
  }

  AnalysisScope enclosing = outer;
  enclosing.outer = nullptr;  // The enclosing query's own FROM only.
  const StatusOr<DataType> outer_type =
      InferExprType(*outer_ref, catalog, enclosing);
  if (!outer_type.ok()) {
    return Decline("outer reference does not resolve in the enclosing query");
  }
  const StatusOr<DataType> inner_type =
      InferExprType(*inner_ref, catalog, inner);
  if (!inner_type.ok() || *outer_type != *inner_type) {
    return Decline("key column types differ");
  }
  if (*inner_type == DataType::kDouble || *inner_type == DataType::kNull) {
    return Decline("double or dynamically typed key");
  }

  SubqueryRewrite rewrite;
  rewrite.outer_key = outer_ref;
  rewrite.key_type = *inner_type;
  rewrite.rewritten = CloneQuery(subquery);
  SelectQuery& q = *rewrite.rewritten;
  q.where = nullptr;
  for (const Expr* conjunct : conjuncts) {
    if (conjunct == key_conjunct) continue;
    ExprPtr copy = CloneExpr(*conjunct);
    q.where = q.where == nullptr
                  ? std::move(copy)
                  : std::make_unique<BinaryExpr>(
                        BinaryOp::kAnd, std::move(q.where), std::move(copy));
  }
  q.items.insert(q.items.begin(), SelectItem{CloneExpr(*inner_ref), ""});
  if (!q.group_by.empty()) {
    q.group_by.insert(q.group_by.begin(), CloneExpr(*inner_ref));
  }
  StatusOr<stream::SchemaRef> output = InferOutputSchema(q, catalog);
  if (!output.ok()) {
    return Decline("rewrite does not analyze: " + output.status().message());
  }
  rewrite.value_columns = (*output)->num_fields() - 1;
  return rewrite;
}

}  // namespace esp::cql
