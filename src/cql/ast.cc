#include "cql/ast.h"

#include "common/string_util.h"

namespace esp::cql {

std::string LiteralExpr::ToString() const {
  if (value.type() == stream::DataType::kString) {
    std::string escaped;
    for (char c : value.string_value()) {
      if (c == '\'') escaped += '\'';
      escaped += c;
    }
    return "'" + escaped + "'";
  }
  return value.ToString();
}

std::string ColumnRefExpr::ToString() const {
  return qualifier.empty() ? name : qualifier + "." + name;
}

std::string UnaryExpr::ToString() const {
  switch (op) {
    case UnaryOp::kNot:
      // Self-parenthesized so the rendering stays valid in operand
      // positions (NOT binds looser than comparisons in the grammar).
      return "(NOT " + operand->ToString() + ")";
    case UnaryOp::kNegate:
      return "-(" + operand->ToString() + ")";
  }
  return "?";
}

const char* BinaryOpToString(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSubtract:
      return "-";
    case BinaryOp::kMultiply:
      return "*";
    case BinaryOp::kDivide:
      return "/";
    case BinaryOp::kModulo:
      return "%";
    case BinaryOp::kEquals:
      return "=";
    case BinaryOp::kNotEquals:
      return "!=";
    case BinaryOp::kLess:
      return "<";
    case BinaryOp::kLessEquals:
      return "<=";
    case BinaryOp::kGreater:
      return ">";
    case BinaryOp::kGreaterEquals:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
  }
  return "?";
}

std::string BinaryExpr::ToString() const {
  return "(" + lhs->ToString() + " " + BinaryOpToString(op) + " " +
         rhs->ToString() + ")";
}

std::string FunctionCallExpr::ToString() const {
  std::string result = name + "(";
  if (distinct) result += "distinct ";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) result += ", ";
    result += args[i]->ToString();
  }
  result += ")";
  return result;
}

ScalarSubqueryExpr::ScalarSubqueryExpr(std::unique_ptr<SelectQuery> query)
    : Expr(ExprKind::kScalarSubquery), query(std::move(query)) {}
ScalarSubqueryExpr::~ScalarSubqueryExpr() = default;

std::string ScalarSubqueryExpr::ToString() const {
  return "(" + query->ToString() + ")";
}

QuantifiedComparisonExpr::QuantifiedComparisonExpr(
    BinaryOp op, ExprPtr lhs, Quantifier quantifier,
    std::unique_ptr<SelectQuery> subquery)
    : Expr(ExprKind::kQuantifiedComparison),
      op(op),
      lhs(std::move(lhs)),
      quantifier(quantifier),
      subquery(std::move(subquery)) {}
QuantifiedComparisonExpr::~QuantifiedComparisonExpr() = default;

std::string QuantifiedComparisonExpr::ToString() const {
  return "(" + lhs->ToString() + " " + BinaryOpToString(op) + " " +
         (quantifier == Quantifier::kAll ? "ALL" : "ANY") + "(" +
         subquery->ToString() + "))";
}

InExpr::InExpr(ExprPtr lhs, bool negated,
               std::unique_ptr<SelectQuery> subquery, std::vector<ExprPtr> list)
    : Expr(ExprKind::kIn),
      lhs(std::move(lhs)),
      negated(negated),
      subquery(std::move(subquery)),
      list(std::move(list)) {}
InExpr::~InExpr() = default;

std::string InExpr::ToString() const {
  std::string result = "(" + lhs->ToString();
  if (negated) result += " NOT";
  result += " IN (";
  if (subquery != nullptr) {
    result += subquery->ToString();
  } else {
    for (size_t i = 0; i < list.size(); ++i) {
      if (i > 0) result += ", ";
      result += list[i]->ToString();
    }
  }
  result += "))";
  return result;
}

ExistsExpr::ExistsExpr(bool negated, std::unique_ptr<SelectQuery> subquery)
    : Expr(ExprKind::kExists), negated(negated), subquery(std::move(subquery)) {}
ExistsExpr::~ExistsExpr() = default;

std::string ExistsExpr::ToString() const {
  return std::string(negated ? "NOT " : "") + "EXISTS (" +
         subquery->ToString() + ")";
}

std::string IsNullExpr::ToString() const {
  return "(" + operand->ToString() + " IS " + (negated ? "NOT " : "") +
         "NULL)";
}

std::string BetweenExpr::ToString() const {
  return "(" + value->ToString() + (negated ? " NOT" : "") + " BETWEEN " +
         low->ToString() + " AND " + high->ToString() + ")";
}

std::string CaseExpr::ToString() const {
  std::string result = "CASE";
  for (const WhenClause& clause : whens) {
    result += " WHEN " + clause.condition->ToString() + " THEN " +
              clause.result->ToString();
  }
  if (else_result != nullptr) {
    result += " ELSE " + else_result->ToString();
  }
  result += " END";
  return result;
}

std::string SelectItem::ToString() const {
  std::string result = expr->ToString();
  if (!alias.empty()) result += " AS " + alias;
  return result;
}

std::string TableRef::ToString() const {
  std::string result;
  if (kind == Kind::kStream) {
    result = stream_name;
    if (!alias.empty() && !esp::StrEqualsIgnoreCase(alias, stream_name)) {
      result += " " + alias;
    }
    if (window.kind != stream::WindowKind::kUnbounded) {
      result += " " + window.ToString();
    }
  } else {
    result = "(" + subquery->ToString() + ")";
    if (!alias.empty()) result += " AS " + alias;
  }
  return result;
}

std::string SelectQuery::ToString() const {
  std::string result = "SELECT ";
  if (distinct) result += "DISTINCT ";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) result += ", ";
    result += items[i].ToString();
  }
  if (!from.empty()) {
    result += " FROM ";
    for (size_t i = 0; i < from.size(); ++i) {
      if (i > 0) result += ", ";
      result += from[i].ToString();
    }
  }
  if (where != nullptr) result += " WHERE " + where->ToString();
  if (!group_by.empty()) {
    result += " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) result += ", ";
      result += group_by[i]->ToString();
    }
  }
  if (having != nullptr) result += " HAVING " + having->ToString();
  if (!order_by.empty()) {
    result += " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i > 0) result += ", ";
      result += order_by[i].expr->ToString();
      if (order_by[i].descending) result += " DESC";
    }
  }
  if (limit.has_value()) result += " LIMIT " + std::to_string(*limit);
  return result;
}

namespace {

std::unique_ptr<SelectQuery> CloneSubquery(const std::unique_ptr<SelectQuery>& q) {
  return q == nullptr ? nullptr : CloneQuery(*q);
}

}  // namespace

ExprPtr CloneExpr(const Expr& expr) {
  switch (expr.kind()) {
    case ExprKind::kLiteral:
      return std::make_unique<LiteralExpr>(
          static_cast<const LiteralExpr&>(expr).value);
    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(expr);
      return std::make_unique<ColumnRefExpr>(ref.qualifier, ref.name);
    }
    case ExprKind::kStar:
      return std::make_unique<StarExpr>();
    case ExprKind::kUnary: {
      const auto& unary = static_cast<const UnaryExpr&>(expr);
      return std::make_unique<UnaryExpr>(unary.op, CloneExpr(*unary.operand));
    }
    case ExprKind::kBinary: {
      const auto& binary = static_cast<const BinaryExpr&>(expr);
      return std::make_unique<BinaryExpr>(binary.op, CloneExpr(*binary.lhs),
                                          CloneExpr(*binary.rhs));
    }
    case ExprKind::kFunctionCall: {
      const auto& call = static_cast<const FunctionCallExpr&>(expr);
      std::vector<ExprPtr> args;
      args.reserve(call.args.size());
      for (const ExprPtr& arg : call.args) args.push_back(CloneExpr(*arg));
      return std::make_unique<FunctionCallExpr>(call.name, call.distinct,
                                                std::move(args));
    }
    case ExprKind::kScalarSubquery:
      return std::make_unique<ScalarSubqueryExpr>(
          CloneQuery(*static_cast<const ScalarSubqueryExpr&>(expr).query));
    case ExprKind::kQuantifiedComparison: {
      const auto& quantified =
          static_cast<const QuantifiedComparisonExpr&>(expr);
      return std::make_unique<QuantifiedComparisonExpr>(
          quantified.op, CloneExpr(*quantified.lhs), quantified.quantifier,
          CloneQuery(*quantified.subquery));
    }
    case ExprKind::kIn: {
      const auto& in = static_cast<const InExpr&>(expr);
      std::vector<ExprPtr> list;
      list.reserve(in.list.size());
      for (const ExprPtr& item : in.list) list.push_back(CloneExpr(*item));
      return std::make_unique<InExpr>(CloneExpr(*in.lhs), in.negated,
                                      CloneSubquery(in.subquery),
                                      std::move(list));
    }
    case ExprKind::kExists: {
      const auto& exists = static_cast<const ExistsExpr&>(expr);
      return std::make_unique<ExistsExpr>(exists.negated,
                                          CloneQuery(*exists.subquery));
    }
    case ExprKind::kIsNull: {
      const auto& is_null = static_cast<const IsNullExpr&>(expr);
      return std::make_unique<IsNullExpr>(is_null.negated,
                                          CloneExpr(*is_null.operand));
    }
    case ExprKind::kBetween: {
      const auto& between = static_cast<const BetweenExpr&>(expr);
      return std::make_unique<BetweenExpr>(
          between.negated, CloneExpr(*between.value),
          CloneExpr(*between.low), CloneExpr(*between.high));
    }
    case ExprKind::kCase: {
      const auto& case_expr = static_cast<const CaseExpr&>(expr);
      std::vector<CaseExpr::WhenClause> whens;
      whens.reserve(case_expr.whens.size());
      for (const CaseExpr::WhenClause& when : case_expr.whens) {
        whens.push_back(
            {CloneExpr(*when.condition), CloneExpr(*when.result)});
      }
      return std::make_unique<CaseExpr>(
          std::move(whens), case_expr.else_result == nullptr
                                ? nullptr
                                : CloneExpr(*case_expr.else_result));
    }
  }
  return nullptr;
}

void FlattenAnd(const Expr& expr, std::vector<const Expr*>& out) {
  if (expr.kind() == ExprKind::kBinary) {
    const auto& binary = static_cast<const BinaryExpr&>(expr);
    if (binary.op == BinaryOp::kAnd) {
      FlattenAnd(*binary.lhs, out);
      FlattenAnd(*binary.rhs, out);
      return;
    }
  }
  out.push_back(&expr);
}

std::unique_ptr<SelectQuery> CloneQuery(const SelectQuery& query) {
  auto clone = std::make_unique<SelectQuery>();
  clone->distinct = query.distinct;
  for (const SelectItem& item : query.items) {
    clone->items.push_back({CloneExpr(*item.expr), item.alias});
  }
  for (const TableRef& ref : query.from) {
    TableRef copy;
    copy.kind = ref.kind;
    copy.stream_name = ref.stream_name;
    copy.window = ref.window;
    copy.subquery = CloneSubquery(ref.subquery);
    copy.alias = ref.alias;
    clone->from.push_back(std::move(copy));
  }
  if (query.where != nullptr) clone->where = CloneExpr(*query.where);
  for (const ExprPtr& key : query.group_by) {
    clone->group_by.push_back(CloneExpr(*key));
  }
  if (query.having != nullptr) clone->having = CloneExpr(*query.having);
  for (const OrderByItem& item : query.order_by) {
    clone->order_by.push_back({CloneExpr(*item.expr), item.descending});
  }
  clone->limit = query.limit;
  return clone;
}

}  // namespace esp::cql
