#ifndef ESP_CQL_AST_H_
#define ESP_CQL_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "stream/value.h"
#include "stream/window.h"

namespace esp::cql {

struct SelectQuery;

/// \brief Discriminator for Expr subclasses; the evaluator dispatches on it.
enum class ExprKind {
  kLiteral,
  kColumnRef,
  kStar,
  kUnary,
  kBinary,
  kFunctionCall,
  kScalarSubquery,
  kQuantifiedComparison,
  kIn,
  kExists,
  kIsNull,
  kBetween,
  kCase,
};

/// \brief Base class for all scalar/boolean expressions in a query.
class Expr {
 public:
  explicit Expr(ExprKind kind) : kind_(kind) {}
  virtual ~Expr() = default;

  Expr(const Expr&) = delete;
  Expr& operator=(const Expr&) = delete;

  ExprKind kind() const { return kind_; }

  /// Re-renders the expression as CQL text (used in tests and error
  /// messages; parses back to an equivalent tree).
  virtual std::string ToString() const = 0;

 private:
  ExprKind kind_;
};

using ExprPtr = std::unique_ptr<Expr>;

class LiteralExpr : public Expr {
 public:
  explicit LiteralExpr(stream::Value value)
      : Expr(ExprKind::kLiteral), value(std::move(value)) {}
  std::string ToString() const override;

  stream::Value value;
};

class ColumnRefExpr : public Expr {
 public:
  ColumnRefExpr(std::string qualifier, std::string name)
      : Expr(ExprKind::kColumnRef),
        qualifier(std::move(qualifier)),
        name(std::move(name)) {}
  std::string ToString() const override;

  std::string qualifier;  // Empty when unqualified.
  std::string name;
};

/// `*` as used in `SELECT *` and `count(*)`.
class StarExpr : public Expr {
 public:
  StarExpr() : Expr(ExprKind::kStar) {}
  std::string ToString() const override { return "*"; }
};

enum class UnaryOp { kNot, kNegate };

class UnaryExpr : public Expr {
 public:
  UnaryExpr(UnaryOp op, ExprPtr operand)
      : Expr(ExprKind::kUnary), op(op), operand(std::move(operand)) {}
  std::string ToString() const override;

  UnaryOp op;
  ExprPtr operand;
};

enum class BinaryOp {
  kAdd,
  kSubtract,
  kMultiply,
  kDivide,
  kModulo,
  kEquals,
  kNotEquals,
  kLess,
  kLessEquals,
  kGreater,
  kGreaterEquals,
  kAnd,
  kOr,
};

/// Renders the operator as CQL text ("+", ">=", "AND", ...).
const char* BinaryOpToString(BinaryOp op);

class BinaryExpr : public Expr {
 public:
  BinaryExpr(BinaryOp op, ExprPtr lhs, ExprPtr rhs)
      : Expr(ExprKind::kBinary),
        op(op),
        lhs(std::move(lhs)),
        rhs(std::move(rhs)) {}
  std::string ToString() const override;

  BinaryOp op;
  ExprPtr lhs;
  ExprPtr rhs;
};

/// A call that may be a scalar function or an aggregate; which one is
/// decided by name lookup (aggregate registry first) during analysis.
class FunctionCallExpr : public Expr {
 public:
  FunctionCallExpr(std::string name, bool distinct, std::vector<ExprPtr> args)
      : Expr(ExprKind::kFunctionCall),
        name(std::move(name)),
        distinct(distinct),
        args(std::move(args)) {}
  std::string ToString() const override;

  /// True for count(*): exactly one argument and it is `*`.
  bool IsStarArg() const {
    return args.size() == 1 && args[0]->kind() == ExprKind::kStar;
  }

  std::string name;
  bool distinct;
  std::vector<ExprPtr> args;
};

class ScalarSubqueryExpr : public Expr {
 public:
  explicit ScalarSubqueryExpr(std::unique_ptr<SelectQuery> query);
  ~ScalarSubqueryExpr() override;
  std::string ToString() const override;

  std::unique_ptr<SelectQuery> query;
};

enum class Quantifier { kAll, kAny };

/// `expr op ALL(subquery)` / `expr op ANY(subquery)` — Query 3's HAVING.
class QuantifiedComparisonExpr : public Expr {
 public:
  QuantifiedComparisonExpr(BinaryOp op, ExprPtr lhs, Quantifier quantifier,
                           std::unique_ptr<SelectQuery> subquery);
  ~QuantifiedComparisonExpr() override;
  std::string ToString() const override;

  BinaryOp op;
  ExprPtr lhs;
  Quantifier quantifier;
  std::unique_ptr<SelectQuery> subquery;
};

/// `expr [NOT] IN (subquery)` or `expr [NOT] IN (v1, v2, ...)`.
class InExpr : public Expr {
 public:
  InExpr(ExprPtr lhs, bool negated, std::unique_ptr<SelectQuery> subquery,
         std::vector<ExprPtr> list);
  ~InExpr() override;
  std::string ToString() const override;

  ExprPtr lhs;
  bool negated;
  std::unique_ptr<SelectQuery> subquery;  // Null when using `list`.
  std::vector<ExprPtr> list;
};

class ExistsExpr : public Expr {
 public:
  ExistsExpr(bool negated, std::unique_ptr<SelectQuery> subquery);
  ~ExistsExpr() override;
  std::string ToString() const override;

  bool negated;
  std::unique_ptr<SelectQuery> subquery;
};

class IsNullExpr : public Expr {
 public:
  IsNullExpr(bool negated, ExprPtr operand)
      : Expr(ExprKind::kIsNull), negated(negated), operand(std::move(operand)) {}
  std::string ToString() const override;

  bool negated;
  ExprPtr operand;
};

class BetweenExpr : public Expr {
 public:
  BetweenExpr(bool negated, ExprPtr value, ExprPtr low, ExprPtr high)
      : Expr(ExprKind::kBetween),
        negated(negated),
        value(std::move(value)),
        low(std::move(low)),
        high(std::move(high)) {}
  std::string ToString() const override;

  bool negated;
  ExprPtr value;
  ExprPtr low;
  ExprPtr high;
};

/// Searched CASE: `CASE WHEN cond THEN result ... [ELSE result] END`.
class CaseExpr : public Expr {
 public:
  struct WhenClause {
    ExprPtr condition;
    ExprPtr result;
  };

  CaseExpr(std::vector<WhenClause> whens, ExprPtr else_result)
      : Expr(ExprKind::kCase),
        whens(std::move(whens)),
        else_result(std::move(else_result)) {}
  std::string ToString() const override;

  std::vector<WhenClause> whens;
  ExprPtr else_result;  // May be null (implicit ELSE NULL).
};

/// \brief One item of the SELECT list.
struct SelectItem {
  ExprPtr expr;
  std::string alias;  // Empty when no AS clause.

  std::string ToString() const;
};

/// \brief One entry of the FROM clause: either a windowed stream reference
/// or a derived table (subquery).
struct TableRef {
  enum class Kind { kStream, kSubquery };

  Kind kind = Kind::kStream;
  std::string stream_name;                // kStream.
  stream::WindowSpec window;              // kStream; default Unbounded.
  std::unique_ptr<SelectQuery> subquery;  // kSubquery.
  std::string alias;  // Defaults to stream_name for kStream; required for
                      // kSubquery in standard SQL but we synthesize one.

  std::string ToString() const;
};

struct OrderByItem {
  ExprPtr expr;
  bool descending = false;
};

/// \brief A parsed SELECT query (the only statement form CQL stages use).
struct SelectQuery {
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<TableRef> from;  // Empty for FROM-less SELECT (one-row input).
  ExprPtr where;
  std::vector<ExprPtr> group_by;
  ExprPtr having;
  std::vector<OrderByItem> order_by;
  std::optional<int64_t> limit;

  std::string ToString() const;
};

/// \brief Deep copies of an expression / a query (subqueries included). The
/// copy shares no nodes with the original, so it can be rewritten freely.
ExprPtr CloneExpr(const Expr& expr);
std::unique_ptr<SelectQuery> CloneQuery(const SelectQuery& query);

/// \brief Appends the conjuncts of `expr`'s top-level AND tree to `out`,
/// left to right (`expr` itself when it is not an AND).
void FlattenAnd(const Expr& expr, std::vector<const Expr*>& out);

}  // namespace esp::cql

#endif  // ESP_CQL_AST_H_
