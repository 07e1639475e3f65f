#include "cql/fingerprint.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "common/string_util.h"
#include "cql/expr_eval.h"
#include "stream/type.h"
#include "stream/value.h"

namespace esp::cql {

using stream::DataType;
using stream::Value;
using stream::WindowKind;

namespace {

/// Renders a value with its exact type and bit pattern: folding must never
/// merge values the runtime would distinguish (1 vs 1.0, two NaN payloads).
std::string RenderValue(const Value& value) {
  switch (value.type()) {
    case DataType::kNull:
      return "#n";
    case DataType::kBool:
      return value.bool_value() ? "#b1" : "#b0";
    case DataType::kInt64:
      return "#i" + std::to_string(value.int64_value());
    case DataType::kDouble: {
      const double v = value.double_value();
      uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      return "#d" + std::to_string(bits);
    }
    case DataType::kString: {
      const std::string& s = value.string_value();
      return "#s" + std::to_string(s.size()) + ":" + s;
    }
    case DataType::kTimestamp:
      return "#t" + std::to_string(value.time_value().micros());
  }
  return "#?";
}

std::string RenderName(const std::string& name) {
  // Length-prefixed so adjacent fields can never re-tokenize into each
  // other.
  return std::to_string(name.size()) + ":" + name;
}

/// Canonical renderer. Holds the alias-scope chain so column qualifiers can
/// be normalized to (scope, frame) indices instead of their spelling.
class Renderer {
 public:
  explicit Renderer(const SchemaCatalog& schemas) : schemas_(schemas) {}

  std::string Query(const SelectQuery& query) {
    // The scope frame must be pushed before rendering any clause: every
    // clause (including SELECT items) resolves columns against FROM.
    std::vector<Frame> frames;
    for (const TableRef& ref : query.from) {
      Frame frame;
      frame.alias = esp::StrToLower(
          ref.alias.empty() && ref.kind == TableRef::Kind::kStream
              ? ref.stream_name
              : ref.alias);
      if (ref.kind == TableRef::Kind::kStream) {
        auto schema = schemas_.Find(esp::StrToLower(ref.stream_name));
        if (schema.ok()) frame.schema = *schema;
      }
      frames.push_back(std::move(frame));
    }
    scopes_.push_back(std::move(frames));

    std::string out = "(select";
    if (query.distinct) out += " distinct";
    for (size_t i = 0; i < query.items.size(); ++i) {
      const SelectItem& item = query.items[i];
      // Output field names are derived from the spelling as written, so
      // they are part of the plan's observable output — verbatim.
      out += " (out " + RenderName(OutputFieldName(item, i)) + " " +
             Expression(*item.expr) + ")";
    }
    out += " (from";
    for (const TableRef& ref : query.from) out += " " + Table(ref);
    out += ")";
    if (query.where != nullptr) {
      out += " (where " + Predicate(*query.where, query) + ")";
    }
    if (!query.group_by.empty()) {
      out += " (group";
      for (const ExprPtr& key : query.group_by) {
        out += " " + Expression(*key);
      }
      out += ")";
    }
    if (query.having != nullptr) {
      out += " (having " + Expression(*query.having) + ")";
    }
    if (!query.order_by.empty()) {
      out += " (order";
      for (const OrderByItem& item : query.order_by) {
        out += " (" + Expression(*item.expr) +
               (item.descending ? " desc)" : " asc)");
      }
      out += ")";
    }
    if (query.limit.has_value()) {
      out += " (limit " + std::to_string(*query.limit) + ")";
    }
    out += ")";

    scopes_.pop_back();
    return out;
  }

 private:
  struct Frame {
    std::string alias;          // Lowercased effective alias.
    stream::SchemaRef schema;   // Null for derived tables.
  };

  std::string Table(const TableRef& ref) {
    if (ref.kind == TableRef::Kind::kStream) {
      std::string out =
          "(stream " + RenderName(esp::StrToLower(ref.stream_name));
      switch (ref.window.kind) {
        case WindowKind::kRange:
          out += " range:" + std::to_string(ref.window.range.micros()) +
                 ":" + std::to_string(ref.window.slide.micros());
          break;
        case WindowKind::kNow:
          out += " now";
          break;
        case WindowKind::kRows:
          out += " rows:" + std::to_string(ref.window.rows);
          break;
        case WindowKind::kUnbounded:
          out += " unbounded";
          break;
      }
      return out + ")";
    }
    return "(derived " + Query(*ref.subquery) + ")";
  }

  /// The top-level WHERE of a single-stream query: flatten the AND chain
  /// and sort it when every conjunct is provably total and boolean —
  /// three-valued AND is commutative in its value, but short-circuiting is
  /// not commutative in which runtime errors it surfaces, so a conjunct
  /// that could error pins the whole chain in written order.
  std::string Predicate(const Expr& where, const SelectQuery& query) {
    const Frame* frame = nullptr;
    if (query.from.size() == 1 && scopes_.back().size() == 1 &&
        scopes_.back()[0].schema != nullptr) {
      frame = &scopes_.back()[0];
    }
    if (frame == nullptr) return Expression(where);

    std::vector<const Expr*> conjuncts;
    FlattenAnd(where, conjuncts);
    if (conjuncts.size() < 2) return Expression(where);
    for (const Expr* conjunct : conjuncts) {
      if (!IsTotalPredicate(*conjunct, *frame)) return Expression(where);
    }
    std::vector<std::string> rendered;
    rendered.reserve(conjuncts.size());
    for (const Expr* conjunct : conjuncts) {
      rendered.push_back(Expression(*conjunct));
    }
    std::sort(rendered.begin(), rendered.end());
    std::string out = "(and*";
    for (const std::string& r : rendered) out += " " + r;
    return out + ")";
  }

  /// Static type of a leaf operand (literal or column resolvable in
  /// `frame`); nullopt for anything that could fail or is not a leaf.
  static std::optional<DataType> SafeOperandType(const Expr& expr,
                                                const Frame& frame) {
    if (expr.kind() == ExprKind::kLiteral) {
      return static_cast<const LiteralExpr&>(expr).value.type();
    }
    if (expr.kind() == ExprKind::kColumnRef) {
      const auto& ref = static_cast<const ColumnRefExpr&>(expr);
      if (!ref.qualifier.empty() &&
          !esp::StrEqualsIgnoreCase(ref.qualifier, frame.alias)) {
        return std::nullopt;
      }
      const auto index = frame.schema->IndexOf(ref.name);
      if (!index.has_value()) return std::nullopt;
      return frame.schema->field(*index).type;
    }
    return std::nullopt;
  }

  /// True when Value::Compare(lhs, rhs) cannot raise: a null operand is
  /// intercepted by three-valued comparison before Compare runs.
  static bool Comparable(DataType lhs, DataType rhs) {
    if (lhs == DataType::kNull || rhs == DataType::kNull) return true;
    if (stream::IsNumericType(lhs) && stream::IsNumericType(rhs)) return true;
    return lhs == rhs;
  }

  /// True when evaluating `expr` as an AND conjunct can neither raise a
  /// runtime error nor produce a non-boolean value (which AND would reject
  /// — but only when not short-circuited away, hence order-dependent).
  static bool IsTotalPredicate(const Expr& expr, const Frame& frame) {
    switch (expr.kind()) {
      case ExprKind::kLiteral: {
        const DataType type = SafeOperandType(expr, frame).value();
        return type == DataType::kBool || type == DataType::kNull;
      }
      case ExprKind::kColumnRef: {
        const auto type = SafeOperandType(expr, frame);
        return type.has_value() && *type == DataType::kBool;
      }
      case ExprKind::kUnary: {
        const auto& unary = static_cast<const UnaryExpr&>(expr);
        return unary.op == UnaryOp::kNot &&
               IsTotalPredicate(*unary.operand, frame);
      }
      case ExprKind::kBinary: {
        const auto& binary = static_cast<const BinaryExpr&>(expr);
        switch (binary.op) {
          case BinaryOp::kAnd:
          case BinaryOp::kOr:
            return IsTotalPredicate(*binary.lhs, frame) &&
                   IsTotalPredicate(*binary.rhs, frame);
          case BinaryOp::kEquals:
          case BinaryOp::kNotEquals:
            // Value::Equals is total over every type pair.
            return SafeOperandType(*binary.lhs, frame).has_value() &&
                   SafeOperandType(*binary.rhs, frame).has_value();
          case BinaryOp::kLess:
          case BinaryOp::kLessEquals:
          case BinaryOp::kGreater:
          case BinaryOp::kGreaterEquals: {
            const auto lhs = SafeOperandType(*binary.lhs, frame);
            const auto rhs = SafeOperandType(*binary.rhs, frame);
            return lhs.has_value() && rhs.has_value() &&
                   Comparable(*lhs, *rhs);
          }
          default:
            return false;  // Arithmetic can overflow / divide by zero.
        }
      }
      case ExprKind::kIsNull:
        return SafeOperandType(*static_cast<const IsNullExpr&>(expr).operand,
                               frame)
            .has_value();
      case ExprKind::kBetween: {
        const auto& between = static_cast<const BetweenExpr&>(expr);
        const auto value = SafeOperandType(*between.value, frame);
        const auto low = SafeOperandType(*between.low, frame);
        const auto high = SafeOperandType(*between.high, frame);
        return value.has_value() && low.has_value() && high.has_value() &&
               Comparable(*value, *low) && Comparable(*value, *high);
      }
      case ExprKind::kIn: {
        const auto& in = static_cast<const InExpr&>(expr);
        if (in.subquery != nullptr) return false;
        if (!SafeOperandType(*in.lhs, frame).has_value()) return false;
        for (const ExprPtr& item : in.list) {
          if (!SafeOperandType(*item, frame).has_value()) return false;
        }
        return true;
      }
      default:
        return false;
    }
  }

  /// True when the subtree is a pure function of literals that the runtime
  /// itself would evaluate with the same machinery — no columns, no
  /// subqueries, and no scalar functions (which carry no purity contract).
  static bool IsFoldable(const Expr& expr) {
    switch (expr.kind()) {
      case ExprKind::kLiteral:
        return true;
      case ExprKind::kUnary:
        return IsFoldable(*static_cast<const UnaryExpr&>(expr).operand);
      case ExprKind::kBinary: {
        const auto& binary = static_cast<const BinaryExpr&>(expr);
        return IsFoldable(*binary.lhs) && IsFoldable(*binary.rhs);
      }
      case ExprKind::kIsNull:
        return IsFoldable(*static_cast<const IsNullExpr&>(expr).operand);
      case ExprKind::kBetween: {
        const auto& between = static_cast<const BetweenExpr&>(expr);
        return IsFoldable(*between.value) && IsFoldable(*between.low) &&
               IsFoldable(*between.high);
      }
      case ExprKind::kIn: {
        const auto& in = static_cast<const InExpr&>(expr);
        if (in.subquery != nullptr) return false;
        if (!IsFoldable(*in.lhs)) return false;
        for (const ExprPtr& item : in.list) {
          if (!IsFoldable(*item)) return false;
        }
        return true;
      }
      case ExprKind::kCase: {
        const auto& case_expr = static_cast<const CaseExpr&>(expr);
        for (const CaseExpr::WhenClause& when : case_expr.whens) {
          if (!IsFoldable(*when.condition) || !IsFoldable(*when.result)) {
            return false;
          }
        }
        return case_expr.else_result == nullptr ||
               IsFoldable(*case_expr.else_result);
      }
      default:
        return false;
    }
  }

  std::string Expression(const Expr& expr) {
    // Fold pure literal subtrees with the runtime's own evaluator; a
    // subtree that errors (1/0) stays structural so the plans keep their
    // distinct error behaviour.
    if (expr.kind() != ExprKind::kLiteral && IsFoldable(expr)) {
      internal::EvalContext ec;
      auto folded = internal::EvalExpr(expr, ec);
      if (folded.ok()) return RenderValue(*folded);
    }
    switch (expr.kind()) {
      case ExprKind::kLiteral:
        return RenderValue(static_cast<const LiteralExpr&>(expr).value);
      case ExprKind::kColumnRef:
        return Column(static_cast<const ColumnRefExpr&>(expr));
      case ExprKind::kStar:
        return "*";
      case ExprKind::kUnary: {
        const auto& unary = static_cast<const UnaryExpr&>(expr);
        return std::string(unary.op == UnaryOp::kNot ? "(not " : "(neg ") +
               Expression(*unary.operand) + ")";
      }
      case ExprKind::kBinary: {
        const auto& binary = static_cast<const BinaryExpr&>(expr);
        return std::string("(") + BinaryOpToString(binary.op) + " " +
               Expression(*binary.lhs) + " " + Expression(*binary.rhs) + ")";
      }
      case ExprKind::kFunctionCall: {
        const auto& call = static_cast<const FunctionCallExpr&>(expr);
        std::string out = "(fn " + esp::StrToLower(call.name);
        if (call.distinct) out += " distinct";
        for (const ExprPtr& arg : call.args) out += " " + Expression(*arg);
        return out + ")";
      }
      case ExprKind::kScalarSubquery:
        return "(subq " +
               Query(*static_cast<const ScalarSubqueryExpr&>(expr).query) +
               ")";
      case ExprKind::kQuantifiedComparison: {
        const auto& quantified =
            static_cast<const QuantifiedComparisonExpr&>(expr);
        return std::string("(quant ") + BinaryOpToString(quantified.op) +
               (quantified.quantifier == Quantifier::kAll ? " all "
                                                          : " any ") +
               Expression(*quantified.lhs) + " " +
               Query(*quantified.subquery) + ")";
      }
      case ExprKind::kIn: {
        const auto& in = static_cast<const InExpr&>(expr);
        std::string out = in.negated ? "(notin " : "(in ";
        out += Expression(*in.lhs);
        if (in.subquery != nullptr) {
          out += " " + Query(*in.subquery);
        } else {
          for (const ExprPtr& item : in.list) out += " " + Expression(*item);
        }
        return out + ")";
      }
      case ExprKind::kExists: {
        const auto& exists = static_cast<const ExistsExpr&>(expr);
        return std::string(exists.negated ? "(notexists " : "(exists ") +
               Query(*exists.subquery) + ")";
      }
      case ExprKind::kIsNull: {
        const auto& is_null = static_cast<const IsNullExpr&>(expr);
        return std::string(is_null.negated ? "(isnotnull " : "(isnull ") +
               Expression(*is_null.operand) + ")";
      }
      case ExprKind::kBetween: {
        const auto& between = static_cast<const BetweenExpr&>(expr);
        return std::string(between.negated ? "(notbetween " : "(between ") +
               Expression(*between.value) + " " + Expression(*between.low) +
               " " + Expression(*between.high) + ")";
      }
      case ExprKind::kCase: {
        const auto& case_expr = static_cast<const CaseExpr&>(expr);
        std::string out = "(case";
        for (const CaseExpr::WhenClause& when : case_expr.whens) {
          out += " (when " + Expression(*when.condition) + " " +
                 Expression(*when.result) + ")";
        }
        if (case_expr.else_result != nullptr) {
          out += " (else " + Expression(*case_expr.else_result) + ")";
        }
        return out + ")";
      }
    }
    return "(?)";
  }

  std::string Column(const ColumnRefExpr& ref) {
    std::string qualifier = "_";
    if (!ref.qualifier.empty()) {
      // Resolve the qualifier to (scope, frame) indices, innermost scope
      // first, so alias spelling never leaks into the fingerprint. An
      // unresolvable qualifier (invalid query) renders as spelled.
      bool resolved = false;
      for (size_t depth = 0; depth < scopes_.size() && !resolved; ++depth) {
        const std::vector<Frame>& frames =
            scopes_[scopes_.size() - 1 - depth];
        for (size_t f = 0; f < frames.size(); ++f) {
          if (esp::StrEqualsIgnoreCase(frames[f].alias, ref.qualifier)) {
            qualifier = std::to_string(depth) + "." + std::to_string(f);
            resolved = true;
            break;
          }
        }
      }
      if (!resolved) qualifier = esp::StrToLower(ref.qualifier);
    }
    return "(col " + qualifier + " " + RenderName(esp::StrToLower(ref.name)) +
           ")";
  }

  const SchemaCatalog& schemas_;
  /// Alias frames per query nesting level; back() is the innermost.
  std::vector<std::vector<Frame>> scopes_;
};

}  // namespace

StatusOr<std::string> FingerprintQuery(const SelectQuery& query,
                                       const SchemaCatalog& schemas) {
  // Validate stream references up front: an unknown stream cannot be
  // fingerprinted meaningfully (and cannot be registered either).
  for (const TableRef& ref : query.from) {
    if (ref.kind == TableRef::Kind::kStream &&
        !schemas.Contains(esp::StrToLower(ref.stream_name))) {
      return Status::NotFound("unknown stream '" + ref.stream_name +
                              "' in query");
    }
  }
  Renderer renderer(schemas);
  return renderer.Query(query);
}

}  // namespace esp::cql
