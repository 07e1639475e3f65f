#ifndef ESP_CQL_DECORRELATE_H_
#define ESP_CQL_DECORRELATE_H_

#include <memory>

#include "common/status.h"
#include "cql/analyzer.h"
#include "cql/ast.h"
#include "stream/value.h"

namespace esp::cql {

/// \brief The one-shot form of an equi-correlated subquery.
///
/// A subquery whose only outer reference is one top-level WHERE conjunct
/// `outer.col = inner.col` re-runs once per outer row or group when executed
/// nested. `rewritten` is the same subquery with that conjunct removed and
/// `inner.col` prepended to its SELECT list (and to its GROUP BY when it is
/// grouped). It has no outer reference left, so a single run serves a whole
/// outer execution: its result rows whose column 0 equals a key are exactly
/// the nested run's rows for that key, in the same order.
struct SubqueryRewrite {
  std::unique_ptr<SelectQuery> rewritten;
  /// The correlated side of the conjunct, a node of the original subquery's
  /// AST; it resolves in the immediately enclosing query's FROM.
  const ColumnRefExpr* outer_key = nullptr;
  /// Declared type shared by both key columns (never double or dynamic).
  stream::DataType key_type = stream::DataType::kNull;
  /// Output columns of the original subquery (the rewrite has one more).
  size_t value_columns = 0;
};

/// \brief Admission analysis for decorrelating `subquery`, an expression
/// subquery (ALL/ANY, IN, EXISTS or scalar) whose enclosing query's FROM
/// frames are `outer`.
///
/// Admits only shapes whose rewrite is provably identical to nested
/// execution, given that the evaluator falls back to nested execution
/// whenever the one-shot run fails:
/// - FROM is a single stream reference, and there is no nested subquery;
/// - exactly one outer reference, as one side of a top-level WHERE conjunct
///   `outer.col = inner.col` between plain columns;
/// - GROUP BY is present, or the subquery does not aggregate (a scalar
///   aggregate returns one row even for a key with no rows);
/// - no DISTINCT, ORDER BY or LIMIT;
/// - both key columns have the same declared type, and it is not double,
///   so hashing agrees with `Value::Equals`.
///
/// Returns the rewrite, or kFailedPrecondition whose message says why the
/// subquery must run nested.
StatusOr<SubqueryRewrite> PlanDecorrelation(const SelectQuery& subquery,
                                            const AnalysisScope& outer,
                                            const SchemaCatalog& catalog);

}  // namespace esp::cql

#endif  // ESP_CQL_DECORRELATE_H_
