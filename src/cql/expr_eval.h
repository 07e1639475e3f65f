#ifndef ESP_CQL_EXPR_EVAL_H_
#define ESP_CQL_EXPR_EVAL_H_

// Internal expression-evaluation machinery shared between the relational
// evaluator (evaluator.cc) and the incremental grouped-aggregate engine
// (incremental_exec.cc). Include only from cql implementation files and
// white-box tests; everything here may change without notice.

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "cql/ast.h"
#include "cql/decorrelate.h"
#include "cql/evaluator.h"
#include "cql/scalar_function.h"
#include "stream/aggregate.h"
#include "stream/column.h"
#include "stream/ops.h"
#include "stream/simd_kernels.h"
#include "stream/tuple.h"

namespace esp::cql::internal {

/// Per-execution pool of aggregator instances keyed by aggregate-call AST
/// node: resettable aggregators are reused across groups instead of
/// heap-allocated per group. Owned by one ExecuteQuery invocation.
using AggScratchMap =
    std::unordered_map<const void*, std::unique_ptr<stream::Aggregator>>;

/// The FROM clause of one query evaluation: per-frame alias/schema plus each
/// frame's column offset into the flattened joined row.
struct FromContext {
  struct Frame {
    std::string alias;
    stream::SchemaRef schema;
    size_t offset = 0;
  };
  std::vector<Frame> frames;
  size_t total_columns = 0;
};

using Row = std::vector<stream::Value>;

struct DecorrelationScratch;

/// Everything an expression needs to evaluate: the current row (or the
/// representative row of the current group), the group's rows when in
/// grouped evaluation, and the enclosing query's context for correlated
/// references.
struct EvalContext {
  const Catalog* catalog = nullptr;
  Timestamp now;
  const FromContext* from = nullptr;
  const Row* row = nullptr;
  const std::vector<const Row*>* group_rows = nullptr;  // Grouped mode only.
  /// Pre-finalized aggregate results, indexed by kAggSlot slots. Set only by
  /// the incremental engine's emit path.
  const std::vector<stream::Value>* agg_values = nullptr;
  /// Per-standing-query prepared-plan cache threaded through subquery
  /// executions; null for one-shot ExecuteQuery calls.
  QueryExecCache* cache = nullptr;
  /// Aggregator reuse pool for the current grouped evaluation (may be null).
  AggScratchMap* agg_scratch = nullptr;
  /// Partitions of this query's decorrelated subqueries; null when
  /// subqueries must run nested (no plan cache, or ExecOptions says so).
  DecorrelationScratch* decorrelation = nullptr;
  const EvalContext* outer = nullptr;
};

struct BoundExpr {
  enum class Kind {
    kConst,      // Folded constant.
    kSlot,       // Column bound to an absolute index into the joined row.
    kFallback,   // Interpretive escape hatch: delegates to EvalExpr. For a
                 // quantified comparison, children[0] is the compiled lhs.
    kNot,
    kNegate,
    kArith,      // bin_op in {Add, Subtract, Multiply, Divide, Modulo}.
    kCompare,    // bin_op in the comparison range.
    kLogical,    // bin_op in {And, Or}, three-valued with short-circuit.
    kScalarFn,   // Registry function; never folded (no purity contract).
    kAggregate,  // Aggregate call; children[0] is the compiled argument.
    kAggSlot,    // Pre-finalized aggregate read from EvalContext::agg_values.
    kIsNull,
    kBetween,    // children = {value, low, high}.
    kCase,       // children = {cond, result}... [+ else when has_else].
    kInList,     // children = {lhs, item...}; IN over a literal/expr list.
  };

  Kind kind = Kind::kFallback;
  stream::Value constant;                      // kConst.
  size_t slot = 0;                             // kSlot / kAggSlot.
  BinaryOp bin_op = BinaryOp::kAnd;            // kArith/kCompare/kLogical.
  bool negated = false;                        // kIsNull/kBetween/kInList.
  bool has_else = false;                       // kCase.
  const ScalarFunction* fn = nullptr;          // kScalarFn.
  const FunctionCallExpr* agg_call = nullptr;  // kAggregate.
  const Expr* fallback = nullptr;              // kFallback.
  std::vector<BoundExpr> children;
};

/// One admitted subquery's one-shot result for the current outer execution,
/// hash-partitioned on the correlation key (decorrelate.h). The key index and
/// the partitions persist across executions, generation-stamped like the
/// group slots, so the steady state allocates nothing.
struct SubqueryPartitions {
  struct Partition {
    std::vector<stream::Value> values;  // The output column, when single.
    size_t rows = 0;
    uint64_t gen = 0;  // Build that last filled this partition.
  };
  const SelectQuery* subquery = nullptr;  // The original (nested) subquery.
  const SubqueryRewrite* rewrite = nullptr;
  BoundExpr outer_key;  // rewrite->outer_key bound to the outer row.
  uint64_t execution = 0;  // Outer execution the partitions belong to.
  bool ready = false;      // False: this execution runs the subquery nested.
  uint64_t gen = 0;
  std::unordered_map<stream::Value, size_t, stream::ValueHash> index;
  std::vector<Partition> partitions;
};

/// Decorrelation state of one query plan: `execution` advances once per
/// execution of the plan, which invalidates every subquery's partitions.
struct DecorrelationScratch {
  uint64_t execution = 0;
  std::vector<SubqueryPartitions> subqueries;
};

/// Binds `expr` against the innermost FROM layout. Anything that cannot be
/// bound losslessly compiles to a fallback node.
BoundExpr CompileExpr(const Expr& expr, const FromContext& from);
BoundExpr MakeFallback(const Expr& expr);

/// Evaluates a compiled tree / an AST node under `ec`.
StatusOr<stream::Value> EvalBound(const BoundExpr& bound,
                                  const EvalContext& ec);
StatusOr<stream::Value> EvalExpr(const Expr& expr, const EvalContext& ec);

/// SQL truthiness for predicate positions: NULL decides as false.
StatusOr<bool> ToDecision(const stream::Value& value, const char* where);

/// Records every slot read a compiled tree can make. `opaque` is set when
/// the tree contains a fallback node, whose column reads the compiler
/// cannot see.
void CollectSlotReads(const BoundExpr& bound, std::vector<size_t>& slots,
                      bool& opaque);

bool QueryUsesAggregation(const SelectQuery& query);

/// Applies DISTINCT / ORDER BY / LIMIT to the projected output.
StatusOr<stream::Relation> FinalizeOutput(const SelectQuery& query,
                                          stream::Relation output);

/// One FROM entry materialized for execution: a half-open index range
/// [lo, hi) over `rel` (the catalog's relation for sliceable stream windows,
/// or `owned` for derived tables and disordered histories).
struct FromInput {
  stream::Relation owned;
  const stream::Relation* rel = nullptr;
  size_t lo = 0, hi = 0;
  bool movable = false;  // True when `owned` backs [lo, hi).
  /// Columnar mirror of `rel` (same row indexing), when the catalog has one
  /// registered and the history is sliced in place. Null otherwise.
  const stream::ColumnarWindow* columns = nullptr;
};

/// Columnar fast-path plan for the single-stream shapes the admission rules
/// in columnar_exec.cc can prove bitwise-identical: batch WHERE evaluation
/// over typed columns, and (for aggregation queries) a one-pass grouped
/// accumulator that never materializes rows. Built once per PreparedQuery by
/// EnsureColumnarPlan; execution falls back to the row path on anything the
/// plan cannot handle at runtime (demoted columns, evaluation errors).
struct ColumnarPlan {
  /// Postfix program over a trit stack (see simd_kernels.h) computing the
  /// WHERE verdict for a whole column range at once. Leaves are
  /// column-vs-constant comparisons and IS [NOT] NULL tests; interior ops
  /// are Kleene AND/OR/NOT — total functions, so batch evaluation cannot
  /// change which error (none) the row path would have raised.
  struct BatchOp {
    enum class Kind : uint8_t { kCompare, kIsNull, kAnd, kOr, kNot };
    Kind kind = Kind::kCompare;
    size_t slot = 0;                           // kCompare / kIsNull.
    stream::simd::CmpOp op = stream::simd::CmpOp::kEq;  // kCompare.
    bool rhs_is_int = false;                   // kCompare: constant type.
    int64_t rhs_i = 0;
    double rhs_d = 0.0;
    bool negated = false;                      // kIsNull.
  };

  enum class WhereMode : uint8_t { kNone, kBatch, kPerRow };

  bool aggregated = false;
  WhereMode where_mode = WhereMode::kNone;
  std::vector<BatchOp> where_program;  // Valid when where_mode == kBatch.

  // Aggregation mode (grouped or scalar-aggregate):
  std::vector<size_t> key_slots;  // GROUP BY keys (plain columns only).
  struct AggSpec {
    enum class Kind : uint8_t { kCount, kSum, kAvg, kMin, kMax };
    Kind kind = Kind::kCount;
    bool has_arg = false;  // false: '*' (a non-null marker per row).
    BoundExpr arg;         // Pure row expression.
    bool arg_is_slot = false;
    size_t arg_slot = 0;
  };
  std::vector<AggSpec> specs;
  std::vector<BoundExpr> items;       // Aggregates lowered to kAggSlot.
  std::optional<BoundExpr> having;    // Likewise.
  bool needs_row = false;  // Any stage requires a materialized scratch row.

  /// Legacy aggregator state, replicated field for field (see
  /// stream/aggregate.cc): the fold order and type bookkeeping decide the
  /// output bits, so the accumulator mirrors them exactly.
  struct AggAccum {
    double sum = 0.0;
    int64_t nonnull = 0;
    bool saw_value = false;
    bool all_integers = true;
    stream::Value best;  // min/max winner so far.
    void Reset() {
      sum = 0.0;
      nonnull = 0;
      saw_value = false;
      all_integers = true;
      best = stream::Value::Null();
    }
  };

  struct GroupState {
    std::vector<stream::Value> key;
    std::vector<AggAccum> accums;
    size_t first_row = 0;  // Live column index of the representative row.
    uint64_t gen = 0;
  };

  /// Reusable execution-time buffers (one columnar execution at a time per
  /// plan, same single-thread contract as ExecScratch).
  struct Scratch {
    std::vector<stream::simd::Trit> mask;
    std::vector<std::vector<stream::simd::Trit>> stack;
    Row scratch_row;
    Row key_scratch;
    Row repr;
    std::vector<stream::Value> agg_values;
    std::vector<GroupState> groups;
    std::unordered_map<std::vector<stream::Value>, size_t,
                       stream::ValueVectorHash, stream::ValueVectorEq>
        group_index;
    std::vector<size_t> touched;
    uint64_t gen = 0;
  };
  Scratch scratch;
};

/// One query's execution plan, compiled once and reused every tick: the
/// inferred output schema plus every clause bound against the FROM layout.
struct PreparedQuery {
  stream::SchemaRef output_schema;
  FromContext from;  // The layout the plan was compiled against.
  std::optional<BoundExpr> where;
  std::vector<BoundExpr> items;
  std::vector<BoundExpr> group_keys;
  std::optional<BoundExpr> having;
  std::vector<char> move_item;  // Non-aggregate projection move plan.

  /// Columnar fast-path plan, built lazily on the first columnar-eligible
  /// execution (columnar_exec.h). `columnar_checked` gates the one-time
  /// admission pass; nullptr once checked means the shape is inadmissible
  /// and the row path runs unconditionally.
  std::unique_ptr<ColumnarPlan> columnar;
  bool columnar_checked = false;

  /// Reusable execution-time containers. A standing query evaluates from one
  /// thread at a time and a query never appears as its own (transitive)
  /// subquery, so one scratch per plan is never used re-entrantly; nested
  /// subquery executions hit their own plans' scratches. Heap-allocated so
  /// references into it survive the plan being moved into the cache.
  struct GroupSlot {
    std::vector<const Row*> rows;
    uint64_t gen = 0;  // Execution generation that last touched this slot.
  };
  struct ExecScratch {
    std::vector<FromInput> inputs;
    FromContext from;
    std::vector<Row> rows;
    std::vector<Row> filtered;
    /// Group-by state persists across executions: `group_index` maps key ->
    /// slot and is never cleared (sensor vocabularies are tiny and
    /// recurring), slots stale-checked against `gen`. `touched` records the
    /// slots hit by the current execution in first-seen order, which is the
    /// emit order.
    std::vector<GroupSlot> groups;
    std::unordered_map<std::vector<stream::Value>, size_t,
                       stream::ValueVectorHash, stream::ValueVectorEq>
        group_index;
    std::vector<size_t> touched;
    Row key_scratch;
    uint64_t gen = 0;
    AggScratchMap agg_scratch;
    DecorrelationScratch decorrelation;
  };
  ExecScratch& EnsureScratch() {
    if (scratch == nullptr) scratch = std::make_unique<ExecScratch>();
    return *scratch;
  }
  std::unique_ptr<ExecScratch> scratch;
};

/// True when `from` presents the identical layout `prep` was compiled for
/// (same aliases, schema instances, offsets). Standing queries evaluate the
/// same streams every tick, so this holds; a mismatch bypasses the cache.
bool LayoutMatches(const PreparedQuery& prep, const FromContext& from);

/// Admission verdict for one expression subquery, planned on its first
/// evaluation: the rewrite, or why it runs nested. `outer_frames` and
/// `inner_schema` record the layout it was planned against; executions that
/// present another layout run nested.
struct SubqueryPlan {
  StatusOr<SubqueryRewrite> rewrite;
  std::vector<AnalysisScope::Frame> outer_frames;
  stream::SchemaRef inner_schema;
};

/// Per-call execution options, for tests and benchmarks that compare paths.
struct ExecOptions {
  /// Run admitted equi-correlated subqueries once per outer execution
  /// (decorrelate.h). False runs every subquery nested.
  bool decorrelate = true;
};

/// ExecuteQuery with explicit options.
StatusOr<stream::Relation> ExecuteQuery(const SelectQuery& query,
                                        const Catalog& catalog, Timestamp now,
                                        QueryExecCache* cache,
                                        const ExecOptions& options);

}  // namespace esp::cql::internal

namespace esp::cql {

/// \brief Per-standing-query cache of prepared plans, keyed by AST node.
///
/// A ContinuousQuery owns one and passes it to ExecuteQuery every tick;
/// correlated subqueries (e.g. the paper's Query 3 HAVING ... >= ALL(...))
/// then skip re-analysis and re-compilation on every group of every tick.
/// Keys are AST node addresses, valid because the query owns its AST; the
/// cache must not outlive it. Not thread-safe: a standing query evaluates
/// from one thread at a time.
///
/// It also owns each expression subquery's decorrelation plan. A rewritten
/// subquery AST lives as long as the cache, so its own prepared plan can be
/// keyed here like any other.
class QueryExecCache {
 public:
  internal::PreparedQuery* Find(const SelectQuery* query) {
    auto it = prepared_.find(query);
    return it == prepared_.end() ? nullptr : it->second.get();
  }
  internal::PreparedQuery* Insert(const SelectQuery* query,
                                  internal::PreparedQuery prep) {
    auto& slot = prepared_[query];
    slot = std::make_unique<internal::PreparedQuery>(std::move(prep));
    return slot.get();
  }

  internal::SubqueryPlan* FindSubqueryPlan(const SelectQuery* subquery) {
    auto it = subquery_plans_.find(subquery);
    return it == subquery_plans_.end() ? nullptr : it->second.get();
  }
  internal::SubqueryPlan* InsertSubqueryPlan(const SelectQuery* subquery,
                                             internal::SubqueryPlan plan) {
    auto& slot = subquery_plans_[subquery];
    slot = std::make_unique<internal::SubqueryPlan>(std::move(plan));
    return slot.get();
  }

  SubqueryPathStats& subquery_paths() { return subquery_paths_; }

 private:
  std::unordered_map<const SelectQuery*,
                     std::unique_ptr<internal::PreparedQuery>>
      prepared_;
  std::unordered_map<const SelectQuery*,
                     std::unique_ptr<internal::SubqueryPlan>>
      subquery_plans_;
  SubqueryPathStats subquery_paths_;
};

}  // namespace esp::cql

#endif  // ESP_CQL_EXPR_EVAL_H_
