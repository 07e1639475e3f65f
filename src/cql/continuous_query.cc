#include "cql/continuous_query.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "common/string_util.h"
#include "cql/expr_eval.h"
#include "cql/incremental_exec.h"
#include "cql/parser.h"
#include "stream/arena.h"
#include "stream/serialize.h"

namespace esp::cql {

using stream::Relation;
using stream::Tuple;
using stream::WindowKind;
using stream::WindowSpec;

namespace {

void CollectFromExpr(const Expr& expr,
                     const std::function<void(const SelectQuery&)>& visit);

void CollectFromQuery(const SelectQuery& query,
                      const std::function<void(const SelectQuery&)>& visit) {
  visit(query);
  for (const TableRef& ref : query.from) {
    if (ref.kind == TableRef::Kind::kSubquery) {
      CollectFromQuery(*ref.subquery, visit);
    }
  }
  for (const SelectItem& item : query.items) CollectFromExpr(*item.expr, visit);
  if (query.where != nullptr) CollectFromExpr(*query.where, visit);
  for (const ExprPtr& key : query.group_by) CollectFromExpr(*key, visit);
  if (query.having != nullptr) CollectFromExpr(*query.having, visit);
  for (const OrderByItem& item : query.order_by) {
    CollectFromExpr(*item.expr, visit);
  }
}

void CollectFromExpr(const Expr& expr,
                     const std::function<void(const SelectQuery&)>& visit) {
  switch (expr.kind()) {
    case ExprKind::kLiteral:
    case ExprKind::kColumnRef:
    case ExprKind::kStar:
      break;
    case ExprKind::kUnary:
      CollectFromExpr(*static_cast<const UnaryExpr&>(expr).operand, visit);
      break;
    case ExprKind::kBinary: {
      const auto& binary = static_cast<const BinaryExpr&>(expr);
      CollectFromExpr(*binary.lhs, visit);
      CollectFromExpr(*binary.rhs, visit);
      break;
    }
    case ExprKind::kFunctionCall:
      for (const ExprPtr& arg :
           static_cast<const FunctionCallExpr&>(expr).args) {
        CollectFromExpr(*arg, visit);
      }
      break;
    case ExprKind::kScalarSubquery:
      CollectFromQuery(*static_cast<const ScalarSubqueryExpr&>(expr).query,
                       visit);
      break;
    case ExprKind::kQuantifiedComparison: {
      const auto& quantified =
          static_cast<const QuantifiedComparisonExpr&>(expr);
      CollectFromExpr(*quantified.lhs, visit);
      CollectFromQuery(*quantified.subquery, visit);
      break;
    }
    case ExprKind::kIn: {
      const auto& in = static_cast<const InExpr&>(expr);
      CollectFromExpr(*in.lhs, visit);
      if (in.subquery != nullptr) CollectFromQuery(*in.subquery, visit);
      for (const ExprPtr& item : in.list) CollectFromExpr(*item, visit);
      break;
    }
    case ExprKind::kExists:
      CollectFromQuery(*static_cast<const ExistsExpr&>(expr).subquery, visit);
      break;
    case ExprKind::kIsNull:
      CollectFromExpr(*static_cast<const IsNullExpr&>(expr).operand, visit);
      break;
    case ExprKind::kBetween: {
      const auto& between = static_cast<const BetweenExpr&>(expr);
      CollectFromExpr(*between.value, visit);
      CollectFromExpr(*between.low, visit);
      CollectFromExpr(*between.high, visit);
      break;
    }
    case ExprKind::kCase: {
      const auto& case_expr = static_cast<const CaseExpr&>(expr);
      for (const CaseExpr::WhenClause& when : case_expr.whens) {
        CollectFromExpr(*when.condition, visit);
        CollectFromExpr(*when.result, visit);
      }
      if (case_expr.else_result != nullptr) {
        CollectFromExpr(*case_expr.else_result, visit);
      }
      break;
    }
  }
}

}  // namespace

std::vector<std::pair<std::string, WindowDemand>> CollectStreamDemands(
    const SelectQuery& query) {
  std::unordered_map<std::string, WindowDemand> requirements;
  CollectFromQuery(query, [&](const SelectQuery& q) {
    for (const TableRef& ref : q.from) {
      if (ref.kind == TableRef::Kind::kStream) {
        requirements[esp::StrToLower(ref.stream_name)].Absorb(ref.window);
      }
    }
  });
  std::vector<std::pair<std::string, WindowDemand>> demands(
      requirements.begin(), requirements.end());
  std::sort(demands.begin(), demands.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return demands;
}

void WindowDemand::Absorb(const WindowSpec& spec) {
  switch (spec.kind) {
    case WindowKind::kRange: {
      // A sliding window's effective time lags `now` by up to one slide
      // width, so retention must cover range + slide.
      const Duration needed = spec.range + spec.slide;
      if (needed > max_range) max_range = needed;
      break;
    }
    case WindowKind::kNow:
      break;  // Zero range.
    case WindowKind::kRows:
      if (spec.rows > max_rows) max_rows = spec.rows;
      break;
    case WindowKind::kUnbounded:
      unbounded = true;
      break;
  }
}

void WindowDemand::Absorb(const WindowDemand& other) {
  if (other.max_range > max_range) max_range = other.max_range;
  if (other.max_rows > max_rows) max_rows = other.max_rows;
  unbounded = unbounded || other.unbounded;
}

bool WindowDemand::Covers(const WindowDemand& other) const {
  if (other.unbounded && !unbounded) return false;
  return unbounded ||
         (max_range >= other.max_range && max_rows >= other.max_rows);
}

Status StreamWindowState::Push(Tuple tuple) {
  if (has_inserted && tuple.timestamp() < last_insert) {
    return Status::InvalidArgument(
        "out-of-order tuple on stream '" + name + "': " +
        tuple.timestamp().ToString() + " after " + last_insert.ToString());
  }
  if (tuple.schema() == nullptr || !tuple.schema()->Equals(*schema)) {
    return Status::TypeError("tuple schema mismatch on stream '" + name +
                             "'");
  }
  last_insert = tuple.timestamp();
  has_inserted = true;
  history.Add(std::move(tuple));
  return Status::OK();
}

void StreamWindowState::Evict(Timestamp now) {
  if (demand.unbounded) return;
  // A tuple is dead once it can appear in no window at any t' >= now: for
  // RANGE windows that is ts <= now - max_range; NOW windows (range zero)
  // keep ts == now alive, hence the strict ts < now condition; ROWS
  // windows additionally protect the max_rows most recent tuples *eligible
  // at now* (ts <= now). Anchoring the protected suffix at the last
  // eligible tuple — not the buffer end — matters when the buffer already
  // holds tuples stamped after `now`: those are not in any window at `now`,
  // so they must not push still-visible older tuples past the cut.
  const Timestamp horizon = now - demand.max_range;
  std::vector<Tuple>& tuples = history.mutable_tuples();
  size_t first_alive = 0;
  const size_t eligible_hi = static_cast<size_t>(
      std::upper_bound(tuples.begin(), tuples.end(), now,
                       [](Timestamp lhs, const Tuple& rhs) {
                         return lhs < rhs.timestamp();
                       }) -
      tuples.begin());
  const size_t rows_protected_from =
      eligible_hi > static_cast<size_t>(demand.max_rows)
          ? eligible_hi - static_cast<size_t>(demand.max_rows)
          : 0;
  while (first_alive < tuples.size() &&
         tuples[first_alive].timestamp() <= horizon &&
         tuples[first_alive].timestamp() < now &&
         first_alive < rows_protected_from) {
    ++first_alive;
  }
  if (first_alive > 0) {
    stream::TupleArena& arena = stream::TupleArena::Local();
    for (size_t i = 0; i < first_alive; ++i) {
      arena.Release(std::move(tuples[i].mutable_values()));
    }
    tuples.erase(tuples.begin(),
                 tuples.begin() + static_cast<std::ptrdiff_t>(first_alive));
    base_seq += first_alive;
  }
}

void StreamWindowState::SyncColumns() {
  if (!stream::ColumnarEnabled()) {
    // Leave the mirror cold; a later re-enable rebuilds from scratch.
    if (columns_synced) {
      columns.Clear();
      columns_synced = false;
    }
    return;
  }
  const std::vector<Tuple>& tuples = history.tuples();
  const uint64_t history_end = base_seq + tuples.size();
  const bool incremental =
      columns_synced && columns.schema() == schema &&
      columns_base <= base_seq && columns_base + columns.size() <= history_end;
  if (!incremental) {
    columns.Reset(schema);
    for (const Tuple& tuple : tuples) columns.Append(tuple);
  } else {
    // Evictions pop the front of the mirror, pushes append to its back —
    // the steady-state tick does O(delta) work, not O(window).
    columns.PopFront(static_cast<size_t>(base_seq - columns_base));
    for (size_t i = columns.size(); i < tuples.size(); ++i) {
      columns.Append(tuples[i]);
    }
  }
  columns_base = base_seq;
  columns_synced = true;
}

void StreamWindowState::SaveState(ByteWriter& w) const {
  w.WriteBool(has_inserted);
  w.WriteI64(last_insert.micros());
  w.WriteU64(history.size());
  for (const Tuple& tuple : history.tuples()) stream::WriteTuple(w, tuple);
}

Status StreamWindowState::LoadState(ByteReader& r) {
  ESP_ASSIGN_OR_RETURN(has_inserted, r.ReadBool());
  ESP_ASSIGN_OR_RETURN(const int64_t insert_micros, r.ReadI64());
  last_insert = Timestamp::Micros(insert_micros);
  ESP_ASSIGN_OR_RETURN(const uint64_t history_size, r.ReadU64());
  history.mutable_tuples().clear();
  base_seq = 0;
  columns_synced = false;  // Mirror rebuilds on next sync.
  for (uint64_t t = 0; t < history_size; ++t) {
    ESP_ASSIGN_OR_RETURN(Tuple tuple, stream::ReadTuple(r, schema));
    history.Add(std::move(tuple));
  }
  return Status::OK();
}

ContinuousQuery::~ContinuousQuery() = default;

StatusOr<std::unique_ptr<ContinuousQuery>> ContinuousQuery::Create(
    const std::string& query_text, const SchemaCatalog& input_schemas) {
  ESP_ASSIGN_OR_RETURN(std::unique_ptr<SelectQuery> query,
                       ParseQuery(query_text));
  return CreateFromAst(std::move(query), input_schemas);
}

StatusOr<std::unique_ptr<ContinuousQuery>> ContinuousQuery::CreateFromAst(
    std::unique_ptr<SelectQuery> query, const SchemaCatalog& input_schemas) {
  return Build(std::move(query), input_schemas, nullptr);
}

StatusOr<std::unique_ptr<ContinuousQuery>> ContinuousQuery::CreateFromAst(
    std::unique_ptr<SelectQuery> query, const SchemaCatalog& input_schemas,
    const StreamResolver& resolver) {
  return Build(std::move(query), input_schemas, &resolver);
}

StatusOr<std::unique_ptr<ContinuousQuery>> ContinuousQuery::Build(
    std::unique_ptr<SelectQuery> query, const SchemaCatalog& input_schemas,
    const StreamResolver* resolver) {
  auto cq = std::unique_ptr<ContinuousQuery>(new ContinuousQuery());
  cq->shared_ = resolver != nullptr;

  // Gather every stream reference and union its window requirements.
  for (const auto& [name, demand] : CollectStreamDemands(*query)) {
    ESP_ASSIGN_OR_RETURN(const stream::SchemaRef schema,
                         input_schemas.Find(name));
    Slot slot;
    if (resolver != nullptr) {
      ESP_ASSIGN_OR_RETURN(slot.state, (*resolver)(name, demand));
      if (slot.state == nullptr) {
        return Status::Internal("stream resolver returned no storage for '" +
                                name + "'");
      }
      if (slot.state->schema == nullptr ||
          !slot.state->schema->Equals(*schema)) {
        return Status::Internal("shared window storage for '" + name +
                                "' disagrees with the analysis schema");
      }
    } else {
      slot.owned = std::make_unique<StreamWindowState>();
      slot.owned->name = name;
      slot.owned->schema = schema;
      slot.owned->history = Relation(schema);
      slot.owned->demand = demand;
      slot.state = slot.owned.get();
    }
    cq->streams_.push_back(std::move(slot));
  }

  // Analyze (validates the query and computes the output schema).
  ESP_ASSIGN_OR_RETURN(cq->output_schema_,
                       InferOutputSchema(*query, input_schemas));
  cq->query_ = std::move(query);
  cq->exec_cache_ = std::make_unique<QueryExecCache>();

  // Try the incremental engine for the single-stream grouped shape; the
  // planner proves bitwise equivalence or declines.
  if (cq->query_->from.size() == 1 &&
      cq->query_->from[0].kind == TableRef::Kind::kStream) {
    const std::string target = esp::StrToLower(cq->query_->from[0].stream_name);
    for (size_t i = 0; i < cq->streams_.size(); ++i) {
      if (cq->streams_[i].state->name != target) continue;
      cq->engine_ = IncrementalGroupedQuery::TryPlan(
          *cq->query_, target, cq->streams_[i].state->schema,
          cq->output_schema_);
      cq->engine_stream_ = i;
      break;
    }
  }
  return cq;
}

Status ContinuousQuery::Push(const std::string& stream_name,
                             stream::Tuple tuple) {
  if (shared_) {
    return Status::FailedPrecondition(
        "query evaluates over shared window storage; push tuples to its "
        "registry instead");
  }
  for (Slot& slot : streams_) {
    if (esp::StrEqualsIgnoreCase(slot.state->name, stream_name)) {
      return slot.state->Push(std::move(tuple));
    }
  }
  return Status::NotFound("query does not read stream '" + stream_name + "'");
}

StatusOr<stream::Relation> ContinuousQuery::Evaluate(Timestamp now) {
  if (has_evaluated_ && now < last_eval_) {
    return Status::InvalidArgument("evaluation times must be non-decreasing");
  }
  last_eval_ = now;
  has_evaluated_ = true;

  if (engine_ != nullptr) {
    StreamWindowState& state = *streams_[engine_stream_].state;
    // Mirror maintenance is demand-driven: a query whose WHERE cannot
    // batch-compile consumes rows one at a time regardless, so keeping the
    // mirror warm for it would be pure per-tick overhead.
    const bool want_columns = engine_->WantsColumns();
    if (want_columns) state.SyncColumns();
    std::optional<Relation> result = engine_->Evaluate(
        state.history,
        want_columns && state.columns_synced ? &state.columns : nullptr,
        state.base_seq, now);
    if (result.has_value()) {
      // Retention horizon trails the engine's consumption. Shared buffers
      // are evicted by their owner once every reader has evaluated.
      if (!shared_) {
        for (Slot& slot : streams_) slot.state->Evict(now);
      }
      return std::move(*result);
    }
    // Permanent fallback: the rescan path reproduces any genuine error and
    // handles whatever the planner could not prove.
    engine_.reset();
  }

  if (!shared_) {
    for (Slot& slot : streams_) slot.state->Evict(now);
  }
  for (Slot& slot : streams_) slot.state->SyncColumns();

  // The catalog views the stream histories in place; `streams_` never
  // resizes after construction (and shared storage outlives the query), so
  // build it once and reuse it every tick. The columnar mirrors ride along:
  // the evaluator checks row-for-row sync before trusting them, so a cold
  // mirror (toggle off) is simply ignored.
  if (catalog_ == nullptr) {
    catalog_ = std::make_unique<Catalog>();
    for (const Slot& slot : streams_) {
      catalog_->AddStreamView(slot.state->name, &slot.state->history,
                              &slot.state->columns);
    }
  }
  return ExecuteQuery(*query_, *catalog_, now, exec_cache_.get());
}

SubqueryPathStats ContinuousQuery::subquery_paths() const {
  return exec_cache_->subquery_paths();
}

size_t ContinuousQuery::buffered() const {
  size_t total = 0;
  for (const Slot& slot : streams_) total += slot.state->history.size();
  return total;
}

void ContinuousQuery::SaveState(ByteWriter& w) const {
  w.WriteBool(has_evaluated_);
  w.WriteI64(last_eval_.micros());
  if (shared_) {
    // Histories belong to the registry, which checkpoints each shared
    // buffer exactly once; only this query's clocks are ours to save.
    w.WriteU32(0);
    return;
  }
  w.WriteU32(static_cast<uint32_t>(streams_.size()));
  for (const Slot& slot : streams_) {
    w.WriteString(slot.state->name);
    slot.state->SaveState(w);
  }
}

Status ContinuousQuery::LoadState(ByteReader& r) {
  ESP_ASSIGN_OR_RETURN(has_evaluated_, r.ReadBool());
  ESP_ASSIGN_OR_RETURN(const int64_t eval_micros, r.ReadI64());
  last_eval_ = Timestamp::Micros(eval_micros);
  ESP_ASSIGN_OR_RETURN(const uint32_t stream_count, r.ReadU32());
  const size_t expected = shared_ ? 0 : streams_.size();
  if (stream_count != expected) {
    return Status::ParseError(
        "serialized query state has " + std::to_string(stream_count) +
        " streams, query reads " + std::to_string(expected));
  }
  for (uint32_t i = 0; i < stream_count; ++i) {
    ESP_ASSIGN_OR_RETURN(const std::string name, r.ReadString());
    StreamWindowState* state = nullptr;
    for (Slot& slot : streams_) {
      if (esp::StrEqualsIgnoreCase(slot.state->name, name)) {
        state = slot.state;
        break;
      }
    }
    if (state == nullptr) {
      return Status::ParseError("serialized query state names stream '" +
                                name + "' this query does not read");
    }
    ESP_RETURN_IF_ERROR(state->LoadState(r));
  }
  // The engine's window state is a pure function of the live rows; rebuild
  // it from the restored history on the next evaluation.
  if (engine_ != nullptr) engine_->Reset();
  return Status::OK();
}

}  // namespace esp::cql
