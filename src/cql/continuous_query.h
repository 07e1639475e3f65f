#ifndef ESP_CQL_CONTINUOUS_QUERY_H_
#define ESP_CQL_CONTINUOUS_QUERY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/binio.h"
#include "common/status.h"
#include "common/time.h"
#include "cql/analyzer.h"
#include "cql/ast.h"
#include "cql/evaluator.h"
#include "stream/column.h"
#include "stream/tuple.h"
#include "stream/window.h"

namespace esp::cql {

class IncrementalGroupedQuery;  // incremental_exec.h.
class QueryExecCache;           // expr_eval.h.

/// \brief Aggregated retention requirement for one input stream: the union
/// of every window clause that references it anywhere in a query (or, for
/// shared storage, across every query subscribed to the stream).
///
/// Retention satisfying a demand is *coarsest-common*: keeping more history
/// than any single window needs never changes results, because the
/// evaluator applies each reference's own window clause at evaluation time
/// (CQL snapshot semantics, cql/evaluator.h). That is the fact that makes
/// buffer sharing across queries exact rather than approximate.
struct WindowDemand {
  Duration max_range;  // Largest RANGE window + slide (NOW counts as zero).
  int64_t max_rows = 0;       // Largest ROWS window.
  bool unbounded = false;     // Any unbounded reference disables eviction.

  /// Widens this demand to also cover `spec`.
  void Absorb(const stream::WindowSpec& spec);
  /// Widens this demand to also cover everything `other` covers.
  void Absorb(const WindowDemand& other);
  /// True when retention satisfying this demand also satisfies `other`.
  bool Covers(const WindowDemand& other) const;

  bool operator==(const WindowDemand&) const = default;
};

/// \brief Retained history of one input stream plus its columnar mirror —
/// the storage a standing query evaluates over.
///
/// A ContinuousQuery owns one per referenced stream by default. The
/// shared-plan registry (cql/query_registry.h) instead owns one per
/// (stream, window family) and resolves every subscribed plan onto the same
/// instance, so a stream buffered once serves thousands of queries. In that
/// mode the owner pushes and evicts; the plans only read.
struct StreamWindowState {
  std::string name;  // Lowercased stream name.
  stream::SchemaRef schema;
  stream::Relation history;  // Retained, time-ordered; schema == `schema`.
  uint64_t base_seq = 0;     // All-time index of history[0] (evictions).
  WindowDemand demand;       // Retention requirement (union over readers).
  bool has_inserted = false;
  Timestamp last_insert;
  /// Columnar mirror of `history`, kept row-for-row in sync by
  /// SyncColumns() (incremental append/evict; full rebuild only after
  /// restore or a toggle flip). The evaluator and the incremental engine
  /// read it for the columnar fast paths.
  stream::ColumnarWindow columns;
  uint64_t columns_base = 0;  // All-time index of columns[0].
  bool columns_synced = false;

  /// Appends one tuple. Timestamps must be non-decreasing; the schema must
  /// equal `schema`.
  Status Push(stream::Tuple tuple);

  /// Drops tuples that can appear in no window of `demand` at any t' >=
  /// now. Callers evict only after every reader has evaluated at `now`.
  void Evict(Timestamp now);

  /// Brings the columnar mirror row-for-row in sync with `history` (no-op
  /// when already synced, O(delta) in steady state). While the columnar
  /// toggle is off the mirror is left cold instead.
  void SyncColumns();

  /// Serializes the mutable payload (clocks + history; the name is written
  /// by whoever owns the surrounding container, the schema and demand are
  /// configuration).
  void SaveState(ByteWriter& w) const;

  /// Restores a payload saved by SaveState. Resets base_seq and marks the
  /// mirror cold; the next SyncColumns rebuilds it.
  Status LoadState(ByteReader& r);
};

/// \brief Every stream referenced by `query` (including inside subqueries),
/// paired with the union of the window demands of its references, sorted by
/// lowercased stream name. The registry uses this for admission control and
/// shared-buffer demand bookkeeping without re-walking the AST itself.
std::vector<std::pair<std::string, WindowDemand>> CollectStreamDemands(
    const SelectQuery& query);

/// \brief A standing CQL query over one or more input streams.
///
/// This is the unit an ESP stage deploys: parse once, then per tick push the
/// newly-arrived tuples and Evaluate(now) to get the result relation at that
/// instant (CQL snapshot semantics). By default the query manages history
/// retention itself: it keeps exactly enough buffered input to cover the
/// largest window that references each stream and evicts the rest.
///
/// Alternatively a query can be created over *shared* window storage (the
/// StreamResolver overload of CreateFromAst): stream histories then belong
/// to an external owner — the multi-tenant registry — which pushes tuples
/// once for every subscribed plan and evicts after all of them evaluate.
class ContinuousQuery {
 public:
  /// Resolves one referenced stream to window storage. `demand` is this
  /// query's own retention requirement for the stream; the resolver widens
  /// the shared demand accordingly and returns storage that outlives the
  /// query. The returned state's schema must match the analysis schema.
  using StreamResolver = std::function<StatusOr<StreamWindowState*>(
      const std::string& name, const WindowDemand& demand)>;

  /// Parses and analyzes `query_text`. Every stream referenced by the query
  /// (including inside subqueries) must have a schema in `input_schemas`.
  static StatusOr<std::unique_ptr<ContinuousQuery>> Create(
      const std::string& query_text, const SchemaCatalog& input_schemas);

  /// Like Create but takes an already-parsed AST.
  static StatusOr<std::unique_ptr<ContinuousQuery>> CreateFromAst(
      std::unique_ptr<SelectQuery> query, const SchemaCatalog& input_schemas);

  /// Shared-storage variant: every referenced stream is resolved through
  /// `resolver` instead of buffered privately. Push() is then disabled
  /// (kFailedPrecondition) — the storage owner pushes — and Evaluate never
  /// evicts; the owner evicts once all readers of a buffer have evaluated.
  static StatusOr<std::unique_ptr<ContinuousQuery>> CreateFromAst(
      std::unique_ptr<SelectQuery> query, const SchemaCatalog& input_schemas,
      const StreamResolver& resolver);

  ~ContinuousQuery();  // Out-of-line: members are forward-declared here.

  /// Appends one tuple to the named input stream. Tuples must arrive in
  /// non-decreasing timestamp order per stream. Fails with
  /// kFailedPrecondition on a query over shared window storage.
  Status Push(const std::string& stream_name, stream::Tuple tuple);

  /// Evaluates the query at time `now` and returns its result relation
  /// (every output tuple stamped with `now`). Evaluation times must be
  /// non-decreasing. Eviction happens before evaluation, so re-evaluating at
  /// the same instant is allowed.
  StatusOr<stream::Relation> Evaluate(Timestamp now);

  const stream::SchemaRef& output_schema() const { return output_schema_; }
  const SelectQuery& query() const { return *query_; }

  /// True when this query's windows live in external shared storage.
  bool shares_windows() const { return shared_; }

  /// Total tuples currently buffered across all input streams (observability
  /// and tests). For a shared-storage query this counts the shared buffers,
  /// which other queries may be counting too.
  size_t buffered() const;

  /// How this query's expression subqueries have executed so far: nested
  /// runs vs one-shot decorrelated runs, and the first reason a subquery
  /// ran nested (cql/decorrelate.h).
  SubqueryPathStats subquery_paths() const;

  /// Serializes the mutable runtime state — every stream's retained history
  /// plus the insertion/evaluation clocks. The query text and schemas are
  /// configuration and are not serialized. A shared-storage query writes
  /// only its clocks (zero streams): the histories belong to the registry,
  /// which checkpoints each buffer exactly once.
  void SaveState(ByteWriter& w) const;

  /// Restores state saved by SaveState into a query created from the same
  /// text and input schemas. Fails when the serialized streams do not match
  /// this query's stream set.
  Status LoadState(ByteReader& r);

 private:
  /// One referenced stream: either privately owned storage or a borrowed
  /// view into the registry's shared buffer. `state` always points at the
  /// live storage.
  struct Slot {
    std::unique_ptr<StreamWindowState> owned;  // Null in shared mode.
    StreamWindowState* state = nullptr;
  };

  ContinuousQuery() = default;

  static StatusOr<std::unique_ptr<ContinuousQuery>> Build(
      std::unique_ptr<SelectQuery> query, const SchemaCatalog& input_schemas,
      const StreamResolver* resolver);

  std::unique_ptr<SelectQuery> query_;
  stream::SchemaRef output_schema_;
  std::vector<Slot> streams_;
  bool shared_ = false;
  Timestamp last_eval_;
  bool has_evaluated_ = false;

  /// Prepared-plan cache reused across ticks (keyed by this query's AST).
  std::unique_ptr<QueryExecCache> exec_cache_;
  /// Lazily built stream-view catalog, reused every tick (streams_ never
  /// resizes after construction, so the views stay valid).
  std::unique_ptr<Catalog> catalog_;
  /// Incremental engine for the provable grouped-aggregate shape; null when
  /// the query does not qualify or after a runtime fallback.
  std::unique_ptr<IncrementalGroupedQuery> engine_;
  size_t engine_stream_ = 0;  // Index into streams_ the engine consumes.
};

}  // namespace esp::cql

#endif  // ESP_CQL_CONTINUOUS_QUERY_H_
