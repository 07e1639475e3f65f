#ifndef ESP_CORE_ENGINE_CORE_H_
#define ESP_CORE_ENGINE_CORE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/binio.h"
#include "common/status.h"
#include "common/time.h"
#include "core/checkpoint.h"
#include "core/engine.h"
#include "core/health.h"
#include "core/query_serving.h"
#include "core/stage.h"
#include "stream/tuple.h"

namespace esp::core {

/// \brief Configuration of one device type's cleaning pipeline — which of
/// the five stages are deployed and how (Figure 4). Stages may be omitted
/// (not all stages need be implemented, Section 3.3); omitted stages become
/// pass-throughs.
struct DeviceTypePipeline {
  /// Device type key, matching the proximity groups' device_type.
  std::string device_type;

  /// Schema of the raw readings pushed for this type.
  stream::SchemaRef reading_schema;

  /// Column of `reading_schema` holding the receptor id, used to route raw
  /// readings to per-receptor stage instances.
  std::string receptor_id_column;

  /// Point stages, applied per receptor in order (tuple-level filters and
  /// transforms). May be empty.
  std::vector<StageFactory> point;

  /// Smooth stage, instantiated per receptor (temporal-granule
  /// aggregation). Optional.
  StageFactory smooth;

  /// Merge stage, instantiated per proximity group over the union of its
  /// members' streams (spatial-granule aggregation). Optional — when
  /// omitted, members' streams are unioned unchanged. Either way ESP has
  /// already stamped each tuple with its spatial_granule attribute
  /// (footnote 2 of the paper).
  StageFactory merge;

  /// Arbitrate stage, one instance across all of this type's proximity
  /// groups (conflict resolution between spatial granules). Optional.
  StageFactory arbitrate;

  /// Stream name under which this type's cleaned output feeds the
  /// Virtualize stage; defaults to "<device_type>_input".
  std::string virtualize_input;
};

/// \brief The part of a pipeline engine that does not depend on how the
/// local stages are executed.
///
/// Point, Smooth and Merge are local to one receptor or one proximity
/// group; only Arbitrate (across a type's groups) and Virtualize (across
/// types) see more than one group. Every engine therefore runs the local
/// stages its own way — EspProcessor in-line, ShardedEspProcessor on
/// thread-pool shards, cluster::ClusterCoordinator on forked workers — and
/// hands each type's group-ordered union to this core, which owns what the
/// three have in common:
///
///  - the type registry and the configuration checks;
///  - raw-reading validation (type, schema, string receptor id), so every
///    engine gives a bad reading the same verdict;
///  - stage-error isolation (fail-fast or degrade) and the labelled
///    "<type>/<Kind>[owner]" error tallies;
///  - the central tail: Arbitrate per type, Virtualize across types, and
///    the standing-query serving layer between them;
///  - the checkpoint sections every engine writes the same way.
///
/// Routing a validated reading to its receptor stays in the engine.
class EngineCore {
 public:
  /// A raw reading that passed ValidateReading.
  struct Reading {
    size_t type = 0;        // Index into the registration order.
    stream::Value receptor;  // The receptor id (a string).
  };

  EngineCore() = default;
  EngineCore(const EngineCore&) = delete;
  EngineCore& operator=(const EngineCore&) = delete;

  // --- Configuration (before the engine starts). ---

  /// Registers one device type (its name is unique, case-insensitively)
  /// and defaults its virtualize_input to "<device_type>_input".
  Status AddPipeline(DeviceTypePipeline pipeline);

  /// Installs the degraded-mode policy; rejects liveness thresholds that
  /// do not exceed the lateness horizon.
  Status SetHealthPolicy(HealthPolicy policy);
  const HealthPolicy& policy() const { return policy_; }

  void SetVirtualize(std::unique_ptr<Stage> stage) {
    virtualize_ = std::move(stage);
  }

  size_t num_types() const { return types_.size(); }
  const DeviceTypePipeline& config(size_t type) const {
    return types_[type].config;
  }

  /// Case-insensitive lookup; kNotFound names the type.
  StatusOr<size_t> FindType(const std::string& device_type) const;

  /// The type's pipeline as a shard or worker runs it: everything through
  /// Merge, with the central Arbitrate stripped.
  DeviceTypePipeline LocalPipeline(size_t type) const;

  // --- Binding the central tail (the engine's Start). ---

  /// Instantiates the type's Arbitrate (if configured) against
  /// `group_output`, the schema of its groups' Merge output. Call once per
  /// type, in registration order.
  Status BindArbitrate(size_t type, stream::SchemaRef group_output);

  /// Binds Virtualize over every type's output and marks the engine
  /// started. Call after BindArbitrate for every type.
  Status BindVirtualize();

  bool started() const { return started_; }

  StatusOr<stream::SchemaRef> TypeReadingSchema(
      const std::string& device_type) const;
  /// Final (post-Arbitrate) schema of one type; valid once started.
  StatusOr<stream::SchemaRef> TypeOutputSchema(
      const std::string& device_type) const;
  /// Schema of one type's per-group Merge output; valid once bound.
  const stream::SchemaRef& group_output_schema(size_t type) const {
    return types_[type].group_output_schema;
  }

  // --- Push. ---

  /// Checks a raw reading's type, schema (pointer identity first, then
  /// field by field) and string receptor id.
  StatusOr<Reading> ValidateReading(const std::string& device_type,
                                    const stream::Tuple& raw) const;

  /// The verdict for a valid reading whose receptor no group holds.
  static Status UnknownReceptor(const std::string& device_type,
                                const std::string& receptor_id);

  // --- The tick clock. ---

  /// Advances the clock to `now`; tick times must be non-decreasing.
  Status AdvanceClock(Timestamp now);
  bool has_ticked() const { return has_ticked_; }
  Timestamp last_tick() const { return last_tick_; }

  // --- Stage-error isolation. ---

  /// Feeds `input` through `stage` and evaluates it at `now`. Each tuple
  /// is handed over as an arena-backed copy, so `input` stays intact for
  /// the degraded pass-through; on success it is recycled. On a stage
  /// error under kFailFast the error propagates. Under kDegrade the error
  /// is tallied against "<device_type>/<Kind>[<owner_id>]" (and against
  /// `health`, when the stage belongs to a receptor), and the input passes
  /// through unchanged when its schema matches the stage's output schema;
  /// otherwise the stage contributes an empty relation.
  StatusOr<stream::Relation> RunStageGuarded(
      Stage* stage, const std::string& input_name, stream::Relation input,
      Timestamp now, const std::string& device_type,
      const std::string& owner_id, ReceptorHealthTracker* health = nullptr);

  /// Tallies keyed by stage label (deterministic order).
  const std::map<std::string, StageErrorStat>& stage_errors() const {
    return stage_errors_;
  }

  // --- The central tail, once per tick. ---

  /// Runs one type's Arbitrate over `united` (its groups' Merge outputs in
  /// group-registration order), feeds the result to Virtualize, and
  /// appends it to `result.per_type`. Call for every type, in
  /// registration order.
  Status RunTypeTail(size_t type, stream::Relation united, Timestamp now,
                     TickResult& result);

  /// Ticks the standing queries over the per-type outputs, then evaluates
  /// Virtualize.
  Status FinishTick(Timestamp now, TickResult& result);

  // --- Standing-query serving over the per-type outputs. ---

  QueryServingLayer& query_serving() { return queries_; }
  Status RegisterQuery(const std::string& tenant, const std::string& name,
                       const std::string& query_text);

  // --- Engine-wide counters. ---

  RecoveryStats& mutable_recovery_stats() { return recovery_stats_; }
  IngestStats& mutable_ingest_stats() { return ingest_stats_; }
  void SetIngestStatsSource(IngestStatsSource source) {
    std::lock_guard<std::mutex> lock(ingest_source_mu_);
    ingest_source_ = std::move(source);
  }

  /// The engine-wide part of Health(): recovery, ingest and serving
  /// counters, plus the stage-error tallies merged with those of `parts`
  /// (the engine's shards), in label order. Receptors are the engine's.
  PipelineHealth Health(const std::vector<PipelineHealth>& parts = {}) const;

  /// Tuples buffered by Arbitrate, Virtualize and the serving layer.
  size_t BufferedTuples() const;

  // --- Checkpoint sections shared by the engines (docs/RECOVERY.md). ---

  /// Appends Virtualize's presence and the health policy to a config
  /// fingerprint.
  void WritePolicyFingerprint(ByteWriter& config) const;

  void CheckpointClock(CheckpointWriter& out) const;
  Status RestoreClock(const CheckpointReader& in);

  /// The "stages" section: per type, the blobs `local` writes, then the
  /// type's Arbitrate; then Virtualize. `local` may be null.
  Status CheckpointStages(
      CheckpointWriter& out,
      const std::function<Status(size_t, ByteWriter&)>& local) const;
  Status RestoreStages(const CheckpointReader& in,
                       const std::function<Status(size_t, ByteReader&)>& local);

  /// The "errors" section, then "queries" (absent without subscriptions).
  void CheckpointErrorsAndQueries(CheckpointWriter& out) const;
  Status RestoreErrorsAndQueries(const CheckpointReader& in);

 private:
  struct Type {
    DeviceTypePipeline config;
    std::unique_ptr<Stage> arbitrate;  // May be null.
    stream::SchemaRef group_output_schema;
    stream::SchemaRef output_schema;
  };

  /// The streams queries may read: each type's virtualize_input name with
  /// its final output schema.
  QueryServingLayer::StreamLister QueryStreams() const;

  void RecordStageError(Stage* stage, const std::string& device_type,
                        const std::string& owner_id, const Status& status);

  std::vector<Type> types_;
  std::unique_ptr<Stage> virtualize_;
  HealthPolicy policy_;
  std::map<std::string, StageErrorStat> stage_errors_;
  QueryServingLayer queries_;
  RecoveryStats recovery_stats_;
  IngestStats ingest_stats_;
  /// Guards ingest_source_: Health() may run concurrently with the ingest
  /// server installing / freezing its stats source.
  mutable std::mutex ingest_source_mu_;
  IngestStatsSource ingest_source_;
  bool started_ = false;
  bool has_ticked_ = false;
  Timestamp last_tick_;
};

}  // namespace esp::core

#endif  // ESP_CORE_ENGINE_CORE_H_
