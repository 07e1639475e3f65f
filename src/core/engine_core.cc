#include "core/engine_core.h"

#include "common/string_util.h"
#include "stream/arena.h"

namespace esp::core {

using stream::Relation;
using stream::SchemaRef;
using stream::Tuple;
using stream::Value;

Status EngineCore::AddPipeline(DeviceTypePipeline pipeline) {
  if (started_) return Status::Internal("processor already started");
  if (pipeline.reading_schema == nullptr) {
    return Status::InvalidArgument("pipeline for '" + pipeline.device_type +
                                   "' has no reading schema");
  }
  if (!pipeline.reading_schema->Contains(pipeline.receptor_id_column)) {
    return Status::InvalidArgument(
        "receptor id column '" + pipeline.receptor_id_column +
        "' not in reading schema for '" + pipeline.device_type + "'");
  }
  if (FindType(pipeline.device_type).ok()) {
    return Status::AlreadyExists("pipeline for '" + pipeline.device_type +
                                 "' already registered");
  }
  if (pipeline.virtualize_input.empty()) {
    pipeline.virtualize_input = pipeline.device_type + "_input";
  }
  types_.push_back(Type{std::move(pipeline), nullptr, nullptr, nullptr});
  return Status::OK();
}

Status EngineCore::SetHealthPolicy(HealthPolicy policy) {
  if (started_) return Status::Internal("processor already started");
  if (policy.liveness_enabled() &&
      policy.staleness_threshold <= policy.lateness_horizon) {
    return Status::InvalidArgument(
        "staleness threshold must exceed the lateness horizon (admitted-late "
        "readings make live receptors look up to one horizon stale)");
  }
  policy_ = policy;
  return Status::OK();
}

StatusOr<size_t> EngineCore::FindType(const std::string& device_type) const {
  for (size_t i = 0; i < types_.size(); ++i) {
    if (StrEqualsIgnoreCase(types_[i].config.device_type, device_type)) {
      return i;
    }
  }
  return Status::NotFound("no pipeline for device type '" + device_type +
                          "'");
}

DeviceTypePipeline EngineCore::LocalPipeline(size_t type) const {
  DeviceTypePipeline local = types_[type].config;
  local.arbitrate = nullptr;
  return local;
}

Status EngineCore::BindArbitrate(size_t type, SchemaRef group_output) {
  Type& t = types_[type];
  t.group_output_schema = group_output;
  t.output_schema = std::move(group_output);
  if (t.config.arbitrate != nullptr) {
    ESP_ASSIGN_OR_RETURN(t.arbitrate, t.config.arbitrate());
    cql::SchemaCatalog catalog;
    catalog.AddStream(StageInputName(StageKind::kArbitrate),
                      t.group_output_schema);
    ESP_RETURN_IF_ERROR(t.arbitrate->Bind(catalog));
    t.output_schema = t.arbitrate->output_schema();
  }
  return Status::OK();
}

Status EngineCore::BindVirtualize() {
  if (virtualize_ != nullptr) {
    cql::SchemaCatalog inputs;
    for (const Type& t : types_) {
      inputs.AddStream(t.config.virtualize_input, t.output_schema);
    }
    ESP_RETURN_IF_ERROR(virtualize_->Bind(inputs));
  }
  started_ = true;
  return Status::OK();
}

StatusOr<SchemaRef> EngineCore::TypeReadingSchema(
    const std::string& device_type) const {
  ESP_ASSIGN_OR_RETURN(const size_t type, FindType(device_type));
  return types_[type].config.reading_schema;
}

StatusOr<SchemaRef> EngineCore::TypeOutputSchema(
    const std::string& device_type) const {
  ESP_ASSIGN_OR_RETURN(const size_t type, FindType(device_type));
  if (!started_) return Status::Internal("processor not started");
  return types_[type].output_schema;
}

StatusOr<EngineCore::Reading> EngineCore::ValidateReading(
    const std::string& device_type, const Tuple& raw) const {
  ESP_ASSIGN_OR_RETURN(const size_t type, FindType(device_type));
  const DeviceTypePipeline& config = types_[type].config;
  // Pointer identity short-circuits the field-by-field comparison on the
  // common path where the pusher holds the pipeline's own SchemaRef.
  if (raw.schema() == nullptr ||
      (raw.schema().get() != config.reading_schema.get() &&
       !raw.schema()->Equals(*config.reading_schema))) {
    return Status::TypeError("raw reading schema mismatch for type '" +
                             device_type + "'");
  }
  ESP_ASSIGN_OR_RETURN(Value receptor, raw.Get(config.receptor_id_column));
  if (receptor.type() != stream::DataType::kString) {
    return Status::TypeError("receptor id column must be a string");
  }
  return Reading{type, std::move(receptor)};
}

Status EngineCore::UnknownReceptor(const std::string& device_type,
                                   const std::string& receptor_id) {
  return Status::NotFound("receptor '" + receptor_id + "' of type '" +
                          device_type + "' is in no proximity group");
}

Status EngineCore::AdvanceClock(Timestamp now) {
  if (has_ticked_ && now < last_tick_) {
    return Status::InvalidArgument("tick times must be non-decreasing");
  }
  last_tick_ = now;
  has_ticked_ = true;
  return Status::OK();
}

void EngineCore::RecordStageError(Stage* stage, const std::string& device_type,
                                  const std::string& owner_id,
                                  const Status& status) {
  const std::string label = device_type + "/" +
                            StageKindToString(stage->kind()) + "[" + owner_id +
                            "]";
  StageErrorStat& stat = stage_errors_[label];
  stat.stage = label;
  ++stat.errors;
  stat.last_message = status.ToString();
}

StatusOr<Relation> EngineCore::RunStageGuarded(
    Stage* stage, const std::string& input_name, Relation input, Timestamp now,
    const std::string& device_type, const std::string& owner_id,
    ReceptorHealthTracker* health) {
  stream::TupleArena& arena = stream::TupleArena::Local();
  auto run = [&]() -> StatusOr<Relation> {
    for (const Tuple& tuple : input.tuples()) {
      // Hand the stage an arena-backed copy: stage buffers (query histories,
      // windowed buffers) release evicted rows back to the arena, closing
      // the per-tick allocation loop. `input` stays intact for the degraded
      // pass-through below.
      std::vector<Value> values = arena.Acquire(tuple.num_fields());
      values.insert(values.end(), tuple.values().begin(),
                    tuple.values().end());
      ESP_RETURN_IF_ERROR(stage->Push(
          input_name,
          Tuple(tuple.schema(), std::move(values), tuple.timestamp())));
    }
    return stage->Evaluate(now);
  };
  StatusOr<Relation> out = run();
  if (out.ok()) {
    arena.Recycle(std::move(input));
    return out;
  }
  if (policy_.stage_error_policy == StageErrorPolicy::kFailFast) {
    return out.status();
  }
  RecordStageError(stage, device_type, owner_id, out.status());
  if (health != nullptr) health->RecordError(out.status());
  // Degrade: pass the input through when it already has the stage's output
  // shape; otherwise the stage contributes nothing this tick.
  if (input.schema() != nullptr && stage->output_schema() != nullptr &&
      input.schema()->Equals(*stage->output_schema())) {
    return input;
  }
  return Relation(stage->output_schema());
}

Status EngineCore::RunTypeTail(size_t type, Relation united, Timestamp now,
                               TickResult& result) {
  Type& t = types_[type];
  const std::string& device_type = t.config.device_type;
  Relation type_out;
  if (t.arbitrate != nullptr) {
    ESP_ASSIGN_OR_RETURN(
        type_out,
        RunStageGuarded(t.arbitrate.get(), StageInputName(StageKind::kArbitrate),
                        std::move(united), now, device_type, device_type));
  } else {
    type_out = std::move(united);
  }
  if (virtualize_ != nullptr) {
    for (const Tuple& tuple : type_out.tuples()) {
      const Status pushed = virtualize_->Push(t.config.virtualize_input, tuple);
      if (!pushed.ok()) {
        if (policy_.stage_error_policy == StageErrorPolicy::kFailFast) {
          return pushed;
        }
        RecordStageError(virtualize_.get(), device_type,
                         t.config.virtualize_input, pushed);
        break;  // Skip the rest of this type's feed this tick.
      }
    }
  }
  result.per_type.emplace_back(device_type, std::move(type_out));
  return Status::OK();
}

Status EngineCore::FinishTick(Timestamp now, TickResult& result) {
  if (queries_.active()) {
    std::vector<std::pair<std::string, const Relation*>> inputs;
    inputs.reserve(types_.size());
    for (size_t i = 0; i < types_.size(); ++i) {
      inputs.emplace_back(types_[i].config.virtualize_input,
                          &result.per_type[i].second);
    }
    ESP_ASSIGN_OR_RETURN(result.query_results,
                         queries_.FeedAndTick(inputs, now));
  }
  if (virtualize_ != nullptr) {
    StatusOr<Relation> out = virtualize_->Evaluate(now);
    if (out.ok()) {
      result.virtualized = std::move(out).value();
    } else if (policy_.stage_error_policy == StageErrorPolicy::kFailFast) {
      return out.status();
    } else {
      RecordStageError(virtualize_.get(), "virtualize", "virtualize",
                       out.status());
      result.virtualized = Relation(virtualize_->output_schema());
    }
  }
  return Status::OK();
}

QueryServingLayer::StreamLister EngineCore::QueryStreams() const {
  return [this]() -> StatusOr<
                      std::vector<std::pair<std::string, SchemaRef>>> {
    if (!started_) return Status::Internal("processor not started");
    std::vector<std::pair<std::string, SchemaRef>> streams;
    streams.reserve(types_.size());
    for (const Type& t : types_) {
      streams.emplace_back(t.config.virtualize_input, t.output_schema);
    }
    return streams;
  };
}

Status EngineCore::RegisterQuery(const std::string& tenant,
                                 const std::string& name,
                                 const std::string& query_text) {
  if (!started_) return Status::Internal("processor not started");
  return queries_.Register(QueryStreams(), tenant, name, query_text);
}

PipelineHealth EngineCore::Health(
    const std::vector<PipelineHealth>& parts) const {
  PipelineHealth health;
  health.recovery = recovery_stats_;
  health.queries = queries_.Stats();
  {
    std::lock_guard<std::mutex> lock(ingest_source_mu_);
    health.ingest = ingest_source_ ? ingest_source_() : ingest_stats_;
  }
  // Shard-local labels (receptor/group owners) are disjoint across parts
  // and from the central Arbitrate/Virtualize labels.
  std::map<std::string, StageErrorStat> merged(stage_errors_);
  for (const PipelineHealth& part : parts) {
    for (const StageErrorStat& stat : part.stage_errors) {
      merged[stat.stage] = stat;
    }
  }
  for (const auto& [label, stat] : merged) {
    health.stage_errors.push_back(stat);
    health.total_stage_errors += stat.errors;
  }
  return health;
}

size_t EngineCore::BufferedTuples() const {
  size_t total = queries_.BufferedTuples();
  for (const Type& t : types_) {
    if (t.arbitrate != nullptr) total += t.arbitrate->buffered();
  }
  if (virtualize_ != nullptr) total += virtualize_->buffered();
  return total;
}

void EngineCore::WritePolicyFingerprint(ByteWriter& config) const {
  config.WriteBool(virtualize_ != nullptr);
  config.WriteI64(policy_.staleness_threshold.micros());
  config.WriteI64(policy_.quarantine_timeout.micros());
  config.WriteI64(policy_.revival_backoff.micros());
  config.WriteI64(policy_.max_revival_backoff.micros());
  config.WriteI64(policy_.lateness_horizon.micros());
  config.WriteU8(static_cast<uint8_t>(policy_.stage_error_policy));
}

void EngineCore::CheckpointClock(CheckpointWriter& out) const {
  ByteWriter clock;
  clock.WriteBool(has_ticked_);
  clock.WriteI64(last_tick_.micros());
  out.AddSection("clock", std::move(clock));
}

Status EngineCore::RestoreClock(const CheckpointReader& in) {
  ESP_ASSIGN_OR_RETURN(const std::string_view payload, in.Section("clock"));
  ByteReader r(payload);
  ESP_ASSIGN_OR_RETURN(has_ticked_, r.ReadBool());
  ESP_ASSIGN_OR_RETURN(const int64_t micros, r.ReadI64());
  last_tick_ = Timestamp::Micros(micros);
  return Status::OK();
}

Status EngineCore::CheckpointStages(
    CheckpointWriter& out,
    const std::function<Status(size_t, ByteWriter&)>& local) const {
  ByteWriter stages;
  for (size_t i = 0; i < types_.size(); ++i) {
    if (local) ESP_RETURN_IF_ERROR(local(i, stages));
    if (types_[i].arbitrate != nullptr) {
      ESP_RETURN_IF_ERROR(SaveStageBlob(types_[i].arbitrate.get(), stages));
    }
  }
  if (virtualize_ != nullptr) {
    ESP_RETURN_IF_ERROR(SaveStageBlob(virtualize_.get(), stages));
  }
  out.AddSection("stages", std::move(stages));
  return Status::OK();
}

Status EngineCore::RestoreStages(
    const CheckpointReader& in,
    const std::function<Status(size_t, ByteReader&)>& local) {
  ESP_ASSIGN_OR_RETURN(const std::string_view payload, in.Section("stages"));
  ByteReader r(payload);
  for (size_t i = 0; i < types_.size(); ++i) {
    if (local) ESP_RETURN_IF_ERROR(local(i, r));
    if (types_[i].arbitrate != nullptr) {
      ESP_RETURN_IF_ERROR(LoadStageBlob(types_[i].arbitrate.get(), r));
    }
  }
  if (virtualize_ != nullptr) {
    ESP_RETURN_IF_ERROR(LoadStageBlob(virtualize_.get(), r));
  }
  if (!r.exhausted()) {
    return Status::ParseError("stages section has trailing bytes");
  }
  return Status::OK();
}

void EngineCore::CheckpointErrorsAndQueries(CheckpointWriter& out) const {
  ByteWriter errors;
  errors.WriteU32(static_cast<uint32_t>(stage_errors_.size()));
  for (const auto& [label, stat] : stage_errors_) {
    errors.WriteString(label);
    errors.WriteI64(stat.errors);
    errors.WriteString(stat.last_message);
  }
  out.AddSection("errors", std::move(errors));
  // Absent while no subscriptions exist; never part of the config
  // fingerprint — subscriptions are runtime state, not topology.
  queries_.Checkpoint(out);
}

Status EngineCore::RestoreErrorsAndQueries(const CheckpointReader& in) {
  ESP_ASSIGN_OR_RETURN(const std::string_view payload, in.Section("errors"));
  ByteReader r(payload);
  ESP_ASSIGN_OR_RETURN(const uint32_t count, r.ReadU32());
  stage_errors_.clear();
  for (uint32_t i = 0; i < count; ++i) {
    ESP_ASSIGN_OR_RETURN(std::string label, r.ReadString());
    StageErrorStat stat;
    stat.stage = label;
    ESP_ASSIGN_OR_RETURN(stat.errors, r.ReadI64());
    ESP_ASSIGN_OR_RETURN(stat.last_message, r.ReadString());
    stage_errors_.emplace(std::move(label), std::move(stat));
  }
  if (!r.exhausted()) {
    return Status::ParseError("errors section has trailing bytes");
  }
  return queries_.Restore(in, QueryStreams());
}

}  // namespace esp::core
