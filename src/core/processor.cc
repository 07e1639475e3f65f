#include "core/processor.h"

#include <algorithm>

#include "common/string_util.h"
#include "stream/arena.h"
#include "stream/column.h"
#include "stream/ops.h"
#include "stream/serialize.h"
#include "stream/simd_kernels.h"

namespace esp::core {

using stream::Relation;
using stream::SchemaRef;
using stream::Tuple;
using stream::Value;

std::string EspProcessor::QuarantineGroupId(const std::string& device_type) {
  return "__quarantine_" + device_type;
}

Status EspProcessor::AddProximityGroup(ProximityGroup group) {
  if (core_.started()) return Status::Internal("processor already started");
  return granules_.AddGroup(std::move(group));
}

Status EspProcessor::AddPipeline(DeviceTypePipeline pipeline) {
  ESP_RETURN_IF_ERROR(core_.AddPipeline(std::move(pipeline)));
  types_.emplace_back();
  return Status::OK();
}

StatusOr<SchemaRef> EspProcessor::AugmentSchema(const SchemaRef& schema) {
  if (schema->Contains(kSpatialGranuleColumn)) return schema;
  std::vector<stream::Field> fields = schema->fields();
  fields.push_back({kSpatialGranuleColumn, stream::DataType::kString});
  return stream::MakeSchema(std::move(fields));
}

Status EspProcessor::Start() {
  if (core_.started()) return Status::Internal("processor already started");

  for (size_t i = 0; i < types_.size(); ++i) {
    TypeRuntime& type = types_[i];
    const DeviceTypePipeline& config = core_.config(i);
    const auto groups = granules_.GroupsOfType(config.device_type);
    if (groups.empty()) {
      return Status::InvalidArgument("no proximity groups for device type '" +
                                     config.device_type + "'");
    }

    // Per-receptor chains: Point* -> Smooth.
    SchemaRef receptor_out;
    for (const ProximityGroup* group : groups) {
      for (const std::string& receptor_id : group->receptor_ids) {
        ReceptorChain chain;
        chain.receptor_id = receptor_id;
        chain.granule_id = group->granule.id;
        chain.home_group_id = group->id;
        chain.health = std::make_unique<ReceptorHealthTracker>(
            receptor_id, config.device_type, &core_.policy());
        SchemaRef current = config.reading_schema;
        for (const StageFactory& factory : config.point) {
          ESP_ASSIGN_OR_RETURN(std::unique_ptr<Stage> stage, factory());
          cql::SchemaCatalog catalog;
          catalog.AddStream(StageInputName(StageKind::kPoint), current);
          ESP_RETURN_IF_ERROR(stage->Bind(catalog));
          current = stage->output_schema();
          chain.point.push_back(std::move(stage));
        }
        if (config.smooth != nullptr) {
          ESP_ASSIGN_OR_RETURN(chain.smooth, config.smooth());
          cql::SchemaCatalog catalog;
          catalog.AddStream(StageInputName(StageKind::kSmooth), current);
          ESP_RETURN_IF_ERROR(chain.smooth->Bind(catalog));
          current = chain.smooth->output_schema();
        }
        if (receptor_out == nullptr) {
          receptor_out = current;
        } else if (!receptor_out->Equals(*current)) {
          return Status::Internal(
              "receptor chains of type '" + config.device_type +
              "' produced differing schemas");
        }
        type.receptors.push_back(std::move(chain));
      }
    }

    ESP_ASSIGN_OR_RETURN(type.augmented_schema, AugmentSchema(receptor_out));

    // Per-group Merge.
    SchemaRef group_out = type.augmented_schema;
    for (const ProximityGroup* group : groups) {
      GroupChain chain;
      chain.group_id = group->id;
      if (config.merge != nullptr) {
        ESP_ASSIGN_OR_RETURN(chain.merge, config.merge());
        cql::SchemaCatalog catalog;
        catalog.AddStream(StageInputName(StageKind::kMerge),
                          type.augmented_schema);
        ESP_RETURN_IF_ERROR(chain.merge->Bind(catalog));
        group_out = chain.merge->output_schema();
      }
      type.groups.push_back(std::move(chain));
    }

    // Arbitrate across groups.
    ESP_RETURN_IF_ERROR(core_.BindArbitrate(i, group_out));
  }
  return core_.BindVirtualize();
}

Status EspProcessor::Push(const std::string& device_type, Tuple raw) {
  if (!core_.started()) return Status::Internal("processor not started");
  ESP_ASSIGN_OR_RETURN(const EngineCore::Reading reading,
                       core_.ValidateReading(device_type, raw));
  const std::string& receptor = reading.receptor.string_value();
  for (ReceptorChain& chain : types_[reading.type].receptors) {
    if (!StrEqualsIgnoreCase(chain.receptor_id, receptor)) continue;
    // Validate the (previous tick, now] contract instead of trusting it:
    // anything at or before the previous tick's release watermark can never
    // be delivered in order again and is dropped loudly; later-but-within-
    // horizon readings go to the reorder buffer.
    if (core_.has_ticked()) {
      const Duration horizon = core_.policy().lateness_horizon;
      const Timestamp watermark = core_.last_tick() - horizon;
      if (raw.timestamp() <= watermark) {
        chain.health->RecordDroppedLate(1);
        return Status::OutOfRange(
            "reading for receptor '" + chain.receptor_id + "' at " +
            raw.timestamp().ToString() + " is behind the release watermark " +
            watermark.ToString() + " (lateness horizon " +
            horizon.ToString() + ")");
      }
      if (raw.timestamp() <= core_.last_tick()) {
        chain.health->RecordLateAdmitted(1);
      }
    }
    chain.pending.push_back(std::move(raw));
    return Status::OK();
  }
  return EngineCore::UnknownReceptor(device_type, receptor);
}

Status EspProcessor::EnsureQuarantineGroup(const std::string& device_type) {
  if (quarantine_groups_.contains(device_type)) return Status::OK();
  ProximityGroup parking;
  parking.id = QuarantineGroupId(device_type);
  parking.device_type = device_type;
  parking.granule.id = "__quarantined";
  ESP_RETURN_IF_ERROR(granules_.AddGroup(std::move(parking)));
  quarantine_groups_.insert(device_type);
  return Status::OK();
}

StatusOr<EspProcessor::TickResult> EspProcessor::Tick(Timestamp now) {
  if (!core_.started()) return Status::Internal("processor not started");
  ESP_RETURN_IF_ERROR(core_.AdvanceClock(now));
  // Release watermark: everything at or before it flows into the stages
  // this tick; later readings stay in the reorder buffers so late arrivals
  // within the horizon can still be slotted in ahead of them. With the
  // default zero horizon the watermark is `now` and nothing is delayed.
  const Timestamp watermark = now - core_.policy().lateness_horizon;

  TickResult result;
  for (size_t i = 0; i < types_.size(); ++i) {
    TypeRuntime& type = types_[i];
    const DeviceTypePipeline& config = core_.config(i);
    // --- Per-receptor: Point chain, then Smooth. ---
    // Collected per group id for the Merge step.
    std::vector<Relation> group_streams(type.groups.size(),
                                        Relation(type.augmented_schema));
    for (ReceptorChain& chain : type.receptors) {
      // Release the reorder buffer up to the watermark.
      std::vector<Tuple> released;
      std::vector<Tuple> held;
      for (Tuple& tuple : chain.pending) {
        if (tuple.timestamp() <= watermark) {
          released.push_back(std::move(tuple));
        } else {
          held.push_back(std::move(tuple));
        }
      }
      chain.pending = std::move(held);
      std::sort(released.begin(), released.end(),
                [](const Tuple& a, const Tuple& b) {
                  return a.timestamp() < b.timestamp();
                });

      // Liveness state machine: suspect -> quarantine -> probe/revive.
      std::optional<Timestamp> data_time;
      if (!released.empty()) data_time = released.back().timestamp();
      using Transition = ReceptorHealthTracker::Transition;
      const Transition transition = chain.health->Observe(now, data_time);
      if (transition == Transition::kQuarantine) {
        ESP_RETURN_IF_ERROR(EnsureQuarantineGroup(config.device_type));
        ESP_RETURN_IF_ERROR(granules_.MoveReceptor(
            config.device_type, chain.receptor_id,
            QuarantineGroupId(config.device_type)));
      } else if (transition == Transition::kRevive) {
        ESP_RETURN_IF_ERROR(granules_.MoveReceptor(
            config.device_type, chain.receptor_id, chain.home_group_id));
      }
      if (chain.health->state() == ReceptorState::kQuarantined) {
        // Degraded mode: the receptor is out of its proximity group; its
        // readings (if any trickle in) are discarded until a probe revives
        // it, and Merge below runs over the surviving members only.
        chain.health->RecordDroppedQuarantined(
            static_cast<int64_t>(released.size()));
        continue;
      }
      chain.health->RecordDelivered(static_cast<int64_t>(released.size()));

      Relation current(config.reading_schema);
      for (Tuple& tuple : released) current.Add(std::move(tuple));

      for (std::unique_ptr<Stage>& stage : chain.point) {
        ESP_ASSIGN_OR_RETURN(
            current, core_.RunStageGuarded(
                         stage.get(), StageInputName(StageKind::kPoint),
                         std::move(current), now, config.device_type,
                         chain.receptor_id, chain.health.get()));
      }
      if (chain.smooth != nullptr) {
        ESP_ASSIGN_OR_RETURN(
            current, core_.RunStageGuarded(
                         chain.smooth.get(), StageInputName(StageKind::kSmooth),
                         std::move(current), now, config.device_type,
                         chain.receptor_id, chain.health.get()));
      }

      // Stamp the spatial granule (footnote 2) and route to the receptor's
      // group. The lookup goes through the GranuleMap so dynamic
      // MoveReceptor() remappings take effect between ticks.
      ESP_ASSIGN_OR_RETURN(
          const ProximityGroup* group_of,
          granules_.GroupOf(config.device_type, chain.receptor_id));
      size_t group_index = type.groups.size();
      for (size_t g = 0; g < type.groups.size(); ++g) {
        if (StrEqualsIgnoreCase(type.groups[g].group_id, group_of->id)) {
          group_index = g;
          break;
        }
      }
      if (group_index == type.groups.size()) {
        return Status::Internal("receptor '" + chain.receptor_id +
                                "' mapped to unknown group");
      }
      const bool already_has_granule =
          current.schema() != nullptr &&
          current.schema()->Contains(kSpatialGranuleColumn);
      stream::TupleArena& arena = stream::TupleArena::Local();
      for (Tuple& tuple : current.mutable_tuples()) {
        if (already_has_granule) {
          group_streams[group_index].Add(std::move(tuple));
          continue;
        }
        std::vector<Value> values = arena.Acquire(tuple.num_fields() + 1);
        for (Value& value : tuple.mutable_values()) {
          values.push_back(std::move(value));
        }
        values.push_back(Value::Interned(group_of->granule.id));
        arena.Release(std::move(tuple.mutable_values()));
        group_streams[group_index].Add(Tuple(
            type.augmented_schema, std::move(values), tuple.timestamp()));
      }
    }

    // --- Per-group Merge. ---
    std::vector<Relation> merged;
    merged.reserve(type.groups.size());
    for (size_t g = 0; g < type.groups.size(); ++g) {
      Relation& input = group_streams[g];
      std::stable_sort(input.mutable_tuples().begin(),
                       input.mutable_tuples().end(),
                       [](const Tuple& a, const Tuple& b) {
                         return a.timestamp() < b.timestamp();
                       });
      if (type.groups[g].merge == nullptr) {
        merged.push_back(std::move(input));
        continue;
      }
      ESP_ASSIGN_OR_RETURN(
          Relation out,
          core_.RunStageGuarded(type.groups[g].merge.get(),
                                StageInputName(StageKind::kMerge),
                                std::move(input), now, config.device_type,
                                type.groups[g].group_id));
      merged.push_back(std::move(out));
    }

    // --- Partial-aggregate export (cluster workers). The copies are taken
    // here — after Merge, before Union/Arbitrate — because this is the
    // exact hand-off point where a coordinator stitches workers' groups
    // back into the global registration order. ---
    if (export_group_partials_) {
      for (size_t g = 0; g < type.groups.size(); ++g) {
        result.group_partials.push_back(GroupPartial{
            config.device_type, type.groups[g].group_id, merged[g]});
      }
    }

    // --- Arbitrate across groups, then feed Virtualize. ---
    ESP_ASSIGN_OR_RETURN(Relation united, stream::Union(std::move(merged)));
    ESP_RETURN_IF_ERROR(core_.RunTypeTail(i, std::move(united), now, result));
  }
  ESP_RETURN_IF_ERROR(core_.FinishTick(now, result));
  return result;
}

PipelineHealth EspProcessor::Health() const {
  PipelineHealth health = core_.Health();
  health.columnar.enabled = stream::ColumnarEnabled();
  health.columnar.avx2 = stream::simd::Avx2Available();
  {
    const stream::simd::KernelStats kernels = stream::simd::GetKernelStats();
    health.columnar.vector_batches = kernels.vector_batches;
    health.columnar.scalar_batches = kernels.scalar_batches;
    health.columnar.guard_fallbacks = kernels.guard_fallbacks;
  }
  for (const TypeRuntime& type : types_) {
    for (const ReceptorChain& chain : type.receptors) {
      if (chain.health != nullptr) health.AddReceptor(chain.health->health());
    }
  }
  return health;
}

size_t EspProcessor::BufferedTuples() const {
  size_t total = core_.BufferedTuples();
  for (const TypeRuntime& type : types_) {
    for (const ReceptorChain& chain : type.receptors) {
      total += chain.pending.size();
      for (const std::unique_ptr<Stage>& stage : chain.point) {
        total += stage->buffered();
      }
      if (chain.smooth != nullptr) total += chain.smooth->buffered();
    }
    for (const GroupChain& group : type.groups) {
      if (group.merge != nullptr) total += group.merge->buffered();
    }
  }
  return total;
}

Status EspProcessor::Checkpoint(CheckpointWriter& out) const {
  if (!core_.started()) return Status::Internal("processor not started");

  // --- config: a fingerprint of the deployed topology and policy. Restore
  // refuses a snapshot whose fingerprint differs, since stage state is only
  // meaningful against the exact same configuration.
  ByteWriter config;
  config.WriteU32(static_cast<uint32_t>(types_.size()));
  for (size_t i = 0; i < types_.size(); ++i) {
    const TypeRuntime& type = types_[i];
    const DeviceTypePipeline& pipeline = core_.config(i);
    config.WriteString(pipeline.device_type);
    stream::WriteSchema(config, *pipeline.reading_schema);
    config.WriteU32(static_cast<uint32_t>(type.receptors.size()));
    for (const ReceptorChain& chain : type.receptors) {
      config.WriteString(chain.receptor_id);
      config.WriteU32(static_cast<uint32_t>(chain.point.size()));
      config.WriteBool(chain.smooth != nullptr);
    }
    config.WriteU32(static_cast<uint32_t>(type.groups.size()));
    for (const GroupChain& group : type.groups) {
      config.WriteString(group.group_id);
      config.WriteBool(group.merge != nullptr);
    }
    config.WriteBool(pipeline.arbitrate != nullptr);
    config.WriteString(pipeline.virtualize_input);
  }
  core_.WritePolicyFingerprint(config);
  out.AddSection("config", std::move(config));

  core_.CheckpointClock(out);

  // --- receptors: reorder buffers, liveness state, and the (possibly
  // dynamically remapped or quarantine-parked) group assignment.
  ByteWriter receptors;
  for (size_t i = 0; i < types_.size(); ++i) {
    for (const ReceptorChain& chain : types_[i].receptors) {
      const auto group = granules_.GroupOf(core_.config(i).device_type,
                                           chain.receptor_id);
      ESP_RETURN_IF_ERROR(group.status());
      receptors.WriteString((*group)->id);
      ByteWriter health;
      chain.health->SaveState(health);
      receptors.WriteString(health.data());
      receptors.WriteU32(static_cast<uint32_t>(chain.pending.size()));
      for (const Tuple& tuple : chain.pending) {
        stream::WriteTuple(receptors, tuple);
      }
    }
  }
  out.AddSection("receptors", std::move(receptors));

  // --- stages: every stage's window/model state, in topology order.
  ESP_RETURN_IF_ERROR(core_.CheckpointStages(
      out, [this](size_t i, ByteWriter& stages) -> Status {
        for (const ReceptorChain& chain : types_[i].receptors) {
          for (const std::unique_ptr<Stage>& stage : chain.point) {
            ESP_RETURN_IF_ERROR(SaveStageBlob(stage.get(), stages));
          }
          if (chain.smooth != nullptr) {
            ESP_RETURN_IF_ERROR(SaveStageBlob(chain.smooth.get(), stages));
          }
        }
        for (const GroupChain& group : types_[i].groups) {
          if (group.merge != nullptr) {
            ESP_RETURN_IF_ERROR(SaveStageBlob(group.merge.get(), stages));
          }
        }
        return Status::OK();
      }));

  core_.CheckpointErrorsAndQueries(out);
  return Status::OK();
}

Status EspProcessor::Restore(const CheckpointReader& in) {
  if (!core_.started()) return Status::Internal("processor not started");

  // Validate the configuration fingerprint byte-for-byte: same deployment,
  // same policy, or the stage state below is meaningless.
  {
    CheckpointWriter own;
    ESP_RETURN_IF_ERROR(Checkpoint(own));
    // Cheap trick: our own Checkpoint() just serialized the current
    // fingerprint; compare it against the snapshot's.
    ESP_ASSIGN_OR_RETURN(CheckpointReader own_reader,
                         CheckpointReader::Parse(own.Serialize()));
    ESP_ASSIGN_OR_RETURN(const std::string_view own_config,
                         own_reader.Section("config"));
    ESP_ASSIGN_OR_RETURN(const std::string_view snap_config,
                         in.Section("config"));
    if (own_config != snap_config) {
      return Status::InvalidArgument(
          "snapshot does not match the deployed configuration (device "
          "types, receptors, groups, stages, or health policy differ)");
    }
  }

  ESP_RETURN_IF_ERROR(core_.RestoreClock(in));

  // --- receptors.
  {
    ESP_ASSIGN_OR_RETURN(const std::string_view payload,
                         in.Section("receptors"));
    ByteReader r(payload);
    for (size_t i = 0; i < types_.size(); ++i) {
      const DeviceTypePipeline& config = core_.config(i);
      for (ReceptorChain& chain : types_[i].receptors) {
        ESP_ASSIGN_OR_RETURN(const std::string group_id, r.ReadString());
        ESP_ASSIGN_OR_RETURN(const ProximityGroup* current,
                             granules_.GroupOf(config.device_type,
                                               chain.receptor_id));
        if (!StrEqualsIgnoreCase(current->id, group_id)) {
          if (group_id == QuarantineGroupId(config.device_type)) {
            ESP_RETURN_IF_ERROR(EnsureQuarantineGroup(config.device_type));
          }
          ESP_RETURN_IF_ERROR(granules_.MoveReceptor(
              config.device_type, chain.receptor_id, group_id));
        }
        ESP_ASSIGN_OR_RETURN(const std::string health_blob, r.ReadString());
        ByteReader health_reader(health_blob);
        ESP_RETURN_IF_ERROR(chain.health->LoadState(health_reader));
        if (!health_reader.exhausted()) {
          return Status::ParseError("receptor '" + chain.receptor_id +
                                    "' health state has trailing bytes");
        }
        ESP_ASSIGN_OR_RETURN(const uint32_t pending, r.ReadU32());
        chain.pending.clear();
        chain.pending.reserve(pending);
        for (uint32_t k = 0; k < pending; ++k) {
          ESP_ASSIGN_OR_RETURN(Tuple tuple,
                               stream::ReadTuple(r, config.reading_schema));
          chain.pending.push_back(std::move(tuple));
        }
      }
    }
    if (!r.exhausted()) {
      return Status::ParseError("receptors section has trailing bytes");
    }
  }

  ESP_RETURN_IF_ERROR(core_.RestoreStages(
      in, [this](size_t i, ByteReader& r) -> Status {
        for (ReceptorChain& chain : types_[i].receptors) {
          for (std::unique_ptr<Stage>& stage : chain.point) {
            ESP_RETURN_IF_ERROR(LoadStageBlob(stage.get(), r));
          }
          if (chain.smooth != nullptr) {
            ESP_RETURN_IF_ERROR(LoadStageBlob(chain.smooth.get(), r));
          }
        }
        for (GroupChain& group : types_[i].groups) {
          if (group.merge != nullptr) {
            ESP_RETURN_IF_ERROR(LoadStageBlob(group.merge.get(), r));
          }
        }
        return Status::OK();
      }));

  return core_.RestoreErrorsAndQueries(in);
}

}  // namespace esp::core
