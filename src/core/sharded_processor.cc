#include "core/sharded_processor.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/string_util.h"
#include "stream/serialize.h"

namespace esp::core {

using stream::Relation;
using stream::SchemaRef;
using stream::Tuple;

namespace {

// Composite routing key; the map's transparent case-insensitive hash makes
// lower-casing unnecessary, and the short concatenation stays within SSO on
// the Push hot path.
std::string RouteKey(const std::string& device_type,
                     const std::string& receptor_id) {
  std::string key;
  key.reserve(device_type.size() + 1 + receptor_id.size());
  key += device_type;
  key.push_back('\0');
  key += receptor_id;
  return key;
}

std::string ShardSectionName(size_t shard) {
  return "shard_" + std::to_string(shard);
}

}  // namespace

ShardedEspProcessor::ShardedEspProcessor(Options options)
    : options_(options) {}

Status ShardedEspProcessor::AddProximityGroup(ProximityGroup group) {
  if (core_.started()) return Status::Internal("processor already started");
  return staged_granules_.AddGroup(std::move(group));
}

Status ShardedEspProcessor::Start() {
  if (core_.started()) return Status::Internal("processor already started");
  if (options_.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be at least 1");
  }
  const size_t num_shards = options_.num_shards;

  if (options_.pool != nullptr) {
    pool_ = options_.pool;
  } else {
    owned_pool_ = std::make_unique<ThreadPool>(num_shards);
    pool_ = owned_pool_.get();
  }

  shards_.clear();
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<EspProcessor>());
    ESP_RETURN_IF_ERROR(shards_[s]->SetHealthPolicy(core_.policy()));
    shards_[s]->SetExportGroupPartials(export_group_partials_);
  }

  // Partition each type's proximity groups into contiguous blocks in
  // registration order: with G groups over N shards, the first G % N shards
  // take ceil(G/N) groups, the rest floor(G/N). Contiguity is what makes
  // the shard-order merge reproduce the single processor's group-ordered
  // Union (see class comment).
  hosting_shards_.assign(core_.num_types(), {});
  for (size_t t = 0; t < core_.num_types(); ++t) {
    const std::string& device_type = core_.config(t).device_type;
    const auto groups = staged_granules_.GroupsOfType(device_type);
    if (groups.empty()) {
      return Status::InvalidArgument("no proximity groups for device type '" +
                                     device_type + "'");
    }
    const size_t g_count = groups.size();
    const size_t base = g_count / num_shards;
    const size_t extra = g_count % num_shards;
    size_t next = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      const size_t take = base + (s < extra ? 1 : 0);
      if (take == 0) continue;
      for (size_t i = 0; i < take; ++i, ++next) {
        const ProximityGroup* group = groups[next];
        ESP_RETURN_IF_ERROR(shards_[s]->AddProximityGroup(*group));
        for (const std::string& receptor_id : group->receptor_ids) {
          receptor_shard_[RouteKey(device_type, receptor_id)] = s;
        }
      }
      hosting_shards_[t].push_back(s);
      // The shard runs everything through Merge; Arbitrate (cross-group)
      // and Virtualize (cross-type) stay in this wrapper.
      ESP_RETURN_IF_ERROR(shards_[s]->AddPipeline(core_.LocalPipeline(t)));
    }
  }

  for (size_t s = 0; s < num_shards; ++s) {
    ESP_RETURN_IF_ERROR(shards_[s]->Start());
  }
  for (size_t t = 0; t < core_.num_types(); ++t) {
    ESP_ASSIGN_OR_RETURN(const SchemaRef group_out,
                         shards_[hosting_shards_[t].front()]->TypeOutputSchema(
                             core_.config(t).device_type));
    ESP_RETURN_IF_ERROR(core_.BindArbitrate(t, group_out));
  }
  return core_.BindVirtualize();
}

Status ShardedEspProcessor::Push(const std::string& device_type, Tuple raw) {
  if (!core_.started()) return Status::Internal("processor not started");
  // The same validation as EspProcessor::Push, so a reading that is wrong
  // in several ways gets the same verdict from either engine.
  ESP_ASSIGN_OR_RETURN(const EngineCore::Reading reading,
                       core_.ValidateReading(device_type, raw));
  const std::string& receptor = reading.receptor.string_value();
  const auto it = receptor_shard_.find(RouteKey(device_type, receptor));
  if (it == receptor_shard_.end()) {
    return EngineCore::UnknownReceptor(device_type, receptor);
  }
  // The shard re-runs the cheap validations (the schema check hits the
  // pointer fast path) and applies the watermark contract against its own
  // clock, which ticks in lockstep with ours.
  return shards_[it->second]->Push(device_type, std::move(raw));
}

void ShardedEspProcessor::SetExportGroupPartials(bool enabled) {
  export_group_partials_ = enabled;
  for (std::unique_ptr<EspProcessor>& shard : shards_) {
    shard->SetExportGroupPartials(enabled);
  }
}

StatusOr<TickResult> ShardedEspProcessor::Tick(Timestamp now) {
  if (!core_.started()) return Status::Internal("processor not started");
  ESP_RETURN_IF_ERROR(core_.AdvanceClock(now));

  // Fan the shard cascades out on the pool. Each slot is written by exactly
  // one worker; errors are surfaced in shard order for determinism.
  std::vector<std::optional<StatusOr<TickResult>>> shard_results(
      shards_.size());
  pool_->ParallelFor(shards_.size(), [&](size_t s) {
    shard_results[s] = shards_[s]->Tick(now);
  });
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!shard_results[s]->ok()) return shard_results[s]->status();
  }

  TickResult result;
  if (export_group_partials_) {
    for (size_t t = 0; t < core_.num_types(); ++t) {
      for (const size_t s : hosting_shards_[t]) {
        for (GroupPartial& partial :
             shard_results[s]->value().group_partials) {
          if (StrEqualsIgnoreCase(partial.device_type,
                                  core_.config(t).device_type)) {
            result.group_partials.push_back(std::move(partial));
          }
        }
      }
    }
  }
  for (size_t t = 0; t < core_.num_types(); ++t) {
    // Concatenate the shards' per-type outputs in shard order — block
    // contiguity makes this the single processor's group-ordered Union.
    const std::string& device_type = core_.config(t).device_type;
    Relation merged(core_.group_output_schema(t));
    for (const size_t s : hosting_shards_[t]) {
      for (auto& [name, relation] : shard_results[s]->value().per_type) {
        if (!StrEqualsIgnoreCase(name, device_type)) continue;
        auto& tuples = relation.mutable_tuples();
        merged.mutable_tuples().insert(
            merged.mutable_tuples().end(),
            std::make_move_iterator(tuples.begin()),
            std::make_move_iterator(tuples.end()));
        break;
      }
    }
    ESP_RETURN_IF_ERROR(core_.RunTypeTail(t, std::move(merged), now, result));
  }
  ESP_RETURN_IF_ERROR(core_.FinishTick(now, result));
  return result;
}

PipelineHealth ShardedEspProcessor::Health() const {
  std::vector<PipelineHealth> shard_health;
  shard_health.reserve(shards_.size());
  for (const std::unique_ptr<EspProcessor>& shard : shards_) {
    shard_health.push_back(shard->Health());
  }
  // One label-sorted error list: the shards' labels plus the wrapper's
  // Arbitrate / Virtualize labels — matching the single processor's.
  PipelineHealth health = core_.Health(shard_health);

  // Receptors in the single processor's order: types in registration order,
  // receptors in group-block order — i.e. each type's hosting shards in
  // ascending order, each shard's receptors of that type in its local
  // (block-contiguous) order.
  for (size_t t = 0; t < core_.num_types(); ++t) {
    for (const size_t s : hosting_shards_[t]) {
      for (const ReceptorHealth& r : shard_health[s].receptors) {
        if (StrEqualsIgnoreCase(r.device_type, core_.config(t).device_type)) {
          health.AddReceptor(r);
        }
      }
    }
  }
  return health;
}

size_t ShardedEspProcessor::BufferedTuples() const {
  size_t total = core_.BufferedTuples();
  for (const std::unique_ptr<EspProcessor>& shard : shards_) {
    total += shard->BufferedTuples();
  }
  return total;
}

ByteWriter ShardedEspProcessor::ConfigFingerprint() const {
  ByteWriter config;
  config.WriteU32(static_cast<uint32_t>(options_.num_shards));
  config.WriteU32(static_cast<uint32_t>(core_.num_types()));
  for (size_t t = 0; t < core_.num_types(); ++t) {
    const DeviceTypePipeline& pipeline = core_.config(t);
    config.WriteString(pipeline.device_type);
    stream::WriteSchema(config, *pipeline.reading_schema);
    const auto groups = staged_granules_.GroupsOfType(pipeline.device_type);
    config.WriteU32(static_cast<uint32_t>(groups.size()));
    for (const ProximityGroup* group : groups) {
      config.WriteString(group->id);
      config.WriteU32(static_cast<uint32_t>(group->receptor_ids.size()));
      for (const std::string& receptor_id : group->receptor_ids) {
        config.WriteString(receptor_id);
      }
    }
    config.WriteU32(static_cast<uint32_t>(pipeline.point.size()));
    config.WriteBool(pipeline.smooth != nullptr);
    config.WriteBool(pipeline.merge != nullptr);
    config.WriteBool(pipeline.arbitrate != nullptr);
    config.WriteString(pipeline.virtualize_input);
  }
  core_.WritePolicyFingerprint(config);
  return config;
}

Status ShardedEspProcessor::Checkpoint(CheckpointWriter& out) const {
  if (!core_.started()) return Status::Internal("processor not started");

  out.AddSection("config", ConfigFingerprint());
  core_.CheckpointClock(out);

  // Every shard's full snapshot (its own config fingerprint, clock,
  // receptors, stages, errors) nests as one opaque section.
  for (size_t s = 0; s < shards_.size(); ++s) {
    CheckpointWriter shard_out;
    ESP_RETURN_IF_ERROR(shards_[s]->Checkpoint(shard_out));
    ByteWriter nested;
    nested.WriteString(shard_out.Serialize());
    out.AddSection(ShardSectionName(s), std::move(nested));
  }

  // The wrapper-owned stages: per-type Arbitrate, then Virtualize.
  ESP_RETURN_IF_ERROR(core_.CheckpointStages(out, nullptr));
  core_.CheckpointErrorsAndQueries(out);
  return Status::OK();
}

Status ShardedEspProcessor::Restore(const CheckpointReader& in) {
  if (!core_.started()) return Status::Internal("processor not started");

  {
    ESP_ASSIGN_OR_RETURN(const std::string_view snap_config,
                         in.Section("config"));
    const ByteWriter own = ConfigFingerprint();
    if (std::string_view(own.data()) != snap_config) {
      return Status::InvalidArgument(
          "snapshot does not match the deployed configuration (shard count, "
          "device types, receptors, groups, stages, or health policy "
          "differ)");
    }
  }
  ESP_RETURN_IF_ERROR(core_.RestoreClock(in));

  for (size_t s = 0; s < shards_.size(); ++s) {
    ESP_ASSIGN_OR_RETURN(const std::string_view payload,
                         in.Section(ShardSectionName(s)));
    ByteReader r(payload);
    ESP_ASSIGN_OR_RETURN(const std::string nested, r.ReadString());
    if (!r.exhausted()) {
      return Status::ParseError(ShardSectionName(s) +
                                " section has trailing bytes");
    }
    ESP_ASSIGN_OR_RETURN(CheckpointReader shard_in,
                         CheckpointReader::Parse(nested));
    ESP_RETURN_IF_ERROR(shards_[s]->Restore(shard_in));
  }

  ESP_RETURN_IF_ERROR(core_.RestoreStages(in, nullptr));
  return core_.RestoreErrorsAndQueries(in);
}

}  // namespace esp::core
