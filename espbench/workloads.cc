#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <optional>
#include <unordered_map>

#include "common/rng.h"
#include "core/toolkit.h"
#include "cql/query_registry.h"
#include "sim/intel_lab_world.h"
#include "sim/reading.h"
#include "sim/shelf_world.h"

namespace esp::espbench {
namespace {

using stream::Value;

// Paper parameters shared by every workload: the 5 s temporal granule of
// Query 2 (Smooth) and Query 5 (Merge).
const Duration kGranule = Duration::Seconds(5);
constexpr int64_t kGranuleTicks = 5'000'000 / kTickMicros;

// shelf: two seeded copies of the Section 4 world, tiled into 4 shelves.
constexpr int kShelfCopies = 2;
// fleet: a building of four-mote Intel-lab rooms at ~70% delivery, with a
// seeded subset of rooms holding one fail-dirty mote.
constexpr int kFleetRooms = 250;
constexpr int kMotesPerRoom = 4;
constexpr double kDeliveryProb = 0.7;
constexpr double kFailDirtyRoomShare = 0.2;
// The fail-dirty ramp crosses Point's 50 C cut-off within the trace, so
// both the Point filter and Merge's 1-sigma rejection see faulty values.
constexpr double kFailRampPerHour = 7200.0;
constexpr double kFleetTraceSeconds = 60.0;
// serving: the same pipeline at 16 rooms plus standing subscriptions.
constexpr int kServingRooms = 16;
constexpr int kSubscriptions = 2000;
constexpr int kTenants = 8;
constexpr double kDuplicateRatio = 0.5;
constexpr int kMaxRangeSeconds = 8;
// Subscriptions are deployment, not input: like bench/perf_multiquery, they
// come from a fixed seed, so every --seed serves the same query mix (the
// mix sets how much work sharing saves) over a different sensor trace.
constexpr uint64_t kQuerySeed = 17;
// The unshared reference registry costs several times the shared one per
// tick, so only every 8th subscription (250 of 2000) is encoded for and
// checked by it; a run still reaches its minimum tick count. A checked
// subscription's plan may be shared with unchecked ones, so plan dedupe is
// still checked.
constexpr size_t kCheckedSubscriptionStride = 8;
// ingest: 32 seeded shelf copies (64 readers), Smooth only, over TCP.
constexpr int kIngestCopies = 32;
constexpr double kIngestTraceSeconds = 60.0;

std::string Name(const std::string& prefix, int i) {
  return prefix + std::to_string(i);
}

/// Tiles `copies` seeded ShelfWorlds into one trace: copy c's readers
/// become reader_{2c}, reader_{2c+1} and its tags are prefixed "c<c>_".
void TileShelves(Workload& w, int copies, Duration duration, uint64_t seed) {
  Rng seeds(seed);
  for (int c = 0; c < copies; ++c) {
    sim::ShelfWorld::Config config;
    config.duration = duration;
    config.seed = seeds.NextUint64();
    sim::ShelfWorld world(config);
    const std::vector<sim::ShelfWorld::Tick> trace = world.Generate();
    if (w.ticks.size() < trace.size()) w.ticks.resize(trace.size());
    const std::string tag_prefix = "c" + std::to_string(c) + "_";
    for (size_t k = 0; k < trace.size(); ++k) {
      for (const sim::RfidReading& reading : trace[k].readings) {
        const int shelf = reading.reader_id == sim::ShelfWorld::ReaderId(0)
                              ? 0
                              : 1;
        w.ticks[k].push_back(
            {Value::Interned(Name("reader_", 2 * c + shelf)),
             Value::Interned(tag_prefix + reading.tag_id)});
      }
    }
    for (int shelf = 0; shelf < 2; ++shelf) {
      const int r = 2 * c + shelf;
      w.groups.push_back({Name("pg", r), "rfid",
                          core::SpatialGranule{Name("shelf_", r)},
                          {Name("reader_", r)}});
    }
  }
  w.device_type = "rfid";
  w.reading_schema = sim::RfidReadingSchema();
  w.warmup_ticks = kGranuleTicks;
}

/// One IntelLabWorld per room, motes renamed m<room>_<i>.
void BuildRooms(Workload& w, int rooms, uint64_t seed) {
  Rng rng(seed);
  const int64_t trace_ticks =
      static_cast<int64_t>(kFleetTraceSeconds * 1e6) / kTickMicros;
  w.ticks.assign(static_cast<size_t>(trace_ticks), {});
  for (int room = 0; room < rooms; ++room) {
    sim::IntelLabWorld::Config config;
    config.duration = Duration::Seconds(kFleetTraceSeconds);
    config.epoch = Duration::Micros(kTickMicros);
    config.num_motes = kMotesPerRoom;
    config.delivery_prob = kDeliveryProb;
    config.failing_mote = rng.Bernoulli(kFailDirtyRoomShare)
                              ? static_cast<int>(rng.UniformInt(0, 3))
                              : -1;
    config.fail_start =
        Timestamp::Seconds(rng.Uniform(0.0, kFleetTraceSeconds / 2));
    config.fail_ramp_per_hour = kFailRampPerHour;
    config.seed = rng.NextUint64();
    sim::IntelLabWorld world(config);
    const std::vector<sim::IntelLabWorld::Tick> trace = world.Generate();
    std::map<std::string, std::string> renamed;
    core::ProximityGroup group{Name("room_", room), "mote",
                               core::SpatialGranule{Name("room_", room)},
                               {}};
    for (int i = 0; i < kMotesPerRoom; ++i) {
      const std::string id =
          "m" + std::to_string(room) + "_" + std::to_string(i);
      renamed[sim::IntelLabWorld::MoteId(i)] = id;
      group.receptor_ids.push_back(id);
    }
    w.groups.push_back(std::move(group));
    for (size_t k = 0; k < trace.size() && k < w.ticks.size(); ++k) {
      for (const sim::MoteReading& reading : trace[k].readings) {
        w.ticks[k].push_back({Value::Interned(renamed[reading.mote_id]),
                              Value::Double(reading.value)});
      }
    }
  }
  w.device_type = "mote";
  w.reading_schema = sim::TempReadingSchema();
  w.warmup_ticks = kGranuleTicks;
}

// --- Standing subscriptions (the perf_multiquery shapes over mote_input) --

struct QueryParams {
  int shape = 0;
  int range_sec = 4;
  int rows = 16;
  int room = 0;
  int temp_cents = 0;  // Threshold 19.00 C + cents / 100.
};

std::string Temp(int cents) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%d.%02d", 19 + cents / 100, cents % 100);
  return buf;
}

/// Renders `p`; `alt` selects a second surface form (keyword and
/// identifier case, commuted conjuncts) that only the fingerprint
/// canonicalizer, not string equality, can unify with the first.
std::string RenderQuery(const QueryParams& p, bool alt) {
  const std::string range = "[Range By '" + std::to_string(p.range_sec) +
                            " sec']";
  const std::string room = "'" + Name("room_", p.room) + "'";
  const std::string temp = Temp(p.temp_cents);
  switch (p.shape) {
    case 0:
      return alt ? "select SPATIAL_GRANULE as g, count(*) as n from "
                   "MOTE_INPUT " + range + " group by SPATIAL_GRANULE"
                 : "SELECT spatial_granule AS g, count(*) AS n FROM "
                   "mote_input " + range + " GROUP BY spatial_granule";
    case 1:
      return alt ? "select SPATIAL_GRANULE as g, avg(TEMP) as mean from "
                   "MOTE_INPUT " + range + " where TEMP > " + temp +
                       " group by SPATIAL_GRANULE"
                 : "SELECT spatial_granule AS g, avg(temp) AS mean FROM "
                   "mote_input " + range + " WHERE temp > " + temp +
                       " GROUP BY spatial_granule";
    case 2:
      return alt ? "select SPATIAL_GRANULE as g, TEMP as v from MOTE_INPUT "
                   "[Rows " + std::to_string(p.rows) + "] where TEMP > " +
                       temp + " and SPATIAL_GRANULE = " + room
                 : "SELECT spatial_granule AS g, temp AS v FROM mote_input "
                   "[Rows " + std::to_string(p.rows) +
                       "] WHERE spatial_granule = " + room +
                       " AND temp > " + temp;
    default:
      return alt ? "select count(*) as n from MOTE_INPUT " + range +
                       " where SPATIAL_GRANULE = " + room
                 : "SELECT count(*) AS n FROM mote_input " + range +
                       " WHERE spatial_granule = " + room;
  }
}

std::vector<Subscription> DrawSubscriptions(uint64_t seed) {
  Rng rng(seed);
  std::vector<QueryParams> drawn;
  std::vector<Subscription> subs;
  for (int i = 0; i < kSubscriptions; ++i) {
    QueryParams p;
    if (!drawn.empty() && rng.NextDouble() < kDuplicateRatio) {
      p = drawn[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(drawn.size()) - 1))];
    } else {
      p.shape = static_cast<int>(rng.UniformInt(0, 3));
      p.range_sec = static_cast<int>(rng.UniformInt(1, kMaxRangeSeconds));
      p.rows = static_cast<int>(rng.UniformInt(4, 64));
      p.room = static_cast<int>(rng.UniformInt(0, kServingRooms - 1));
      p.temp_cents = static_cast<int>(rng.UniformInt(0, 499));
    }
    drawn.push_back(p);
    subs.push_back({Name("tenant_", i % kTenants), Name("q", i),
                    RenderQuery(p, rng.Bernoulli(0.5))});
  }
  return subs;
}

// --- Encoding -------------------------------------------------------------

struct DecodedTick {
  std::vector<std::pair<std::string, stream::Relation>> per_type;
  uint32_t subscriptions = 0;
  /// Blocks of subscriptions 0, stride, 2 * stride, ...
  std::vector<std::string> sub_blocks;
};

std::string EncodeSubscription(const cql::SubscriptionResult& sub) {
  ByteWriter w;
  w.WriteString(sub.name);
  w.WriteBool(sub.status.ok());
  if (!sub.status.ok()) {
    w.WriteString(sub.status.ToString());
  } else {
    EncodeRelation(w, sub.result != nullptr ? *sub.result
                                            : stream::Relation());
  }
  return std::move(w).Release();
}

StatusOr<DecodedTick> DecodeTickOutput(const std::string& bytes) {
  ByteReader r(bytes);
  DecodedTick tick;
  ESP_ASSIGN_OR_RETURN(const uint32_t types, r.ReadU32());
  for (uint32_t i = 0; i < types; ++i) {
    ESP_ASSIGN_OR_RETURN(std::string type, r.ReadString());
    ESP_ASSIGN_OR_RETURN(stream::Relation relation, DecodeRelation(r));
    tick.per_type.emplace_back(std::move(type), std::move(relation));
  }
  ESP_ASSIGN_OR_RETURN(tick.subscriptions, r.ReadU32());
  for (uint32_t i = 0; i < tick.subscriptions;
       i += kCheckedSubscriptionStride) {
    ESP_ASSIGN_OR_RETURN(std::string block, r.ReadString());
    tick.sub_blocks.push_back(std::move(block));
  }
  if (!r.exhausted()) return Status::InvalidArgument("trailing bytes");
  return tick;
}

// --- References -----------------------------------------------------------

/// Checks the single device type's cleaned rows against `want`.
bool RowsMatch(const std::string& encoded, const std::vector<Row>& want,
               DecodedTick* decoded, std::string* why) {
  StatusOr<DecodedTick> tick = DecodeTickOutput(encoded);
  if (!tick.ok()) {
    *why = "undecodable output: " + tick.status().ToString();
    return false;
  }
  if (tick->per_type.size() != 1) {
    *why = "expected one device type, got " +
           std::to_string(tick->per_type.size());
    return false;
  }
  const bool same = SameRowMultiset(RowsOf(tick->per_type[0].second), want,
                                    kDoubleRelTolerance, why);
  if (decoded != nullptr) *decoded = std::move(*tick);
  return same;
}

/// shelf: Query 2 per reader (tag counts over the 5 s window), then
/// Query 3 across shelves (per tag, the granules with the maximum count,
/// ties kept). Output rows (spatial_granule, tag_id, reads).
class ShelfReference : public Reference {
 public:
  explicit ShelfReference(const Workload& w) {
    for (const core::ProximityGroup& group : w.groups) {
      for (const std::string& reader : group.receptor_ids) {
        granule_of_[reader] = group.granule.id;
      }
    }
  }

  Status Advance(const std::vector<Row>& readings, Timestamp) override {
    window_.push_back(readings);
    if (static_cast<int64_t>(window_.size()) > kGranuleTicks) {
      window_.pop_front();
    }
    std::map<std::pair<std::string, std::string>, int64_t> counts;
    for (const std::vector<Row>& tick : window_) {
      for (const Row& row : tick) {
        const auto it = granule_of_.find(row[0].string_value());
        if (it == granule_of_.end()) {
          return Status::Internal("unknown reader " + row[0].string_value());
        }
        ++counts[{row[1].string_value(), it->second}];
      }
    }
    std::map<std::string, int64_t> best;
    for (const auto& [key, count] : counts) {
      int64_t& max = best[key.first];
      max = std::max(max, count);
    }
    expected_.clear();
    for (const auto& [key, count] : counts) {
      if (count == best[key.first]) {
        expected_.push_back({Value::String(key.second),
                             Value::String(key.first), Value::Int64(count)});
      }
    }
    return Status::OK();
  }

  bool Matches(const std::string& encoded, std::string* why) override {
    return RowsMatch(encoded, expected_, nullptr, why);
  }

 private:
  std::unordered_map<std::string, std::string> granule_of_;
  std::deque<std::vector<Row>> window_;
  std::vector<Row> expected_;
};

/// fleet: Query 4 (temp < 50) per mote, then the corrected Query 5 per
/// room over the 5 s window: the mean of the readings within one
/// population standard deviation of the window mean. Output rows
/// (spatial_granule, temp). Sums run in window order (ticks, then motes
/// in group order), as the engine's aggregates do.
class FleetReference : public Reference {
 public:
  explicit FleetReference(const Workload& w) {
    for (size_t g = 0; g < w.groups.size(); ++g) {
      granules_.push_back(w.groups[g].granule.id);
      for (size_t m = 0; m < w.groups[g].receptor_ids.size(); ++m) {
        slot_of_[w.groups[g].receptor_ids[m]] = {g, m};
      }
    }
  }

  Status Advance(const std::vector<Row>& readings, Timestamp) override {
    // [room][mote] -> filtered reading this tick.
    std::vector<std::vector<std::optional<double>>> tick(
        granules_.size(), std::vector<std::optional<double>>(kMotesPerRoom));
    for (const Row& row : readings) {
      const auto it = slot_of_.find(row[0].string_value());
      if (it == slot_of_.end()) {
        return Status::Internal("unknown mote " + row[0].string_value());
      }
      const double temp = row[1].double_value();
      if (temp < 50) tick[it->second.first][it->second.second] = temp;
    }
    window_.push_back(std::move(tick));
    if (static_cast<int64_t>(window_.size()) > kGranuleTicks) {
      window_.pop_front();
    }
    expected_.clear();
    for (size_t room = 0; room < granules_.size(); ++room) {
      std::vector<double> values;
      for (const auto& past : window_) {
        for (const std::optional<double>& v : past[room]) {
          if (v.has_value()) values.push_back(*v);
        }
      }
      if (values.empty()) continue;
      double sum = 0.0;
      double mean = 0.0;
      double m2 = 0.0;
      int64_t n = 0;
      for (const double v : values) {
        sum += v;
        ++n;
        const double delta = v - mean;
        mean += delta / static_cast<double>(n);
        m2 += delta * (v - mean);
      }
      const double avg = sum / static_cast<double>(n);
      const double sd = std::sqrt(m2 / static_cast<double>(n));
      const double hi = avg + sd;
      const double lo = avg - sd;
      double kept = 0.0;
      int64_t k = 0;
      for (const double v : values) {
        if (v <= hi && v >= lo) {
          kept += v;
          ++k;
        }
      }
      if (k > 0) {
        expected_.push_back({Value::String(granules_[room]),
                             Value::Double(kept / static_cast<double>(k))});
      }
    }
    return Status::OK();
  }

  bool Matches(const std::string& encoded, std::string* why) override {
    return RowsMatch(encoded, expected_, nullptr, why);
  }

  const std::vector<Row>& expected() const { return expected_; }

 private:
  std::vector<std::string> granules_;
  std::unordered_map<std::string, std::pair<size_t, size_t>> slot_of_;
  std::deque<std::vector<std::vector<std::optional<double>>>> window_;
  std::vector<Row> expected_;
};

/// serving: the fleet reference for the cleaned stream, and a second
/// registry in unshared mode (no plan or window sharing) fed the same
/// cleaned stream, compared subscription by subscription on every
/// kCheckedSubscriptionStride-th subscription.
class ServingReference : public Reference {
 public:
  static StatusOr<std::unique_ptr<ServingReference>> Create(
      const Workload& w, const stream::SchemaRef& stream_schema) {
    auto ref = std::unique_ptr<ServingReference>(new ServingReference(w));
    ESP_RETURN_IF_ERROR(
        ref->registry_.AddStream(kServingStream, stream_schema));
    for (size_t i = 0; i < w.subscriptions.size();
         i += kCheckedSubscriptionStride) {
      const Subscription& sub = w.subscriptions[i];
      ESP_RETURN_IF_ERROR(ref->registry_.Register(sub.tenant, sub.name,
                                                  sub.text));
    }
    return ref;
  }

  Status Advance(const std::vector<Row>& readings, Timestamp now) override {
    now_ = now;
    fed_ = false;
    return fleet_.Advance(readings, now);
  }

  bool Matches(const std::string& encoded, std::string* why) override {
    DecodedTick tick;
    if (!RowsMatch(encoded, fleet_.expected(), &tick, why)) return false;
    if (!fed_) {
      core::TickResult cleaned;
      cleaned.per_type = std::move(tick.per_type);
      StatusOr<std::vector<cql::SubscriptionResult>> results =
          FeedAndTick(registry_, cleaned, kServingStream, now_);
      if (!results.ok()) {
        *why = "unshared registry: " + results.status().ToString();
        return false;
      }
      blocks_.clear();
      for (const cql::SubscriptionResult& sub : *results) {
        blocks_.push_back(EncodeSubscription(sub));
      }
      fed_ = true;
    }
    if (tick.subscriptions != subscriptions_ ||
        tick.sub_blocks.size() != blocks_.size()) {
      *why = "got " + std::to_string(tick.subscriptions) +
             " subscription results, want " + std::to_string(subscriptions_);
      return false;
    }
    for (size_t i = 0; i < blocks_.size(); ++i) {
      if (tick.sub_blocks[i] != blocks_[i]) {
        *why = "subscription " +
               std::to_string(i * kCheckedSubscriptionStride) +
               " differs from the unshared registry";
        return false;
      }
    }
    return true;
  }

 private:
  explicit ServingReference(const Workload& w)
      : fleet_(w),
        registry_(Unshared()),
        subscriptions_(w.subscriptions.size()) {}

  static cql::QueryRegistry::Options Unshared() {
    cql::QueryRegistry::Options options;
    options.share_plans = false;
    options.share_windows = false;
    return options;
  }

  FleetReference fleet_;
  cql::QueryRegistry registry_;
  size_t subscriptions_;
  Timestamp now_;
  bool fed_ = false;
  std::vector<std::string> blocks_;
};

/// ingest: the same trace run in-process through a plain EspProcessor,
/// compared bitwise through stream::WriteTuple encodings. Its tick times
/// are the single-threaded baseline for the networked run.
class InProcessReference : public Reference {
 public:
  static StatusOr<std::unique_ptr<InProcessReference>> Create(
      const Workload& w) {
    auto ref = std::unique_ptr<InProcessReference>(new InProcessReference(w));
    ESP_RETURN_IF_ERROR(Configure(w, nullptr, &ref->engine_));
    ESP_RETURN_IF_ERROR(ref->engine_.Start());
    return ref;
  }

  Status Advance(const std::vector<Row>& readings, Timestamp now) override {
    std::vector<stream::Tuple> tuples;
    tuples.reserve(readings.size());
    for (const Row& row : readings) {
      tuples.emplace_back(workload_.reading_schema, row, now);
    }
    const int64_t start = NowNs();
    for (stream::Tuple& tuple : tuples) {
      ESP_RETURN_IF_ERROR(
          engine_.Push(workload_.device_type, std::move(tuple)));
    }
    ESP_ASSIGN_OR_RETURN(core::TickResult result, engine_.Tick(now));
    const int64_t end = NowNs();
    if (++ticks_ > workload_.warmup_ticks) latencies_.push_back(end - start);
    expected_ = EncodeTickOutput(result, {});
    return Status::OK();
  }

  bool Matches(const std::string& encoded, std::string* why) override {
    if (encoded == expected_) return true;
    *why = "networked output differs bitwise from the in-process run";
    return false;
  }

  std::string Summary() const override {
    if (latencies_.empty()) return "";
    std::vector<int64_t> sorted = latencies_;
    std::sort(sorted.begin(), sorted.end());
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "in-process single-threaded baseline: tick_p50_us=%.3f",
                  static_cast<double>(sorted[sorted.size() / 2]) / 1e3);
    return buf;
  }

 private:
  explicit InProcessReference(const Workload& w) : workload_(w) {}

  const Workload& workload_;
  core::EspProcessor engine_;
  int64_t ticks_ = 0;
  std::vector<int64_t> latencies_;
  std::string expected_;
};

}  // namespace

std::vector<stream::Tuple> Workload::StageTick(int64_t i) const {
  const std::vector<Row>& rows = TickRows(i);
  const Timestamp now = TickTime(i);
  std::vector<stream::Tuple> tuples;
  tuples.reserve(rows.size());
  for (const Row& row : rows) tuples.emplace_back(reading_schema, row, now);
  return tuples;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"shelf", "fleet", "serving",
                                                 "ingest"};
  return names;
}

StatusOr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "shelf") {
    TileShelves(w, kShelfCopies, sim::ShelfWorld::Config{}.duration, seed);
  } else if (name == "fleet") {
    BuildRooms(w, kFleetRooms, seed);
  } else if (name == "serving") {
    BuildRooms(w, kServingRooms, seed);
    w.subscriptions = DrawSubscriptions(kQuerySeed);
    w.warmup_ticks = kMaxRangeSeconds * 1'000'000 / kTickMicros;
  } else if (name == "ingest") {
    TileShelves(w, kIngestCopies, Duration::Seconds(kIngestTraceSeconds),
                seed);
    w.over_network = true;
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  return w;
}

core::DeviceTypePipeline MakePipeline(const Workload& w, Tracer* tracer) {
  core::DeviceTypePipeline pipeline;
  pipeline.device_type = w.device_type;
  pipeline.reading_schema = w.reading_schema;
  if (w.device_type == "rfid") {
    pipeline.receptor_id_column = "reader_id";
    pipeline.smooth =
        Traced(core::SmoothPresenceCount(core::TemporalGranule(kGranule),
                                         "tag_id"),
               tracer);
    if (!w.over_network) {
      pipeline.arbitrate =
          Traced(core::ArbitrateMaxCount("tag_id", "reads"), tracer);
    }
  } else {
    pipeline.receptor_id_column = "mote_id";
    pipeline.point.push_back(Traced(core::PointFilter("temp < 50"), tracer));
    pipeline.merge = Traced(core::MergeOutlierRejectingAverage(
                                core::TemporalGranule(kGranule), "temp"),
                            tracer);
  }
  return pipeline;
}

Status Configure(const Workload& w, Tracer* tracer,
                 core::EspProcessor* engine) {
  for (const core::ProximityGroup& group : w.groups) {
    ESP_RETURN_IF_ERROR(engine->AddProximityGroup(group));
  }
  return engine->AddPipeline(MakePipeline(w, tracer));
}

StatusOr<std::unique_ptr<Reference>> MakeReference(const Workload& w) {
  if (w.name == "shelf") {
    return std::unique_ptr<Reference>(std::make_unique<ShelfReference>(w));
  }
  if (w.name == "fleet") {
    return std::unique_ptr<Reference>(std::make_unique<FleetReference>(w));
  }
  if (w.name == "ingest") {
    ESP_ASSIGN_OR_RETURN(std::unique_ptr<InProcessReference> ref,
                         InProcessReference::Create(w));
    return std::unique_ptr<Reference>(std::move(ref));
  }
  // serving: the unshared registry needs the cleaned stream's schema.
  core::EspProcessor engine;
  ESP_RETURN_IF_ERROR(Configure(w, nullptr, &engine));
  ESP_RETURN_IF_ERROR(engine.Start());
  ESP_ASSIGN_OR_RETURN(stream::SchemaRef schema,
                       engine.TypeOutputSchema(w.device_type));
  ESP_ASSIGN_OR_RETURN(std::unique_ptr<ServingReference> ref,
                       ServingReference::Create(w, schema));
  return std::unique_ptr<Reference>(std::move(ref));
}

std::string EncodeTickOutput(
    const core::TickResult& result,
    const std::vector<cql::SubscriptionResult>& subs) {
  ByteWriter w;
  w.WriteU32(static_cast<uint32_t>(result.per_type.size()));
  for (const auto& [type, relation] : result.per_type) {
    w.WriteString(type);
    EncodeRelation(w, relation);
  }
  w.WriteU32(static_cast<uint32_t>(subs.size()));
  for (size_t i = 0; i < subs.size(); i += kCheckedSubscriptionStride) {
    w.WriteString(EncodeSubscription(subs[i]));
  }
  return std::move(w).Release();
}

StatusOr<std::vector<cql::SubscriptionResult>> FeedAndTick(
    cql::QueryRegistry& registry, const core::TickResult& result,
    const std::string& stream_name, Timestamp now) {
  for (const auto& [type, relation] : result.per_type) {
    std::vector<const stream::Tuple*> ordered;
    ordered.reserve(relation.size());
    for (const stream::Tuple& tuple : relation.tuples()) {
      ordered.push_back(&tuple);
    }
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const stream::Tuple* a, const stream::Tuple* b) {
                       return a->timestamp() < b->timestamp();
                     });
    for (const stream::Tuple* tuple : ordered) {
      ESP_RETURN_IF_ERROR(registry.Push(stream_name, *tuple));
    }
  }
  return registry.Tick(now);
}

}  // namespace esp::espbench
