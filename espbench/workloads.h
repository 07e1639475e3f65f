#ifndef ESPBENCH_WORKLOADS_H_
#define ESPBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "compare.h"
#include "core/granule.h"
#include "core/processor.h"
#include "tracing.h"

namespace esp::espbench {

/// Ticks are 200 ms apart in virtual time (the paper's 5 Hz poll).
inline constexpr int64_t kTickMicros = 200'000;

/// Virtual time of global tick `i` (0-based).
inline Timestamp TickTime(int64_t i) {
  return Timestamp::Micros((i + 1) * kTickMicros);
}

/// The cleaned stream the serving workload's subscriptions read: the
/// Intel-lab pipeline's virtualize_input.
inline constexpr const char* kServingStream = "mote_input";

struct Subscription {
  std::string tenant;
  std::string name;
  std::string text;
};

/// One workload: its seeded input trace and the deployment it runs on.
/// The trace is generated before anything is timed; the engine sees only
/// tuples built from it. A trace shorter than the run is replayed, its
/// readings re-stamped with each tick's time.
struct Workload {
  std::string name;
  std::string device_type;
  stream::SchemaRef reading_schema;
  /// Raw readings per generated tick, as reading_schema rows.
  std::vector<std::vector<Row>> ticks;
  std::vector<core::ProximityGroup> groups;
  /// Standing subscriptions served by the benchmark-owned registry over
  /// the cleaned output stream (serving only).
  std::vector<Subscription> subscriptions;
  /// Readings go over loopback TCP through net::IngestServer (ingest).
  bool over_network = false;
  /// Ticks before the widest window first fills; not timed.
  int64_t warmup_ticks = 0;

  const std::vector<Row>& TickRows(int64_t i) const {
    return ticks[static_cast<size_t>(i) % ticks.size()];
  }
  /// Readings of global tick `i`, stamped with its time.
  std::vector<stream::Tuple> StageTick(int64_t i) const;
};

/// Names accepted by MakeWorkload.
const std::vector<std::string>& WorkloadNames();

StatusOr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

/// The cleaning pipeline of `workload`, every stage wrapped for tracing
/// when `tracer` is non-null.
core::DeviceTypePipeline MakePipeline(const Workload& workload,
                                      Tracer* tracer);

/// Adds the workload's groups and pipeline to `engine` (not yet started).
Status Configure(const Workload& workload, Tracer* tracer,
                 core::EspProcessor* engine);

/// Independent evaluation of a workload's cleaning semantics, run in the
/// checker process. Advance() computes the reference for one tick from
/// that tick's raw readings; Matches() checks one encoded tick output
/// (EncodeTickOutput) against it.
class Reference {
 public:
  virtual ~Reference() = default;
  virtual Status Advance(const std::vector<Row>& readings, Timestamp now) = 0;
  virtual bool Matches(const std::string& encoded, std::string* why) = 0;
  /// One line for the benchmark's report (may be empty).
  virtual std::string Summary() const { return ""; }
};

StatusOr<std::unique_ptr<Reference>> MakeReference(const Workload& workload);

/// Wire form of one tick's outputs: each device type's cleaned relation,
/// the subscription count, and a length-prefixed block for each checked
/// subscription result (every eighth; see ServingReference).
std::string EncodeTickOutput(const core::TickResult& result,
                             const std::vector<cql::SubscriptionResult>& subs);

/// Pushes each relation of `result` into `registry` in stable timestamp
/// order and ticks it, exactly as core::QueryServingLayer::FeedAndTick.
StatusOr<std::vector<cql::SubscriptionResult>> FeedAndTick(
    cql::QueryRegistry& registry, const core::TickResult& result,
    const std::string& stream_name, Timestamp now);

}  // namespace esp::espbench

#endif  // ESPBENCH_WORKLOADS_H_
