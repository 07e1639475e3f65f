#ifndef ESPBENCH_TRACING_H_
#define ESPBENCH_TRACING_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/stage.h"
#include "net/ingest_server.h"

namespace esp::espbench {

/// Monotonic wall clock in nanoseconds (std::chrono::steady_clock).
int64_t NowNs();

/// The layer a span belongs to; per-layer metrics aggregate by it.
enum class Layer {
  kTick,            // One tick, first reading sent to result in hand.
  kCorePush,        // EspProcessor::Push calls of one tick (aggregated).
  kCoreTick,        // One EspProcessor::Tick call.
  kPoint,           // One Point stage instance.
  kSmooth,          // One Smooth stage instance.
  kMerge,           // One Merge stage instance.
  kArbitrate,       // One Arbitrate stage instance.
  kVirtualize,      // The Virtualize stage.
  kServing,         // The benchmark-owned QueryRegistry's feed and tick.
  kClientPushBatch,  // net::IngestClient::PushBatch.
  kClientPushTick,   // net::IngestClient::PushTick.
};

/// One span: a layer's work within one tick. `busy_ns` is the time spent
/// inside the layer's calls; it is at most `end_ns - start_ns` (a stage's
/// span runs from its first Push to the end of its Evaluate, and the
/// processor's own code between those calls is not the stage's).
struct Span {
  int name = 0;     // Tracer::name() index; 0 is the tick root.
  int parent = -1;  // Index of the parent span in the tick; -1 for the root.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t busy_ns = 0;
  int64_t calls = 0;
  int64_t evals = 0;
  int64_t rows_in = 0;
  int64_t rows_out = 0;
  int64_t errors = 0;
};

/// Where a caller keeps the span it is extending this tick.
struct SpanHandle {
  uint64_t tick = ~uint64_t{0};
  int index = -1;
};

/// Collects the spans of one tick at a time, in memory. Thread-safe: on
/// the ingest workload the server's event loop records the engine's spans
/// while the client thread owns the tick.
class Tracer {
 public:
  /// Name 0 is the tick root, "tick".
  Tracer() { Intern("tick", Layer::kTick); }

  /// Registers a span name (set-up time) and returns its id.
  int Intern(std::string name, Layer layer);
  /// A fresh "cql.<kind>#<n>" name for one stage instance.
  int InternStage(core::StageKind kind);

  const std::string& name(int id) const { return names_[id].first; }
  Layer layer(int id) const { return names_[id].second; }

  /// Opens the tick's root span; every later span of the tick descends
  /// from it until EndTick.
  void BeginTick(int64_t start_ns);

  /// Opens a child of the current parent and returns its index.
  int Open(int name, int64_t start_ns);
  /// Closes span `index` at `end_ns`, counting [start, end] as busy.
  void Close(int index, int64_t end_ns, int64_t rows_out);
  /// Spans opened from now on become children of `index` (-1: the root).
  void SetParent(int index);

  /// Adds one call [start_ns, end_ns] to the caller's span for this tick,
  /// opening it (under the current parent) on the first call of the tick.
  void Record(SpanHandle& handle, int name, int64_t start_ns, int64_t end_ns,
              int64_t rows_in, int64_t rows_out, bool eval, bool error);

  /// Closes the root at `end_ns`.
  void EndTick(int64_t end_ns);

  /// The tick's spans, index 0 being the root; read only once the tick
  /// has ended, and valid until the next BeginTick.
  const std::vector<Span>& spans() const { return spans_; }

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<std::string, Layer>> names_;
  int stage_instances_[5] = {0, 0, 0, 0, 0};
  std::vector<Span> spans_;
  uint64_t tick_ = 0;
  int parent_ = 0;
};

/// Wraps a stage factory so every instance it makes is a TracedStage;
/// returns `factory` unchanged when it is empty or `tracer` is null.
core::StageFactory Traced(core::StageFactory factory, Tracer* tracer);

/// Forwards to an inner sink and records one "core.push" span (all Push
/// calls of the tick) and one "core.tick" span per Tick; stage spans
/// opened during Tick become the latter's children.
class TimingSink : public net::IngestSink {
 public:
  TimingSink(std::unique_ptr<net::IngestSink> inner, Tracer* tracer);

  Status Push(const std::string& device_type, stream::Tuple raw) override;
  StatusOr<core::TickResult> Tick(Timestamp now) override;
  StatusOr<stream::SchemaRef> ReadingSchema(
      const std::string& device_type) const override {
    return inner_->ReadingSchema(device_type);
  }
  void SetStatsSource(core::IngestStatsSource source) override {
    inner_->SetStatsSource(std::move(source));
  }

 private:
  std::unique_ptr<net::IngestSink> inner_;
  Tracer* tracer_;
  int push_name_;
  int tick_name_;
  SpanHandle push_;
};

}  // namespace esp::espbench

#endif  // ESPBENCH_TRACING_H_
