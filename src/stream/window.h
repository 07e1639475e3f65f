#ifndef ESP_STREAM_WINDOW_H_
#define ESP_STREAM_WINDOW_H_

#include <deque>
#include <string>

#include "common/binio.h"
#include "common/status.h"
#include "common/time.h"
#include "stream/tuple.h"

namespace esp::stream {

/// \brief The kind of window attached to a stream reference in a query.
enum class WindowKind {
  /// Time-based sliding window: `[Range By '5 sec']`. The window at time t
  /// contains tuples with timestamp in (t - range, t].
  kRange,
  /// The instantaneous window: `[Range By 'NOW']` — tuples with timestamp
  /// exactly t.
  kNow,
  /// Count-based window: `[Rows 100]` — the most recent n tuples.
  kRows,
  /// The unbounded window (no window clause on a stream treated as a
  /// relation snapshot so far).
  kUnbounded,
};

/// \brief Parsed window clause.
struct WindowSpec {
  WindowKind kind = WindowKind::kUnbounded;
  Duration range;   // Valid when kind == kRange.
  /// Optional slide for kRange: when non-zero, the window's contents only
  /// advance at multiples of `slide` — the result at time t is the window
  /// at the greatest slide boundary <= t (CQL `[Range ... Slide ...]`).
  Duration slide;
  int64_t rows = 0;  // Valid when kind == kRows.

  static WindowSpec Range(Duration d) {
    // CQL's `[Range By 'NOW']` is spelled as a zero range.
    if (d.IsZero()) return Now();
    WindowSpec spec;
    spec.kind = WindowKind::kRange;
    spec.range = d;
    return spec;
  }
  static WindowSpec RangeSlide(Duration d, Duration slide) {
    WindowSpec spec = Range(d);
    if (spec.kind == WindowKind::kRange) spec.slide = slide;
    return spec;
  }

  /// The evaluation instant this window actually reflects at time t.
  Timestamp EffectiveTime(Timestamp t) const {
    if (kind != WindowKind::kRange || slide.micros() <= 0) return t;
    const int64_t width = slide.micros();
    int64_t quantized = t.micros() / width * width;
    if (quantized > t.micros()) quantized -= width;  // Negative times.
    return Timestamp::Micros(quantized);
  }
  static WindowSpec Now() {
    WindowSpec spec;
    spec.kind = WindowKind::kNow;
    return spec;
  }
  static WindowSpec Rows(int64_t n) {
    WindowSpec spec;
    spec.kind = WindowKind::kRows;
    spec.rows = n;
    return spec;
  }
  static WindowSpec Unbounded() { return WindowSpec{}; }

  std::string ToString() const;
  bool operator==(const WindowSpec&) const = default;
};

/// \brief Maintains the live contents of one window over one input stream.
///
/// Tuples must be inserted in non-decreasing timestamp order (receptor
/// streams are naturally ordered; the ESP processor enforces this). At any
/// time t, Snapshot(t) returns the relation the window defines at t.
class WindowBuffer {
 public:
  WindowBuffer(WindowSpec spec, SchemaRef schema)
      : spec_(spec), schema_(std::move(schema)) {}

  const WindowSpec& spec() const { return spec_; }
  const SchemaRef& schema() const { return schema_; }

  /// Inserts a tuple. Returns InvalidArgument on out-of-order timestamps.
  Status Insert(Tuple tuple);

  /// Drops tuples that can no longer appear in any window at or after t.
  void EvictBefore(Timestamp t);

  /// Materializes the window contents at time t. For kRange this is tuples
  /// with timestamp in (t - range, t]; for kNow, timestamp == t; for kRows,
  /// the last n tuples with timestamp <= t; for kUnbounded, everything
  /// not yet evicted with timestamp <= t.
  Relation Snapshot(Timestamp t) const;

  size_t buffered() const { return buffer_.size(); }

  /// Observability: full snapshot materializations (cache misses).
  size_t snapshot_rebuilds() const { return snapshot_rebuilds_; }

  /// Monotonic mutation counter: bumped by every Insert, every EvictBefore
  /// that removes a tuple, and LoadState. The row-snapshot cache records
  /// the generation it was built at and is trusted only while it still
  /// matches, so multiple plans reading one shared buffer can never observe
  /// a snapshot from before an interleaved mutation — the invalidation
  /// contract is the counter, not the mutators remembering to clear every
  /// flag.
  uint64_t generation() const { return generation_; }

  /// Serializes the live contents (tuples + insertion clock) for the
  /// durability subsystem. The spec and schema are NOT serialized: they are
  /// configuration, reconstructed by whoever owns the buffer.
  void SaveState(ByteWriter& w) const;

  /// Restores contents saved by SaveState into a freshly-configured buffer
  /// (same spec/schema). Any existing contents are replaced.
  Status LoadState(ByteReader& r);

 private:
  /// True when the cached snapshot answers Snapshot(t) exactly.
  bool CacheHit(Timestamp t) const;
  /// Materializes the window contents at time t (the pre-cache Snapshot).
  Relation Rebuild(Timestamp t) const;

  WindowSpec spec_;
  SchemaRef schema_;
  std::deque<Tuple> buffer_;
  Timestamp last_insert_time_;
  bool has_inserted_ = false;
  uint64_t generation_ = 0;  // See generation().

  /// Snapshot cache: Snapshot() re-materialized a full Relation on every
  /// call even when nothing entered or expired since the last one. The
  /// cache is keyed on the evaluation instant (the slide-quantized
  /// effective time for kRange) and invalidated by Insert/EvictBefore/
  /// LoadState. For kRows/kUnbounded a cached result that covered the whole
  /// buffer stays valid at any later t (the `<= t` filter can only re-admit
  /// the same tuples).
  mutable bool cache_valid_ = false;
  mutable bool cache_covers_all_ = false;
  mutable Timestamp cache_key_;
  mutable Relation cache_;
  mutable size_t snapshot_rebuilds_ = 0;
  mutable uint64_t cache_generation_ = 0;  // generation_ when cache_ built.
};

}  // namespace esp::stream

#endif  // ESP_STREAM_WINDOW_H_
