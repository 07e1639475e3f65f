#ifndef ESP_STREAM_COLUMN_H_
#define ESP_STREAM_COLUMN_H_

#include <cstdint>
#include <vector>

#include "common/time.h"
#include "stream/schema.h"
#include "stream/tuple.h"
#include "stream/value.h"

namespace esp::stream {

/// \brief Globally enables/disables the columnar execution path. When
/// disabled, window owners stop maintaining their columnar mirrors and the
/// evaluator's columnar fast path stands down; results are bitwise-identical
/// either way (that is the point of the toggle — ablation benchmarks and the
/// equivalence property tests flip it freely). Enabled by default.
void SetColumnarEnabled(bool enabled);
bool ColumnarEnabled();

/// \brief A columnar mirror of one time-ordered window: per-field typed
/// arrays (int64/double/bool) with a null bitmap, a timestamps column, and a
/// row-materialization escape hatch for everything the typed storage cannot
/// hold.
///
/// The container is a FIFO like the row-oriented windows it mirrors: Append
/// at the back (non-decreasing timestamps), PopFront as tuples expire. Rows
/// are addressed by *live* index (0 = oldest surviving row); eviction
/// advances a head offset in O(1) and physically compacts only occasionally,
/// in 64-row-aligned chunks so the null bitmap words never need reshifting.
///
/// Type drift: tuple values are dynamically typed, so a field declared int64
/// may occasionally carry something else. The first mismatched value demotes
/// that column to kValue storage (every cell holds a full Value) for the rest
/// of the window's life — the escape hatch that keeps the mirror lossless.
/// Strings and timestamps use kValue storage from the start (interned
/// symbols copy as 4-byte handles, so this stays cheap).
class ColumnarWindow {
 public:
  enum class ColKind : uint8_t {
    kI64,    // int64_t cells.
    kF64,    // double cells.
    kBool,   // uint8_t cells (0/1).
    kValue,  // Full Value cells (strings, timestamps, demoted columns).
  };

  ColumnarWindow() = default;
  explicit ColumnarWindow(SchemaRef schema) { Reset(std::move(schema)); }

  /// Re-binds the window to a schema and discards all contents.
  void Reset(SchemaRef schema);

  const SchemaRef& schema() const { return schema_; }
  size_t num_columns() const { return columns_.size(); }
  size_t size() const { return total_rows_ - head_; }
  bool empty() const { return size() == 0; }
  /// Rows held in storage: the live rows plus the evicted prefix not yet
  /// compacted away.
  size_t physical_rows() const { return total_rows_; }

  /// Appends one tuple. Missing trailing fields store as null.
  void Append(const Tuple& tuple);
  void AppendRow(const std::vector<Value>& values, Timestamp ts);

  /// Evicts the n oldest live rows.
  void PopFront(size_t n);
  void Clear();

  ColKind col_kind(size_t c) const { return columns_[c].kind; }

  /// Typed cell arrays, pointing at live row 0. Valid only for the matching
  /// ColKind; null cells hold a zero/default payload and must be masked via
  /// the null bitmap.
  const int64_t* i64_data(size_t c) const {
    return columns_[c].i64.data() + head_;
  }
  const double* f64_data(size_t c) const {
    return columns_[c].f64.data() + head_;
  }
  const uint8_t* bool_data(size_t c) const {
    return columns_[c].b8.data() + head_;
  }
  const Value* value_data(size_t c) const {
    return columns_[c].vals.data() + head_;
  }

  /// Null bitmap words for column c: live row r is null iff bit
  /// (bit_offset() + r) of the word array is set. Compaction is 64-row
  /// aligned, so bit_offset() is always < 64.
  const uint64_t* null_words(size_t c) const { return columns_[c].nulls.data() + head_ / 64; }
  size_t bit_offset() const { return head_ % 64; }
  /// Number of null cells among the live rows of column c.
  size_t null_count(size_t c) const { return columns_[c].null_count; }
  bool has_nulls(size_t c) const { return columns_[c].null_count > 0; }
  bool is_null(size_t row, size_t c) const {
    const size_t bit = head_ + row;
    return (columns_[c].nulls[bit / 64] >> (bit % 64)) & 1;
  }

  /// Timestamps (micros) of the live rows.
  const int64_t* timestamps() const { return ts_.data() + head_; }
  Timestamp timestamp(size_t row) const {
    return Timestamp::Micros(ts_[head_ + row]);
  }

  /// Reconstructs one cell as a Value (the row-materialization escape
  /// hatch). Bitwise-faithful to the appended value.
  Value ValueAt(size_t row, size_t c) const;

  /// Fills `out` with row `row`'s values (resized to num_columns()).
  void MaterializeRow(size_t row, std::vector<Value>& out) const;

  /// First live row with timestamp >= t (lower) / > t (upper).
  size_t LowerBound(Timestamp t) const;
  size_t UpperBound(Timestamp t) const;

  /// Bumped on every mutation; lets callers key caches on window identity.
  uint64_t revision() const { return revision_; }

 private:
  struct Column {
    ColKind kind = ColKind::kValue;
    std::vector<int64_t> i64;
    std::vector<double> f64;
    std::vector<uint8_t> b8;
    std::vector<Value> vals;
    std::vector<uint64_t> nulls;  // Bit set == cell is null.
    size_t null_count = 0;        // Over live rows only.
  };

  static ColKind KindForType(DataType type);
  void Demote(Column& col);
  void MaybeCompact();

  SchemaRef schema_;
  std::vector<Column> columns_;
  std::vector<int64_t> ts_;  // Micros; physical, shares head_ with columns.
  size_t head_ = 0;          // Physical index of live row 0.
  size_t total_rows_ = 0;    // Physical row count (== ts_.size()).
  uint64_t revision_ = 0;
};

}  // namespace esp::stream

#endif  // ESP_STREAM_COLUMN_H_
