#include "stream/column.h"

#include <algorithm>
#include <atomic>

namespace esp::stream {

namespace {
std::atomic<bool> g_columnar_enabled{true};

/// Compaction erases the dead prefix from the vector fronts (a memmove of
/// the live rows), so it runs only once the dead prefix is at least as long
/// as the live contents — amortised O(1) per evicted row — and at least one
/// 64-row bitmap word long. Storage thus stays within about twice the live
/// window, however small the window is.
constexpr size_t kCompactMinDead = 64;
}  // namespace

void SetColumnarEnabled(bool enabled) {
  g_columnar_enabled.store(enabled, std::memory_order_relaxed);
}

bool ColumnarEnabled() {
  return g_columnar_enabled.load(std::memory_order_relaxed);
}

ColumnarWindow::ColKind ColumnarWindow::KindForType(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return ColKind::kI64;
    case DataType::kDouble:
      return ColKind::kF64;
    case DataType::kBool:
      return ColKind::kBool;
    default:
      return ColKind::kValue;
  }
}

void ColumnarWindow::Reset(SchemaRef schema) {
  schema_ = std::move(schema);
  columns_.clear();
  ts_.clear();
  head_ = 0;
  total_rows_ = 0;
  ++revision_;
  if (schema_ == nullptr) return;
  columns_.resize(schema_->num_fields());
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].kind = KindForType(schema_->field(c).type);
  }
}

void ColumnarWindow::Clear() {
  for (Column& col : columns_) {
    col.i64.clear();
    col.f64.clear();
    col.b8.clear();
    col.vals.clear();
    col.nulls.clear();
    col.null_count = 0;
    // Demotions stick only while the demoting values are live.
    if (schema_ != nullptr) {
      col.kind = KindForType(schema_->field(&col - columns_.data()).type);
    }
  }
  ts_.clear();
  head_ = 0;
  total_rows_ = 0;
  ++revision_;
}

void ColumnarWindow::Demote(Column& col) {
  // Convert the physical storage to Value cells. Dead rows (before head_)
  // only need placeholders; live rows convert faithfully.
  const size_t col_index = static_cast<size_t>(&col - columns_.data());
  std::vector<Value> vals(total_rows_);
  for (size_t p = head_; p < total_rows_; ++p) {
    const size_t bit = p;
    const bool null = (col.nulls[bit / 64] >> (bit % 64)) & 1;
    if (null) continue;  // Already Value::Null().
    switch (col.kind) {
      case ColKind::kI64:
        vals[p] = Value::Int64(col.i64[p]);
        break;
      case ColKind::kF64:
        vals[p] = Value::Double(col.f64[p]);
        break;
      case ColKind::kBool:
        vals[p] = Value::Bool(col.b8[p] != 0);
        break;
      case ColKind::kValue:
        vals[p] = std::move(col.vals[p]);
        break;
    }
  }
  col.vals = std::move(vals);
  col.i64.clear();
  col.i64.shrink_to_fit();
  col.f64.clear();
  col.f64.shrink_to_fit();
  col.b8.clear();
  col.b8.shrink_to_fit();
  col.kind = ColKind::kValue;
  (void)col_index;
}

void ColumnarWindow::AppendRow(const std::vector<Value>& values,
                               Timestamp ts) {
  const size_t p = total_rows_;
  for (size_t c = 0; c < columns_.size(); ++c) {
    Column& col = columns_[c];
    const Value* v = c < values.size() ? &values[c] : nullptr;
    const bool null = v == nullptr || v->is_null();
    if (!null && col.kind != ColKind::kValue &&
        col.kind != KindForType(v->type())) {
      Demote(col);  // Type drift: fall back to Value cells for this column.
    }
    if (p / 64 >= col.nulls.size()) col.nulls.push_back(0);
    if (null) {
      col.nulls[p / 64] |= uint64_t{1} << (p % 64);
      ++col.null_count;
    }
    switch (col.kind) {
      case ColKind::kI64:
        col.i64.push_back(null ? 0 : v->int64_value());
        break;
      case ColKind::kF64:
        col.f64.push_back(null ? 0.0 : v->double_value());
        break;
      case ColKind::kBool:
        col.b8.push_back(null ? 0 : (v->bool_value() ? 1 : 0));
        break;
      case ColKind::kValue:
        col.vals.push_back(null ? Value::Null() : *v);
        break;
    }
  }
  ts_.push_back(ts.micros());
  ++total_rows_;
  ++revision_;
}

void ColumnarWindow::Append(const Tuple& tuple) {
  AppendRow(tuple.values(), tuple.timestamp());
}

void ColumnarWindow::PopFront(size_t n) {
  n = std::min(n, size());
  if (n == 0) return;
  for (Column& col : columns_) {
    if (col.null_count > 0) {
      for (size_t p = head_; p < head_ + n; ++p) {
        if ((col.nulls[p / 64] >> (p % 64)) & 1) --col.null_count;
      }
    }
    if (col.kind == ColKind::kValue) {
      // Release string payloads eagerly; the slots are dead.
      for (size_t p = head_; p < head_ + n; ++p) col.vals[p] = Value();
    }
  }
  head_ += n;
  ++revision_;
  MaybeCompact();
}

void ColumnarWindow::MaybeCompact() {
  if (head_ < std::max(kCompactMinDead, size())) return;
  // Erase a 64-row-aligned prefix so null bitmap words shift whole.
  const size_t drop = head_ & ~size_t{63};
  if (drop == 0) return;
  for (Column& col : columns_) {
    switch (col.kind) {
      case ColKind::kI64:
        col.i64.erase(col.i64.begin(), col.i64.begin() + drop);
        break;
      case ColKind::kF64:
        col.f64.erase(col.f64.begin(), col.f64.begin() + drop);
        break;
      case ColKind::kBool:
        col.b8.erase(col.b8.begin(), col.b8.begin() + drop);
        break;
      case ColKind::kValue:
        col.vals.erase(col.vals.begin(), col.vals.begin() + drop);
        break;
    }
    col.nulls.erase(col.nulls.begin(), col.nulls.begin() + drop / 64);
  }
  ts_.erase(ts_.begin(), ts_.begin() + drop);
  head_ -= drop;
  total_rows_ -= drop;
}

Value ColumnarWindow::ValueAt(size_t row, size_t c) const {
  const Column& col = columns_[c];
  const size_t p = head_ + row;
  if ((col.nulls[p / 64] >> (p % 64)) & 1) return Value::Null();
  switch (col.kind) {
    case ColKind::kI64:
      return Value::Int64(col.i64[p]);
    case ColKind::kF64:
      return Value::Double(col.f64[p]);
    case ColKind::kBool:
      return Value::Bool(col.b8[p] != 0);
    case ColKind::kValue:
      return col.vals[p];
  }
  return Value::Null();
}

void ColumnarWindow::MaterializeRow(size_t row, std::vector<Value>& out) const {
  out.clear();
  out.reserve(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    out.push_back(ValueAt(row, c));
  }
}

size_t ColumnarWindow::LowerBound(Timestamp t) const {
  const int64_t* base = timestamps();
  return static_cast<size_t>(std::lower_bound(base, base + size(),
                                              t.micros()) -
                             base);
}

size_t ColumnarWindow::UpperBound(Timestamp t) const {
  const int64_t* base = timestamps();
  return static_cast<size_t>(std::upper_bound(base, base + size(),
                                              t.micros()) -
                             base);
}

}  // namespace esp::stream
