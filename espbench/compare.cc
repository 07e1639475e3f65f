#include "compare.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "stream/serialize.h"

namespace esp::espbench {
namespace {

bool IsDouble(const stream::Value& v) {
  return v.type() == stream::DataType::kDouble;
}

/// Total order used only for sorting: type first, then content.
int Order(const stream::Value& a, const stream::Value& b) {
  if (a.type() != b.type()) return a.type() < b.type() ? -1 : 1;
  if (a.is_null()) return 0;
  const StatusOr<int> cmp = a.Compare(b);
  return cmp.ok() ? cmp.value() : 0;
}

bool RowLess(const Row& a, const Row& b) {
  if (a.size() != b.size()) return a.size() < b.size();
  for (int pass = 0; pass < 2; ++pass) {
    const bool doubles = pass == 1;
    for (size_t i = 0; i < a.size(); ++i) {
      if (IsDouble(a[i]) != doubles) continue;
      const int c = Order(a[i], b[i]);
      if (c != 0) return c < 0;
    }
  }
  return false;
}

std::string RowText(const Row& row) {
  std::string text = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) text += ", ";
    if (IsDouble(row[i])) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", row[i].double_value());
      text += buf;
    } else {
      text += row[i].ToString();
    }
  }
  return text + ")";
}

bool SameRow(const Row& a, const Row& b, double rel_tol) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (IsDouble(a[i]) && IsDouble(b[i])) {
      const double x = a[i].double_value();
      const double y = b[i].double_value();
      if (x == y) continue;
      const double scale = std::max(std::fabs(x), std::fabs(y));
      if (!(std::fabs(x - y) <= rel_tol * scale)) return false;
      continue;
    }
    if (a[i].type() != b[i].type() || !(a[i] == b[i])) return false;
  }
  return true;
}

}  // namespace

bool SameRowMultiset(std::vector<Row> got, std::vector<Row> want,
                     double rel_tol, std::string* why) {
  std::sort(got.begin(), got.end(), RowLess);
  std::sort(want.begin(), want.end(), RowLess);
  const size_t n = std::min(got.size(), want.size());
  for (size_t i = 0; i < n; ++i) {
    if (!SameRow(got[i], want[i], rel_tol)) {
      *why = "row " + std::to_string(i) + ": got " + RowText(got[i]) +
             ", want " + RowText(want[i]);
      return false;
    }
  }
  if (got.size() != want.size()) {
    *why = "got " + std::to_string(got.size()) + " rows, want " +
           std::to_string(want.size()) + "; first unmatched " +
           RowText(got.size() > n ? got[n] : want[n]);
    return false;
  }
  return true;
}

void EncodeRelation(ByteWriter& w, const stream::Relation& relation) {
  w.WriteBool(relation.schema() != nullptr);
  if (relation.schema() != nullptr) {
    stream::WriteSchema(w, *relation.schema());
  }
  w.WriteU32(static_cast<uint32_t>(relation.size()));
  for (const stream::Tuple& tuple : relation.tuples()) {
    stream::WriteTuple(w, tuple);
  }
}

StatusOr<stream::Relation> DecodeRelation(ByteReader& r) {
  ESP_ASSIGN_OR_RETURN(const bool has_schema, r.ReadBool());
  stream::SchemaRef schema;
  if (has_schema) {
    ESP_ASSIGN_OR_RETURN(schema, stream::ReadSchema(r));
  }
  ESP_ASSIGN_OR_RETURN(const uint32_t rows, r.ReadU32());
  if (rows > 0 && schema == nullptr) {
    return Status::InvalidArgument("rows without a schema");
  }
  stream::Relation relation(schema);
  for (uint32_t i = 0; i < rows; ++i) {
    ESP_ASSIGN_OR_RETURN(stream::Tuple tuple, stream::ReadTuple(r, schema));
    relation.Add(std::move(tuple));
  }
  return relation;
}

std::vector<Row> RowsOf(const stream::Relation& relation) {
  std::vector<Row> rows;
  rows.reserve(relation.size());
  for (const stream::Tuple& tuple : relation.tuples()) {
    rows.push_back(tuple.values());
  }
  return rows;
}

}  // namespace esp::espbench
