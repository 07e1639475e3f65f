#ifndef ESPBENCH_COMPARE_H_
#define ESPBENCH_COMPARE_H_

#include <string>
#include <vector>

#include "common/binio.h"
#include "common/status.h"
#include "stream/tuple.h"
#include "stream/value.h"

namespace esp::espbench {

using Row = std::vector<stream::Value>;

/// Relative tolerance for double columns when a cleaned output is checked
/// against an independent evaluation: the engine and the reference may
/// sum the same doubles in a different order. Every other type compares
/// exactly.
inline constexpr double kDoubleRelTolerance = 1e-9;

/// Compares two row multisets. Rows are sorted on their non-double
/// columns first, then their doubles, and matched pairwise: non-double
/// values must be equal and doubles within `rel_tol` of each other
/// (relative to the larger magnitude). On a difference returns false and
/// describes the first one in `why`.
bool SameRowMultiset(std::vector<Row> got, std::vector<Row> want,
                     double rel_tol, std::string* why);

/// Relation wire form shared by the benchmark and its checker process:
/// schema, row count, rows (stream/serialize encodings, so interned and
/// plain strings encode alike).
void EncodeRelation(ByteWriter& w, const stream::Relation& relation);
StatusOr<stream::Relation> DecodeRelation(ByteReader& r);

std::vector<Row> RowsOf(const stream::Relation& relation);

}  // namespace esp::espbench

#endif  // ESPBENCH_COMPARE_H_
