// ColumnarWindow container semantics (append/evict/compaction/demotion/null
// tracking/materialization/time bounds) and the SIMD kernel contracts: every
// kernel must agree bit for bit with the naive reference loop over the same
// cells — with and without nulls, selection masks, NaN, -0.0, huge int64
// values, and the force-scalar override.

#include "stream/column.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "stream/schema.h"
#include "stream/simd_kernels.h"
#include "stream/tuple.h"
#include "stream/value.h"

namespace esp::stream {
namespace {

SchemaRef TestSchema() {
  return MakeSchema({{"k", DataType::kInt64},
                     {"v", DataType::kDouble},
                     {"name", DataType::kString}});
}

Tuple Row(const SchemaRef& schema, Value k, Value v, Value name, int64_t us) {
  return Tuple(schema, {std::move(k), std::move(v), std::move(name)},
               Timestamp::Micros(us));
}

TEST(ColumnarWindowTest, AppendMaterializeRoundTrip) {
  SchemaRef schema = TestSchema();
  ColumnarWindow w(schema);
  w.Append(Row(schema, Value::Int64(7), Value::Double(1.5),
               Value::String("a"), 10));
  w.Append(Row(schema, Value::Null(), Value::Double(-0.0),
               Value::String("b"), 20));
  w.Append(Row(schema, Value::Int64(-3), Value::Null(), Value::Null(), 30));

  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w.col_kind(0), ColumnarWindow::ColKind::kI64);
  EXPECT_EQ(w.col_kind(1), ColumnarWindow::ColKind::kF64);
  EXPECT_EQ(w.col_kind(2), ColumnarWindow::ColKind::kValue);

  EXPECT_TRUE(w.ValueAt(0, 0).Equals(Value::Int64(7)));
  EXPECT_TRUE(w.ValueAt(1, 0).is_null());
  EXPECT_TRUE(w.is_null(1, 0));
  EXPECT_EQ(w.null_count(0), 1u);
  // -0.0 must round-trip with its sign bit.
  EXPECT_TRUE(std::signbit(*w.ValueAt(1, 1).AsDouble()));
  EXPECT_TRUE(w.ValueAt(2, 2).is_null());

  std::vector<Value> row;
  w.MaterializeRow(1, row);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_TRUE(row[0].is_null());
  EXPECT_TRUE(row[2].Equals(Value::String("b")));
  EXPECT_EQ(w.timestamp(1), Timestamp::Micros(20));
}

TEST(ColumnarWindowTest, PopFrontEvictsAndCompacts) {
  SchemaRef schema = TestSchema();
  ColumnarWindow w(schema);
  // Enough rows to cross several 64-row compaction chunks.
  for (int64_t i = 0; i < 400; ++i) {
    w.Append(Row(schema, Value::Int64(i), Value::Double(i * 0.5),
                 Value::String("n" + std::to_string(i)), i * 10));
  }
  ASSERT_EQ(w.size(), 400u);
  w.PopFront(150);
  ASSERT_EQ(w.size(), 250u);
  EXPECT_LT(w.bit_offset(), 64u);  // Compaction stays 64-row aligned.
  // Live row 0 is old physical row 150, through the typed array view too.
  EXPECT_TRUE(w.ValueAt(0, 0).Equals(Value::Int64(150)));
  EXPECT_EQ(w.i64_data(0)[0], 150);
  EXPECT_EQ(w.timestamps()[0], 1500);
  // 150 dead rows do not yet dominate 250 live ones: nothing compacted.
  EXPECT_EQ(w.physical_rows(), 400u);
  // Pop the rest in stages; every intermediate view stays coherent.
  w.PopFront(249);
  ASSERT_EQ(w.size(), 1u);
  // 399 dead rows dominate: the 64-aligned dead prefix (384 rows) is gone.
  EXPECT_EQ(w.physical_rows(), 16u);
  EXPECT_TRUE(w.ValueAt(0, 0).Equals(Value::Int64(399)));
  EXPECT_EQ(w.i64_data(0)[0], 399);
  EXPECT_EQ(w.timestamps()[0], 3990);
  w.PopFront(1);
  EXPECT_TRUE(w.empty());
  // And the window keeps working after total eviction.
  w.Append(Row(schema, Value::Int64(9), Value::Double(9.0),
               Value::String("z"), 99999));
  EXPECT_EQ(w.size(), 1u);
  EXPECT_TRUE(w.ValueAt(0, 0).Equals(Value::Int64(9)));
}

TEST(ColumnarWindowTest, SmallWindowStorageStaysBounded) {
  // A one-row window over a long stream (a per-receptor mirror): the
  // evicted prefix is compacted away instead of piling up.
  SchemaRef schema = TestSchema();
  ColumnarWindow w(schema);
  size_t max_physical = 0;
  for (int64_t i = 0; i < 10000; ++i) {
    w.Append(Row(schema, i % 7 == 0 ? Value::Null() : Value::Int64(i),
                 Value::Double(i * 0.25), Value::String("s"), i));
    if (w.size() > 1) w.PopFront(1);
    max_physical = std::max(max_physical, w.physical_rows());
    ASSERT_EQ(w.size(), 1u);
    ASSERT_EQ(w.timestamps()[0], i);
    ASSERT_EQ(w.null_count(0), i % 7 == 0 ? 1u : 0u);
    ASSERT_LT(w.bit_offset(), 64u);
  }
  EXPECT_LE(max_physical, 65u);
  EXPECT_TRUE(w.ValueAt(0, 1).Equals(Value::Double(9999 * 0.25)));
}

TEST(ColumnarWindowTest, NullCountTracksLiveRowsAcrossEviction) {
  SchemaRef schema = TestSchema();
  ColumnarWindow w(schema);
  for (int64_t i = 0; i < 100; ++i) {
    w.Append(Row(schema, i % 3 == 0 ? Value::Null() : Value::Int64(i),
                 Value::Double(0.0), Value::String("x"), i));
  }
  size_t nulls = 0;
  for (size_t i = 0; i < w.size(); ++i) nulls += w.is_null(i, 0) ? 1 : 0;
  EXPECT_EQ(w.null_count(0), nulls);
  w.PopFront(37);
  nulls = 0;
  for (size_t i = 0; i < w.size(); ++i) nulls += w.is_null(i, 0) ? 1 : 0;
  EXPECT_EQ(w.null_count(0), nulls);
  EXPECT_TRUE(w.has_nulls(0));
}

TEST(ColumnarWindowTest, TypeDriftDemotesToValueStorage) {
  SchemaRef schema = TestSchema();
  ColumnarWindow w(schema);
  w.Append(Row(schema, Value::Int64(1), Value::Double(1.0),
               Value::String("a"), 10));
  ASSERT_EQ(w.col_kind(0), ColumnarWindow::ColKind::kI64);
  // A string lands in the int64 column: the column demotes, losslessly.
  w.Append(Row(schema, Value::String("drift"), Value::Double(2.0),
               Value::String("b"), 20));
  EXPECT_EQ(w.col_kind(0), ColumnarWindow::ColKind::kValue);
  EXPECT_TRUE(w.ValueAt(0, 0).Equals(Value::Int64(1)));
  EXPECT_TRUE(w.ValueAt(1, 0).Equals(Value::String("drift")));
  // Demotion is sticky: matching values still store as Values.
  w.Append(Row(schema, Value::Int64(3), Value::Double(3.0),
               Value::String("c"), 30));
  EXPECT_EQ(w.col_kind(0), ColumnarWindow::ColKind::kValue);
  EXPECT_TRUE(w.ValueAt(2, 0).Equals(Value::Int64(3)));
}

TEST(ColumnarWindowTest, TimeBoundsMatchBinarySearch) {
  SchemaRef schema = TestSchema();
  ColumnarWindow w(schema);
  const int64_t stamps[] = {10, 10, 20, 30, 30, 30, 50};
  for (int64_t us : stamps) {
    w.Append(Row(schema, Value::Int64(us), Value::Double(0.0),
                 Value::String("t"), us));
  }
  EXPECT_EQ(w.LowerBound(Timestamp::Micros(10)), 0u);
  EXPECT_EQ(w.UpperBound(Timestamp::Micros(10)), 2u);
  EXPECT_EQ(w.LowerBound(Timestamp::Micros(30)), 3u);
  EXPECT_EQ(w.UpperBound(Timestamp::Micros(30)), 6u);
  EXPECT_EQ(w.LowerBound(Timestamp::Micros(31)), 6u);
  EXPECT_EQ(w.UpperBound(Timestamp::Micros(100)), 7u);
  EXPECT_EQ(w.LowerBound(Timestamp::Micros(0)), 0u);
  w.PopFront(2);  // Bounds respect the head offset.
  EXPECT_EQ(w.LowerBound(Timestamp::Micros(30)), 1u);
  EXPECT_EQ(w.UpperBound(Timestamp::Micros(30)), 4u);
}

TEST(ColumnarWindowTest, RevisionBumpsOnEveryMutation) {
  SchemaRef schema = TestSchema();
  ColumnarWindow w(schema);
  const uint64_t r0 = w.revision();
  w.Append(Row(schema, Value::Int64(1), Value::Double(1.0),
               Value::String("a"), 10));
  const uint64_t r1 = w.revision();
  EXPECT_NE(r0, r1);
  w.PopFront(1);
  EXPECT_NE(r1, w.revision());
}

// --- Kernel reference checks ----------------------------------------------

/// A randomized batch with a null bitmap laid out at an arbitrary bit
/// offset, plus an optional selection mask — the full kernel input surface.
struct I64Batch {
  std::vector<int64_t> v;
  std::vector<uint64_t> nulls;
  std::vector<uint8_t> mask;
  size_t bit0 = 0;
  bool has_nulls = false;
  bool has_mask = false;

  const uint64_t* null_words() const {
    return has_nulls ? nulls.data() : nullptr;
  }
  const uint8_t* mask_data() const { return has_mask ? mask.data() : nullptr; }
  bool null_at(size_t i) const {
    if (!has_nulls) return false;
    const size_t bit = bit0 + i;
    return (nulls[bit / 64] >> (bit % 64)) & 1;
  }
  bool selected(size_t i) const { return !has_mask || mask[i] != 0; }
};

I64Batch MakeI64Batch(Rng& rng, size_t n, bool with_nulls, bool with_mask,
                      bool huge) {
  I64Batch b;
  b.bit0 = rng.NextUint64() % 64;
  b.has_nulls = with_nulls;
  b.has_mask = with_mask;
  b.nulls.assign((b.bit0 + n + 63) / 64, 0);
  for (size_t i = 0; i < n; ++i) {
    int64_t cell = static_cast<int64_t>(rng.NextUint64() % 2000) - 1000;
    if (huge && rng.Bernoulli(0.2)) {
      // Straddle the 2^52 sum guard and the 2^53 double-exactness edge.
      cell = (int64_t{1} << 52) + static_cast<int64_t>(rng.NextUint64() % 8);
      if (rng.Bernoulli(0.5)) cell = -cell;
    }
    b.v.push_back(cell);
    if (with_nulls && rng.Bernoulli(0.15)) {
      const size_t bit = b.bit0 + i;
      b.nulls[bit / 64] |= uint64_t{1} << (bit % 64);
    }
    b.mask.push_back(rng.Bernoulli(0.7) ? 1 : 0);
  }
  return b;
}

/// The legacy row-path fold the kernels must reproduce: sequential double
/// accumulation in window order.
simd::SumResult ReferenceSumI64(const I64Batch& b) {
  simd::SumResult r;
  for (size_t i = 0; i < b.v.size(); ++i) {
    if (!b.selected(i) || b.null_at(i)) continue;
    r.sum += static_cast<double>(b.v[i]);
    ++r.nonnull;
  }
  return r;
}

ptrdiff_t ReferenceExtremumI64(const I64Batch& b, bool is_min) {
  ptrdiff_t best = -1;
  for (size_t i = 0; i < b.v.size(); ++i) {
    if (!b.selected(i) || b.null_at(i)) continue;
    if (best < 0) {
      best = static_cast<ptrdiff_t>(i);
      continue;
    }
    // Value::Compare widens to double; first-of-equals wins.
    const double cur = static_cast<double>(b.v[i]);
    const double winner = static_cast<double>(b.v[best]);
    if (is_min ? cur < winner : cur > winner) {
      best = static_cast<ptrdiff_t>(i);
    }
  }
  return best;
}

TEST(SimdKernelTest, SumAndExtremumI64MatchReferenceEverywhere) {
  Rng rng(5);
  for (const bool force_scalar : {false, true}) {
    simd::SetForceScalar(force_scalar);
    for (const bool with_nulls : {false, true}) {
      for (const bool with_mask : {false, true}) {
        for (const bool huge : {false, true}) {
          for (const size_t n : {0u, 1u, 7u, 8u, 64u, 257u}) {
            const I64Batch b = MakeI64Batch(rng, n, with_nulls, with_mask, huge);
            const simd::SumResult expect = ReferenceSumI64(b);
            const simd::SumResult got = simd::SumI64(
                b.v.data(), n, b.null_words(), b.bit0, b.mask_data());
            // Bitwise: the guard guarantees the fold is reproduced exactly.
            EXPECT_EQ(expect.nonnull, got.nonnull);
            EXPECT_EQ(std::memcmp(&expect.sum, &got.sum, sizeof(double)), 0)
                << "n=" << n << " huge=" << huge << " scalar=" << force_scalar;
            for (const bool is_min : {false, true}) {
              EXPECT_EQ(ReferenceExtremumI64(b, is_min),
                        simd::ExtremumI64(b.v.data(), n, b.null_words(),
                                          b.bit0, b.mask_data(), is_min));
            }
            int64_t count = 0;
            for (size_t i = 0; i < n; ++i) {
              count += (b.selected(i) && !b.null_at(i)) ? 1 : 0;
            }
            EXPECT_EQ(count, simd::CountNonNull(n, b.null_words(), b.bit0,
                                                b.mask_data()));
          }
        }
      }
    }
  }
  simd::SetForceScalar(false);
}

TEST(SimdKernelTest, F64KernelsPinNaNAndSignedZero) {
  Rng rng(9);
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const bool force_scalar : {false, true}) {
    simd::SetForceScalar(force_scalar);
    for (int trial = 0; trial < 20; ++trial) {
      const size_t n = 1 + rng.NextUint64() % 200;
      std::vector<double> v;
      for (size_t i = 0; i < n; ++i) {
        const int pick = static_cast<int>(rng.NextUint64() % 10);
        if (pick == 0) v.push_back(kNaN);
        else if (pick == 1) v.push_back(-0.0);
        else if (pick == 2) v.push_back(0.0);
        else v.push_back(rng.NextDouble() * 20.0 - 10.0);
      }
      // Sequential reference fold and first-of-equals extremum under the
      // trichotomy compare (NaN compares "equal", so it never displaces).
      double sum = 0.0;
      for (double x : v) sum += x;
      const simd::SumResult got =
          simd::SumF64(v.data(), n, nullptr, 0, nullptr);
      EXPECT_EQ(std::memcmp(&sum, &got.sum, sizeof(double)), 0);
      for (const bool is_min : {false, true}) {
        ptrdiff_t best = 0;
        for (size_t i = 1; i < n; ++i) {
          const bool better = is_min ? v[i] < v[best] : v[i] > v[best];
          if (better) best = static_cast<ptrdiff_t>(i);
        }
        EXPECT_EQ(best, simd::ExtremumF64(v.data(), n, nullptr, 0, nullptr,
                                          is_min))
            << "trial=" << trial << " is_min=" << is_min;
      }
    }
  }
  simd::SetForceScalar(false);
}

simd::Trit ReferenceCompare(double lhs, simd::CmpOp op, double rhs) {
  switch (op) {
    case simd::CmpOp::kEq: return lhs == rhs ? simd::kTrue : simd::kFalse;
    case simd::CmpOp::kNe: return lhs != rhs ? simd::kTrue : simd::kFalse;
    // Legacy trichotomy: NaN is neither < nor >, so it lands in "equal".
    case simd::CmpOp::kLt: return lhs < rhs ? simd::kTrue : simd::kFalse;
    case simd::CmpOp::kLe: return !(lhs > rhs) ? simd::kTrue : simd::kFalse;
    case simd::CmpOp::kGt: return lhs > rhs ? simd::kTrue : simd::kFalse;
    case simd::CmpOp::kGe: return !(lhs < rhs) ? simd::kTrue : simd::kFalse;
  }
  return simd::kNull;
}

TEST(SimdKernelTest, CompareKernelsMatchLegacySemantics) {
  Rng rng(13);
  const simd::CmpOp kOps[] = {simd::CmpOp::kEq, simd::CmpOp::kNe,
                              simd::CmpOp::kLt, simd::CmpOp::kLe,
                              simd::CmpOp::kGt, simd::CmpOp::kGe};
  for (const bool force_scalar : {false, true}) {
    simd::SetForceScalar(force_scalar);
    for (int trial = 0; trial < 10; ++trial) {
      const size_t n = 1 + rng.NextUint64() % 150;
      I64Batch b = MakeI64Batch(rng, n, trial % 2 == 1, false, true);
      std::vector<double> f;
      for (size_t i = 0; i < n; ++i) {
        f.push_back(rng.Bernoulli(0.1)
                        ? std::numeric_limits<double>::quiet_NaN()
                        : rng.NextDouble() * 10.0 - 5.0);
      }
      const int64_t irhs = 3;
      const double drhs = 0.25;
      std::vector<simd::Trit> out(n);
      for (simd::CmpOp op : kOps) {
        simd::CompareI64WithI64(b.v.data(), n, b.null_words(), b.bit0, op,
                                irhs, out.data());
        for (size_t i = 0; i < n; ++i) {
          simd::Trit expect = simd::kNull;
          if (!b.null_at(i)) {
            // Same-type =/<> is exact int equality; ordering widens.
            if (op == simd::CmpOp::kEq) {
              expect = b.v[i] == irhs ? simd::kTrue : simd::kFalse;
            } else if (op == simd::CmpOp::kNe) {
              expect = b.v[i] != irhs ? simd::kTrue : simd::kFalse;
            } else {
              expect = ReferenceCompare(static_cast<double>(b.v[i]), op,
                                        static_cast<double>(irhs));
            }
          }
          ASSERT_EQ(expect, out[i]) << "i64i64 op=" << static_cast<int>(op)
                                    << " i=" << i;
        }
        simd::CompareI64WithF64(b.v.data(), n, b.null_words(), b.bit0, op,
                                drhs, out.data());
        for (size_t i = 0; i < n; ++i) {
          const simd::Trit expect =
              b.null_at(i)
                  ? simd::kNull
                  : ReferenceCompare(static_cast<double>(b.v[i]), op, drhs);
          ASSERT_EQ(expect, out[i]) << "i64f64 op=" << static_cast<int>(op);
        }
        simd::CompareF64(f.data(), n, nullptr, 0, op, drhs, out.data());
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(ReferenceCompare(f[i], op, drhs), out[i])
              << "f64 op=" << static_cast<int>(op) << " i=" << i;
        }
      }
    }
  }
  simd::SetForceScalar(false);
}

TEST(SimdKernelTest, TritLogicIsKleene) {
  const simd::Trit vals[] = {simd::kFalse, simd::kTrue, simd::kNull};
  for (simd::Trit a : vals) {
    for (simd::Trit b : vals) {
      simd::Trit and_out, or_out;
      simd::TritAnd(&a, &b, 1, &and_out);
      simd::TritOr(&a, &b, 1, &or_out);
      // Kleene: false dominates AND, true dominates OR, else null taints.
      const simd::Trit expect_and =
          (a == simd::kFalse || b == simd::kFalse)
              ? simd::kFalse
              : (a == simd::kNull || b == simd::kNull ? simd::kNull
                                                      : simd::kTrue);
      const simd::Trit expect_or =
          (a == simd::kTrue || b == simd::kTrue)
              ? simd::kTrue
              : (a == simd::kNull || b == simd::kNull ? simd::kNull
                                                      : simd::kFalse);
      EXPECT_EQ(expect_and, and_out);
      EXPECT_EQ(expect_or, or_out);
    }
    simd::Trit not_out;
    simd::TritNot(&a, 1, &not_out);
    EXPECT_EQ(a == simd::kNull
                  ? simd::kNull
                  : (a == simd::kTrue ? simd::kFalse : simd::kTrue),
              not_out);
  }
}

TEST(SimdKernelTest, GuardFallbackCountsPastExactRange) {
  simd::ResetKernelStats();
  std::vector<int64_t> v(64, int64_t{1} << 51);
  const simd::SumResult r = simd::SumI64(v.data(), v.size(), nullptr, 0,
                                         nullptr);
  // 64 * 2^51 blows the 2^52 |value| guard partway through; the kernel must
  // restart sequentially and still produce the legacy double fold.
  double expect = 0.0;
  for (int64_t x : v) expect += static_cast<double>(x);
  EXPECT_EQ(std::memcmp(&expect, &r.sum, sizeof(double)), 0);
  EXPECT_EQ(r.nonnull, 64);
  EXPECT_GE(simd::GetKernelStats().guard_fallbacks, 1u);
}

}  // namespace
}  // namespace esp::stream
