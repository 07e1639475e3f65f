#include "stream/window.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace esp::stream {
namespace {

SchemaRef ReadingSchema() {
  return MakeSchema({{"id", DataType::kInt64}});
}

Tuple MakeReading(const SchemaRef& schema, int64_t id, double seconds) {
  return Tuple(schema, {Value::Int64(id)}, Timestamp::Seconds(seconds));
}

TEST(WindowSpecTest, RangeOfZeroIsNow) {
  EXPECT_EQ(WindowSpec::Range(Duration::Zero()).kind, WindowKind::kNow);
  EXPECT_EQ(WindowSpec::Range(Duration::Seconds(5)).kind, WindowKind::kRange);
}

TEST(WindowSpecTest, ToString) {
  EXPECT_EQ(WindowSpec::Range(Duration::Seconds(5)).ToString(),
            "[Range By '5s']");
  EXPECT_EQ(WindowSpec::Now().ToString(), "[Range By 'NOW']");
  EXPECT_EQ(WindowSpec::Rows(10).ToString(), "[Rows 10]");
}

TEST(WindowBufferTest, RangeWindowContents) {
  SchemaRef schema = ReadingSchema();
  WindowBuffer buffer(WindowSpec::Range(Duration::Seconds(5)), schema);
  for (int i = 0; i <= 10; ++i) {
    ASSERT_TRUE(buffer.Insert(MakeReading(schema, i, i)).ok());
  }
  // Window at t=10 covers (5, 10]: ids 6..10.
  Relation snapshot = buffer.Snapshot(Timestamp::Seconds(10));
  ASSERT_EQ(snapshot.size(), 5u);
  EXPECT_EQ(snapshot.tuple(0).value(0).int64_value(), 6);
  EXPECT_EQ(snapshot.tuple(4).value(0).int64_value(), 10);
}

TEST(WindowBufferTest, RangeWindowLowerBoundIsExclusive) {
  SchemaRef schema = ReadingSchema();
  WindowBuffer buffer(WindowSpec::Range(Duration::Seconds(5)), schema);
  ASSERT_TRUE(buffer.Insert(MakeReading(schema, 1, 5.0)).ok());
  ASSERT_TRUE(buffer.Insert(MakeReading(schema, 2, 5.000001)).ok());
  Relation snapshot = buffer.Snapshot(Timestamp::Seconds(10));
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot.tuple(0).value(0).int64_value(), 2);
}

TEST(WindowBufferTest, SnapshotIgnoresFutureTuples) {
  SchemaRef schema = ReadingSchema();
  WindowBuffer buffer(WindowSpec::Range(Duration::Seconds(5)), schema);
  ASSERT_TRUE(buffer.Insert(MakeReading(schema, 1, 1.0)).ok());
  ASSERT_TRUE(buffer.Insert(MakeReading(schema, 2, 4.0)).ok());
  Relation snapshot = buffer.Snapshot(Timestamp::Seconds(2));
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot.tuple(0).value(0).int64_value(), 1);
}

TEST(WindowBufferTest, NowWindow) {
  SchemaRef schema = ReadingSchema();
  WindowBuffer buffer(WindowSpec::Now(), schema);
  ASSERT_TRUE(buffer.Insert(MakeReading(schema, 1, 1.0)).ok());
  ASSERT_TRUE(buffer.Insert(MakeReading(schema, 2, 2.0)).ok());
  ASSERT_TRUE(buffer.Insert(MakeReading(schema, 3, 2.0)).ok());
  Relation snapshot = buffer.Snapshot(Timestamp::Seconds(2));
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot.tuple(0).value(0).int64_value(), 2);
  EXPECT_EQ(snapshot.tuple(1).value(0).int64_value(), 3);
}

TEST(WindowBufferTest, RowsWindow) {
  SchemaRef schema = ReadingSchema();
  WindowBuffer buffer(WindowSpec::Rows(3), schema);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(buffer.Insert(MakeReading(schema, i, i)).ok());
  }
  Relation snapshot = buffer.Snapshot(Timestamp::Seconds(9));
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot.tuple(0).value(0).int64_value(), 7);
  EXPECT_EQ(snapshot.tuple(2).value(0).int64_value(), 9);
}

TEST(WindowBufferTest, UnboundedWindow) {
  SchemaRef schema = ReadingSchema();
  WindowBuffer buffer(WindowSpec::Unbounded(), schema);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(buffer.Insert(MakeReading(schema, i, i)).ok());
  }
  EXPECT_EQ(buffer.Snapshot(Timestamp::Seconds(100)).size(), 5u);
  EXPECT_EQ(buffer.Snapshot(Timestamp::Seconds(2)).size(), 3u);
}

TEST(WindowBufferTest, RejectsOutOfOrderInserts) {
  SchemaRef schema = ReadingSchema();
  WindowBuffer buffer(WindowSpec::Range(Duration::Seconds(5)), schema);
  ASSERT_TRUE(buffer.Insert(MakeReading(schema, 1, 5.0)).ok());
  Status status = buffer.Insert(MakeReading(schema, 2, 4.0));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // Equal timestamps are fine.
  EXPECT_TRUE(buffer.Insert(MakeReading(schema, 3, 5.0)).ok());
}

TEST(WindowBufferTest, EvictBeforeDropsDeadTuplesOnly) {
  SchemaRef schema = ReadingSchema();
  WindowBuffer buffer(WindowSpec::Range(Duration::Seconds(5)), schema);
  for (int i = 0; i <= 10; ++i) {
    ASSERT_TRUE(buffer.Insert(MakeReading(schema, i, i)).ok());
  }
  buffer.EvictBefore(Timestamp::Seconds(10));
  // Tuples with ts <= 5 are dead; 6..10 remain.
  EXPECT_EQ(buffer.buffered(), 5u);
  Relation snapshot = buffer.Snapshot(Timestamp::Seconds(10));
  EXPECT_EQ(snapshot.size(), 5u);
}

TEST(WindowBufferTest, EvictionNeverChangesFutureSnapshots) {
  // Property: for random insert/evict sequences, evicting at time t must not
  // alter the snapshot at any time >= t.
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    SchemaRef schema = ReadingSchema();
    WindowBuffer with_evict(WindowSpec::Range(Duration::Seconds(3)), schema);
    WindowBuffer without_evict(WindowSpec::Range(Duration::Seconds(3)),
                               schema);
    double t = 0;
    for (int i = 0; i < 100; ++i) {
      t += rng.Uniform(0.0, 1.0);
      Tuple tuple = MakeReading(schema, i, t);
      ASSERT_TRUE(with_evict.Insert(tuple).ok());
      ASSERT_TRUE(without_evict.Insert(tuple).ok());
      if (rng.Bernoulli(0.3)) {
        with_evict.EvictBefore(Timestamp::Seconds(t));
      }
      Relation a = with_evict.Snapshot(Timestamp::Seconds(t));
      Relation b = without_evict.Snapshot(Timestamp::Seconds(t));
      ASSERT_EQ(a.size(), b.size()) << "trial " << trial << " step " << i;
      for (size_t k = 0; k < a.size(); ++k) {
        ASSERT_TRUE(a.tuple(k).Equals(b.tuple(k)));
      }
    }
  }
}

TEST(WindowBufferTest, RowsEvictionKeepsExactlyN) {
  SchemaRef schema = ReadingSchema();
  WindowBuffer buffer(WindowSpec::Rows(4), schema);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(buffer.Insert(MakeReading(schema, i, i)).ok());
    buffer.EvictBefore(Timestamp::Seconds(i));
  }
  EXPECT_EQ(buffer.buffered(), 4u);
}

TEST(WindowBufferTest, SnapshotCacheRebuildsOncePerMutation) {
  // Re-reading the snapshot at the same instant is served from the cache,
  // and a mutation costs at most one rebuild however often it is re-read.
  SchemaRef schema = ReadingSchema();
  WindowBuffer buffer(WindowSpec::Range(Duration::Seconds(5)), schema);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(buffer.Insert(MakeReading(schema, i, i)).ok());
  }

  const Timestamp t = Timestamp::Seconds(9);
  (void)buffer.Snapshot(t);
  const size_t snap_after_first = buffer.snapshot_rebuilds();
  (void)buffer.Snapshot(t);
  (void)buffer.Snapshot(t);
  EXPECT_EQ(buffer.snapshot_rebuilds(), snap_after_first);

  ASSERT_TRUE(buffer.Insert(MakeReading(schema, 10, 10)).ok());
  const Timestamp t2 = Timestamp::Seconds(10);
  (void)buffer.Snapshot(t2);
  (void)buffer.Snapshot(t2);
  EXPECT_EQ(buffer.snapshot_rebuilds(), snap_after_first + 1);
}

TEST(WindowBufferTest, GenerationCounterGuardsInterleavedReaders) {
  // Regression for shared-window serving: two plans read one buffer within
  // a tick, and a mutation can land between their reads (another stream's
  // push, a mid-tick registration). Each mutation must bump the generation
  // counter so the second reader's snapshot is rebuilt rather than served
  // from a cache built before the mutation.
  SchemaRef schema = ReadingSchema();
  WindowBuffer buffer(WindowSpec::Range(Duration::Seconds(100)), schema);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(buffer.Insert(MakeReading(schema, i, i)).ok());
  }

  const Timestamp t = Timestamp::Seconds(50);
  // Reader one: builds the row snapshot.
  EXPECT_EQ(buffer.Snapshot(t).size(), 4u);
  const uint64_t before = buffer.generation();

  // Interleaved mutation between the two readers.
  ASSERT_TRUE(buffer.Insert(MakeReading(schema, 4, 10)).ok());
  EXPECT_GT(buffer.generation(), before);

  // Reader two, same tick instant: must see the mutation, not the
  // reader-one cache.
  Relation snapshot = buffer.Snapshot(t);
  ASSERT_EQ(snapshot.size(), 5u);
  EXPECT_EQ(snapshot.tuple(4).value(0).int64_value(), 4);

  // Eviction that removes tuples is a mutation too; a no-op pass is not.
  const uint64_t after_insert = buffer.generation();
  buffer.EvictBefore(Timestamp::Seconds(1));  // Range covers everything.
  EXPECT_EQ(buffer.generation(), after_insert);
  WindowBuffer rows(WindowSpec::Rows(2), schema);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(rows.Insert(MakeReading(schema, i, i)).ok());
  }
  const uint64_t rows_before = rows.generation();
  rows.EvictBefore(Timestamp::Seconds(3));
  EXPECT_GT(rows.generation(), rows_before);
  EXPECT_EQ(rows.Snapshot(Timestamp::Seconds(3)).size(), 2u);
}

}  // namespace
}  // namespace esp::stream
