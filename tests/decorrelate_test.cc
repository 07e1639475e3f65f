// Randomized differential test of equi-correlated subquery decorrelation
// (cql/decorrelate.h). Every admitted shape must give, tick after tick over
// the same plan cache, bit for bit the nested path's relation (compared
// through stream::WriteTuple) or the very same Status. Declined shapes must
// run nested and say why. The paper's Arbitrate shapes must take the
// decorrelated path on every tick.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/stage.h"
#include "core/toolkit.h"
#include "cql/continuous_query.h"
#include "cql/decorrelate.h"
#include "cql/expr_eval.h"
#include "cql/parser.h"
#include "stream/column.h"
#include "stream/serialize.h"

namespace esp::cql {
namespace {

using stream::DataType;
using stream::Relation;
using stream::SchemaRef;
using stream::Tuple;
using stream::Value;

constexpr int kTicks = 12;
constexpr int kKeys = 6;
constexpr const char* kGranules[] = {"g0", "g1", "g2"};

/// One random stream `s(g, k, c, d)` over kTicks instants: granule, key,
/// count and divisor. Keys include NULLs; for string keys each row picks an
/// interned or a plain string at random. Counts come from a small domain,
/// so maxima tie across granules. `d` is zero only on rows of key 0, which
/// lets a query fail on rows no outer key asks for.
struct World {
  DataType key_type = DataType::kString;
  DataType count_type = DataType::kInt64;
  SchemaRef schema;
  Relation history;
  stream::ColumnarWindow columns;
  Catalog catalog;

  Value Key(int i, Rng& rng) const {
    switch (key_type) {
      case DataType::kString: {
        const std::string name = std::string("k").append(std::to_string(i));
        return rng.Bernoulli(0.5) ? Value::Interned(name) : Value::String(name);
      }
      case DataType::kDouble:
        return Value::Double(i * 1.5);
      default:
        return Value::Int64(i);
    }
  }

  /// The CQL literal for key 0.
  std::string Key0() const {
    switch (key_type) {
      case DataType::kString:
        return "'k0'";
      case DataType::kDouble:
        return "0.0";
      default:
        return "0";
    }
  }
};

std::unique_ptr<World> MakeWorld(DataType key_type, DataType count_type,
                                 bool columnar, uint64_t seed) {
  auto world = std::make_unique<World>();
  world->key_type = key_type;
  world->count_type = count_type;
  world->schema = stream::MakeSchema({{"g", DataType::kString},
                                      {"k", key_type},
                                      {"c", count_type},
                                      {"d", DataType::kInt64}});
  world->history = Relation(world->schema);
  world->columns.Reset(world->schema);
  Rng rng(seed);
  for (int t = 1; t <= kTicks; ++t) {
    for (const char* granule : kGranules) {
      for (int k = 0; k < kKeys; ++k) {
        if (!rng.Bernoulli(0.55)) continue;
        const Value key = rng.Bernoulli(0.08) ? Value::Null() : world->Key(k, rng);
        const int64_t n = rng.UniformInt(0, 3);
        Value count = count_type == DataType::kDouble
                          ? Value::Double(0.1 * static_cast<double>(n) + 0.2)
                          : Value::Int64(n);
        if (rng.Bernoulli(0.05)) count = Value::Null();
        const int64_t divisor =
            k == 0 && rng.Bernoulli(0.3) ? 0 : rng.UniformInt(1, 3);
        Tuple tuple(world->schema,
                    {Value::String(granule), key, count, Value::Int64(divisor)},
                    Timestamp::Seconds(t));
        world->columns.Append(tuple);
        world->history.Add(std::move(tuple));
      }
    }
  }
  if (columnar) {
    world->catalog.AddStreamView("s", &world->history, &world->columns);
  } else {
    world->catalog.AddStreamView("s", &world->history);
  }
  return world;
}

/// The relation's bytes, or the status text when evaluation failed.
std::string Bits(const StatusOr<Relation>& result) {
  if (!result.ok()) return "error: " + result.status().ToString();
  ByteWriter w;
  for (const Tuple& tuple : result->tuples()) stream::WriteTuple(w, tuple);
  return w.data();
}

std::string Substitute(std::string text, const std::string& from,
                       const std::string& to) {
  for (size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
  }
  return text;
}

/// Runs `text` on every tick through both paths, each with its own plan
/// cache reused across ticks, and expects identical bits. Returns the
/// decorrelated run's path stats.
SubqueryPathStats ExpectSameEveryTick(const World& world,
                                      const std::string& text) {
  auto query = ParseQuery(text);
  EXPECT_TRUE(query.ok()) << text << ": " << query.status();
  if (!query.ok()) return {};
  QueryExecCache decorrelated;
  QueryExecCache nested;
  for (int t = 1; t <= kTicks; ++t) {
    const Timestamp now = Timestamp::Seconds(t);
    const std::string want = Bits(
        internal::ExecuteQuery(**query, world.catalog, now, &nested, {false}));
    const std::string got = Bits(internal::ExecuteQuery(
        **query, world.catalog, now, &decorrelated, {true}));
    EXPECT_EQ(got, want) << text << " at t=" << t;
  }
  EXPECT_EQ(nested.subquery_paths().decorrelated_runs, 0) << text;
  return decorrelated.subquery_paths();
}

/// Admitted shapes: `%OP%`, `%Q%` and `%K0%` are substituted per case.
const std::vector<std::string>& AdmittedShapes() {
  static const std::vector<std::string> shapes = {
      // Query 3 and its quantifier / operator variants.
      "SELECT g, k, max(c) AS c FROM s a1 [Range By 'NOW'] GROUP BY g, k "
      "HAVING max(c) %OP% %Q%(SELECT max(c) FROM s a2 [Range By 'NOW'] "
      "WHERE a1.k = a2.k GROUP BY g)",
      // Order-sensitive floating point: the sums must match to the bit.
      "SELECT g, k, sum(c) AS total FROM s a1 [Range By 'NOW'] GROUP BY g, k "
      "HAVING avg(c) %OP% %Q%(SELECT avg(c) FROM s a2 [Range By '3 sec'] "
      "WHERE a2.k = a1.k GROUP BY g)",
      "SELECT g, k FROM s a1 [Range By 'NOW'] GROUP BY g, k "
      "HAVING count(*) %OP% %Q%(SELECT count(*) FROM s a2 [Range By 'NOW'] "
      "WHERE a1.k = a2.k GROUP BY g)",
      // The key conjunct among others, not first.
      "SELECT g, k, max(c) AS c FROM s a1 [Range By 'NOW'] GROUP BY g, k "
      "HAVING max(c) %OP% %Q%(SELECT max(c) FROM s a2 [Range By 'NOW'] "
      "WHERE a2.c > 0 AND (a2.g <> 'g2' OR a2.d > 1) AND k = a1.k "
      "GROUP BY g HAVING count(*) > 0)",
      // Outer WHERE position, non-aggregated outer.
      "SELECT g, k, c FROM s a1 [Range By 'NOW'] WHERE c %OP% %Q%"
      "(SELECT c FROM s a2 [Range By '2 sec'] WHERE a2.k = a1.k)",
      // IN / NOT IN, EXISTS / NOT EXISTS, scalar.
      "SELECT g, k, c FROM s a1 [Range By 'NOW'] WHERE c IN "
      "(SELECT max(c) FROM s a2 [Range By 'NOW'] WHERE a2.k = a1.k "
      "GROUP BY g)",
      "SELECT g, k, c FROM s a1 [Range By 'NOW'] WHERE c NOT IN "
      "(SELECT min(c) FROM s a2 [Range By '4 sec'] WHERE a2.k = a1.k "
      "GROUP BY g)",
      "SELECT g, k, c FROM s a1 [Range By 'NOW'] WHERE EXISTS "
      "(SELECT g FROM s a2 [Range By 'NOW'] WHERE a2.k = a1.k AND a2.c > 2)",
      "SELECT g, k FROM s a1 [Range By 'NOW'] GROUP BY g, k HAVING NOT EXISTS "
      "(SELECT * FROM s a2 [Range By '2 sec'] WHERE a1.k = a2.k "
      "AND a2.g = 'g1')",
      "SELECT g, k, (SELECT sum(c) FROM s a2 [Range By 'NOW'] "
      "WHERE a2.k = a1.k GROUP BY k) AS total FROM s a1 [Range By 'NOW']",
      // Error parity: several rows per key make the scalar subquery fail.
      "SELECT g, k, (SELECT max(c) FROM s a2 [Range By 'NOW'] "
      "WHERE a2.k = a1.k GROUP BY g) AS top FROM s a1 [Range By 'NOW']",
      // Error parity: division by zero on key-0 rows, sometimes only on
      // rows the nested run never evaluates.
      "SELECT g, k, max(c) AS c FROM s a1 [Range By 'NOW'] GROUP BY g, k "
      "HAVING max(c) %OP% %Q%(SELECT max(c) FROM s a2 [Range By 'NOW'] "
      "WHERE a1.k = a2.k AND 6 / a2.d > 1 GROUP BY g)",
      "SELECT g, k, max(c) AS c FROM s a1 [Range By 'NOW'] WHERE k <> %K0% "
      "GROUP BY g, k HAVING max(c) %OP% %Q%(SELECT max(c) FROM s a2 "
      "[Range By 'NOW'] WHERE a1.k = a2.k AND 6 / a2.d > 1 GROUP BY g)",
  };
  return shapes;
}

struct WorldCase {
  DataType key_type;
  DataType count_type;
  bool columnar;
};

class DecorrelateDifferentialTest : public ::testing::TestWithParam<WorldCase> {
};

TEST_P(DecorrelateDifferentialTest, RewriteMatchesNestedBitwise) {
  const WorldCase& param = GetParam();
  int64_t decorrelated_runs = 0;
  bool saw_error_fallback = false;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const auto world =
        MakeWorld(param.key_type, param.count_type, param.columnar, seed);
    for (const std::string& shape : AdmittedShapes()) {
      const bool quantified = shape.find("%OP%") != std::string::npos;
      const std::vector<std::string> ops =
          quantified ? std::vector<std::string>{">=", ">", "=", "<>"}
                     : std::vector<std::string>{""};
      const std::vector<std::string> quantifiers =
          quantified ? std::vector<std::string>{"ALL", "ANY"}
                     : std::vector<std::string>{""};
      for (const std::string& op : ops) {
        for (const std::string& quantifier : quantifiers) {
          std::string text = Substitute(shape, "%OP%", op);
          text = Substitute(text, "%Q%", quantifier);
          text = Substitute(text, "%K0%", world->Key0());
          const SubqueryPathStats stats = ExpectSameEveryTick(*world, text);
          decorrelated_runs += stats.decorrelated_runs;
          if (stats.first_decline.find("one-shot run failed") !=
              std::string::npos) {
            saw_error_fallback = true;
          } else {
            EXPECT_EQ(stats.first_decline, "") << text;
          }
        }
      }
    }
  }
  EXPECT_GT(decorrelated_runs, 0);
  EXPECT_TRUE(saw_error_fallback);
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, DecorrelateDifferentialTest,
    ::testing::Values(WorldCase{DataType::kString, DataType::kInt64, false},
                      WorldCase{DataType::kString, DataType::kDouble, true},
                      WorldCase{DataType::kInt64, DataType::kInt64, true},
                      WorldCase{DataType::kInt64, DataType::kDouble, false}),
    [](const ::testing::TestParamInfo<WorldCase>& info) {
      return std::string(stream::DataTypeToString(info.param.key_type)) +
             "Keys_" + stream::DataTypeToString(info.param.count_type) +
             "Counts_" + (info.param.columnar ? "Columnar" : "Rows");
    });

TEST(DecorrelateTest, DeclinedShapesRunNested) {
  struct Case {
    DataType key_type;
    std::string subquery;
    std::string reason;
  };
  const std::vector<Case> cases = {
      {DataType::kDouble,
       "SELECT max(c) FROM s a2 [Range By 'NOW'] WHERE a1.k = a2.k "
       "GROUP BY g",
       "double"},
      {DataType::kString,
       "SELECT max(c) FROM s a2 [Range By 'NOW'] WHERE a1.k = a2.k "
       "AND a2.g <> a1.g GROUP BY g",
       "more than one outer reference"},
      {DataType::kString,
       "SELECT max(c) FROM s a2 [Range By 'NOW'] WHERE a1.k = a2.k "
       "GROUP BY g LIMIT 1",
       "LIMIT"},
      {DataType::kString,
       "SELECT max(a2.c) FROM s a2 [Range By 'NOW'], s a3 [Range By 'NOW'] "
       "WHERE a1.k = a2.k AND a2.g = a3.g GROUP BY a2.g",
       "single stream"},
      {DataType::kInt64,
       "SELECT max(c) FROM s a2 [Range By 'NOW'] WHERE a1.k = a2.k",
       "aggregate without GROUP BY"},
      {DataType::kInt64,
       "SELECT max(c) FROM s a2 [Range By 'NOW'] WHERE a1.k + 0 = a2.k "
       "GROUP BY g",
       "outside a top-level column = column"},
      {DataType::kString,
       "SELECT max(c) FROM s a2 [Range By 'NOW'] WHERE a1.k = a2.k "
       "OR a2.c > 2 GROUP BY g",
       "outside a top-level column = column"},
      {DataType::kString,
       "SELECT max(c) FROM s a2 [Range By 'NOW'] WHERE a1.g = a2.k "
       "GROUP BY g",
       ""},  // String = string on other columns: admitted.
      {DataType::kInt64,
       "SELECT max(c) FROM s a2 [Range By 'NOW'] WHERE a1.d = a2.k "
       "GROUP BY g",
       ""},  // int64 = int64 on other columns: admitted.
      {DataType::kString,
       "SELECT max(c) FROM s a2 [Range By 'NOW'] WHERE a1.d = a2.c "
       "GROUP BY g",
       ""},  // Both int64 here (integer counts).
      {DataType::kString,
       "SELECT max(c) FROM s a2 [Range By 'NOW'] WHERE a1.k = a2.d "
       "GROUP BY g",
       "types differ"},
      {DataType::kString,
       "SELECT max(c) FROM s a2 [Range By 'NOW'] WHERE a1.k = a2.k AND "
       "a2.c IN (SELECT c FROM s a3) GROUP BY g",
       "nested subquery"},
  };
  for (const Case& c : cases) {
    const auto world = MakeWorld(c.key_type, DataType::kInt64, true, 7);
    const std::string text =
        "SELECT g, k, max(c) AS c FROM s a1 [Range By 'NOW'] GROUP BY g, k "
        "HAVING max(c) >= ALL(" + c.subquery + ")";
    const SubqueryPathStats stats = ExpectSameEveryTick(*world, text);
    if (c.reason.empty()) {
      EXPECT_GT(stats.decorrelated_runs, 0) << text;
      EXPECT_EQ(stats.nested_runs, 0) << text;
      EXPECT_EQ(stats.first_decline, "") << text;
    } else {
      EXPECT_EQ(stats.decorrelated_runs, 0) << text;
      EXPECT_GT(stats.nested_runs, 0) << text;
      EXPECT_NE(stats.first_decline.find(c.reason), std::string::npos)
          << text << ": " << stats.first_decline;
    }
  }
}

TEST(DecorrelateTest, RewriteDropsTheConjunctAndPrependsTheKey) {
  auto query = ParseQuery(
      "SELECT max(c) FROM s a2 WHERE a2.c > 1 AND a1.k = a2.k AND a2.d < 3 "
      "GROUP BY g");
  ASSERT_TRUE(query.ok());
  SchemaCatalog catalog;
  const SchemaRef schema = stream::MakeSchema({{"g", DataType::kString},
                                               {"k", DataType::kString},
                                               {"c", DataType::kInt64},
                                               {"d", DataType::kInt64}});
  catalog.AddStream("s", schema);
  AnalysisScope outer;
  outer.frames.push_back({"a1", schema});
  auto rewrite = PlanDecorrelation(**query, outer, catalog);
  ASSERT_TRUE(rewrite.ok()) << rewrite.status();
  EXPECT_EQ(rewrite->rewritten->ToString(),
            "SELECT a2.k, max(c) FROM s a2 WHERE ((a2.c > 1) AND "
            "(a2.d < 3)) GROUP BY a2.k, g");
  EXPECT_EQ(rewrite->outer_key->ToString(), "a1.k");
  EXPECT_EQ(rewrite->key_type, DataType::kString);
  EXPECT_EQ(rewrite->value_columns, 1u);
  // The original is untouched: the nested path still runs it.
  EXPECT_NE((*query)->ToString().find("a1.k = a2.k"), std::string::npos);
}

/// The Arbitrate shapes the repository ships: the toolkit's
/// ArbitrateMaxCount, the count(*) form of Query 3 the engine benchmarks
/// parse, and the max(reads) form the examples deploy.
std::vector<std::string> ShippedArbitrateQueries() {
  auto stage = core::ArbitrateMaxCount("tag_id", "reads")();
  EXPECT_TRUE(stage.ok());
  const auto* cql_stage = dynamic_cast<const core::CqlStage*>(stage->get());
  EXPECT_NE(cql_stage, nullptr);
  return {
      cql_stage->query_text(),
      "SELECT spatial_granule, tag_id FROM arbitrate_input ai1 "
      "[Range By 'NOW'] GROUP BY spatial_granule, tag_id "
      "HAVING count(*) >= ALL(SELECT count(*) FROM arbitrate_input ai2 "
      "[Range By 'NOW'] WHERE ai1.tag_id = ai2.tag_id "
      "GROUP BY spatial_granule)",
      "SELECT spatial_granule, tag_id, max(reads) AS reads "
      "FROM arbitrate_input ai1 [Range By 'NOW'] "
      "GROUP BY spatial_granule, tag_id "
      "HAVING max(reads) >= ALL(SELECT max(reads) "
      "FROM arbitrate_input ai2 [Range By 'NOW'] "
      "WHERE ai1.tag_id = ai2.tag_id GROUP BY spatial_granule)",
  };
}

TEST(DecorrelateTest, ShippedArbitrateShapesDecorrelateEveryTick) {
  const SchemaRef schema =
      stream::MakeSchema({{"spatial_granule", DataType::kString},
                          {"tag_id", DataType::kString},
                          {"reads", DataType::kInt64}});
  SchemaCatalog schemas;
  schemas.AddStream("arbitrate_input", schema);
  for (const std::string& text : ShippedArbitrateQueries()) {
    auto query = ContinuousQuery::Create(text, schemas);
    ASSERT_TRUE(query.ok()) << text << ": " << query.status();
    auto ast = ParseQuery(text);
    ASSERT_TRUE(ast.ok());
    Relation history(schema);
    Rng rng(99);
    for (int t = 1; t <= 40; ++t) {
      const Timestamp now = Timestamp::Micros(200000 * t);
      for (const char* granule : {"shelf_0", "shelf_1", "shelf_2"}) {
        for (int tag = 0; tag < 12; ++tag) {
          if (!rng.Bernoulli(0.6)) continue;
          Tuple tuple(schema,
                      {Value::Interned(granule),
                       Value::Interned("tag_" + std::to_string(tag)),
                       Value::Int64(rng.UniformInt(1, 4))},
                      now);
          history.Add(tuple);
          ASSERT_TRUE((*query)->Push("arbitrate_input", std::move(tuple)).ok());
        }
      }
      auto got = (*query)->Evaluate(now);
      Catalog catalog;
      catalog.AddStreamView("arbitrate_input", &history);
      QueryExecCache nested;
      const std::string want =
          Bits(internal::ExecuteQuery(**ast, catalog, now, &nested, {false}));
      EXPECT_EQ(Bits(got), want) << text << " at tick " << t;
      const SubqueryPathStats stats = (*query)->subquery_paths();
      EXPECT_EQ(stats.decorrelated_runs, t) << text;
      EXPECT_EQ(stats.nested_runs, 0) << text;
      EXPECT_EQ(stats.first_decline, "") << text;
    }
  }
}

TEST(DecorrelateTest, CacheLessExecutionRunsNested) {
  const auto world = MakeWorld(DataType::kString, DataType::kInt64, false, 3);
  auto query = ParseQuery(
      "SELECT g, k FROM s a1 [Range By 'NOW'] GROUP BY g, k "
      "HAVING count(*) >= ALL(SELECT count(*) FROM s a2 [Range By 'NOW'] "
      "WHERE a1.k = a2.k GROUP BY g)");
  ASSERT_TRUE(query.ok());
  QueryExecCache nested;
  for (int t = 1; t <= kTicks; ++t) {
    const Timestamp now = Timestamp::Seconds(t);
    EXPECT_EQ(Bits(ExecuteQuery(**query, world->catalog, now)),
              Bits(internal::ExecuteQuery(**query, world->catalog, now,
                                          &nested, {false})));
  }
}

}  // namespace
}  // namespace esp::cql
