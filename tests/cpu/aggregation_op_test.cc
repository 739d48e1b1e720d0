#include <gtest/gtest.h>

#include <limits>
#include <type_traits>

#include "reference/reference.h"
#include "test_util.h"

namespace saber {
namespace {

using testing::BuffersEqual;
using testing::MakeStream;
using testing::RandomStream;
using testing::RunSingleInput;

Schema SynSchema() {
  return Schema::MakeStream({{"v", DataType::kFloat},
                             {"k", DataType::kInt32},
                             {"k2", DataType::kInt32}});
}

TEST(AggregationOp, TumblingCountSum) {
  Schema s = SynSchema();
  QueryDef q = QueryBuilder("aggsum", s)
                   .Window(WindowDefinition::Count(4, 4))
                   .Aggregate(AggregateFunction::kSum, Col(s, "v"), "total")
                   .Build();
  auto op = MakeCpuOperator(&q);
  // 4 windows of 4 tuples with v = 1..16: sums 10, 26, 42, 58.
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 16; ++i) {
    rows.push_back({static_cast<double>(i), static_cast<double>(i + 1), 0, 0});
  }
  auto stream = MakeStream(s, rows);
  ByteBuffer got = RunSingleInput(*op, q, stream, 5);
  ASSERT_EQ(got.size(), 4 * q.output_schema.tuple_size());
  const double expect[] = {10, 26, 42, 58};
  for (int i = 0; i < 4; ++i) {
    TupleRef r(got.data() + i * q.output_schema.tuple_size(), &q.output_schema);
    EXPECT_DOUBLE_EQ(r.GetDouble(1), expect[i]) << i;
    EXPECT_EQ(r.timestamp(), 4 * i + 3);  // max ts in window
  }
}

TEST(AggregationOp, SlidingCountWindow) {
  Schema s = SynSchema();
  QueryDef q = QueryBuilder("slide", s)
                   .Window(WindowDefinition::Count(6, 2))
                   .Aggregate(AggregateFunction::kAvg, Col(s, "v"), "a")
                   .Build();
  auto op = MakeCpuOperator(&q);
  auto stream = RandomStream(s, 100, 7);
  ByteBuffer want = ReferenceEvaluate(q, stream);
  ByteBuffer got = RunSingleInput(*op, q, stream, 9);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
}

TEST(AggregationOp, TimeWindowsWithGaps) {
  Schema s = SynSchema();
  QueryDef q = QueryBuilder("time", s)
                   .Window(WindowDefinition::Time(10, 3))
                   .Aggregate(AggregateFunction::kSum, Col(s, "v"), "t")
                   .Build();
  auto op = MakeCpuOperator(&q);
  // Timestamps with large gaps (sparse stream).
  auto stream = RandomStream(s, 150, 8, /*max_ts_gap=*/9);
  ByteBuffer want = ReferenceEvaluate(q, stream);
  ByteBuffer got = RunSingleInput(*op, q, stream, 11);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
}

TEST(AggregationOp, MinMaxUsesMergePath) {
  Schema s = SynSchema();
  QueryDef q = QueryBuilder("minmax", s)
                   .Window(WindowDefinition::Count(8, 3))
                   .Aggregate(AggregateFunction::kMin, Col(s, "v"), "lo")
                   .Aggregate(AggregateFunction::kMax, Col(s, "v"), "hi")
                   .Build();
  auto op = MakeCpuOperator(&q);
  auto stream = RandomStream(s, 120, 9);
  ByteBuffer want = ReferenceEvaluate(q, stream);
  ByteBuffer got = RunSingleInput(*op, q, stream, 10);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
}

TEST(AggregationOp, WhereFilterInsideWindows) {
  Schema s = SynSchema();
  QueryDef q = QueryBuilder("filtered", s)
                   .Window(WindowDefinition::Count(5, 5))
                   .Where(Gt(Col(s, "k"), Lit(3)))
                   .Aggregate(AggregateFunction::kCount, nullptr, "n")
                   .Build();
  auto op = MakeCpuOperator(&q);
  auto stream = RandomStream(s, 200, 10);
  ByteBuffer want = ReferenceEvaluate(q, stream);
  ByteBuffer got = RunSingleInput(*op, q, stream, 12);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
}

TEST(AggregationOp, GroupByWithHaving) {
  Schema s = SynSchema();
  QueryDef q = QueryBuilder("grp", s)
                   .Window(WindowDefinition::Count(10, 5))
                   .GroupBy({Col(s, "k")})
                   .Aggregate(AggregateFunction::kSum, Col(s, "v"), "sv")
                   .Having(Gt(Col(s, "k") /*placeholder replaced below*/, Lit(-1)))
                   .Build();
  // Build HAVING over the *output* schema: sv > 8.
  q.having = Gt(Col(q.output_schema, "sv"), Lit(8.0));
  auto op = MakeCpuOperator(&q);
  auto stream = RandomStream(s, 300, 11);
  ByteBuffer want = ReferenceEvaluate(q, stream);
  ByteBuffer got = RunSingleInput(*op, q, stream, 17);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
  EXPECT_GT(got.size(), 0u);
}

TEST(AggregationOp, MultiKeyGroupBy) {
  Schema s = SynSchema();
  QueryDef q = QueryBuilder("grp2", s)
                   .Window(WindowDefinition::Time(8, 4))
                   .GroupBy({Col(s, "k"), Col(s, "k2")})
                   .Aggregate(AggregateFunction::kAvg, Col(s, "v"), "av")
                   .Aggregate(AggregateFunction::kCount, nullptr, "n")
                   .Build();
  auto op = MakeCpuOperator(&q);
  auto stream = RandomStream(s, 250, 12, /*max_ts_gap=*/2, /*attr_range=*/4);
  ByteBuffer want = ReferenceEvaluate(q, stream);
  ByteBuffer got = RunSingleInput(*op, q, stream, 21);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
}

TEST(AggregationOp, WindowLargerThanStreamEmitsNothing) {
  Schema s = SynSchema();
  QueryDef q = QueryBuilder("big", s)
                   .Window(WindowDefinition::Count(1000, 1000))
                   .Aggregate(AggregateFunction::kSum, Col(s, "v"), "t")
                   .Build();
  auto op = MakeCpuOperator(&q);
  auto stream = RandomStream(s, 50, 13);
  ByteBuffer got = RunSingleInput(*op, q, stream, 10);
  EXPECT_EQ(got.size(), 0u);  // window never closes
}

// A non-finite value must not poison the windows after it leaves: the
// running path cannot subtract inf (inf - inf is NaN), so it re-merges the
// window whose expiring pane is non-finite.
TEST(AggregationOp, NonFiniteValueLeavesRunningSum) {
  Schema s = SynSchema();
  QueryDef q = QueryBuilder("inf", s)
                   .Window(WindowDefinition::Time(2, 1))
                   .Aggregate(AggregateFunction::kSum, Col(s, "v"), "t")
                   .Build();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 6; ++i) {
    rows.push_back({static_cast<double>(i), i == 0 ? inf : 1.0, 0, 0});
  }
  auto stream = MakeStream(s, rows);
  ByteBuffer want = ReferenceEvaluate(q, stream);
  const size_t tsz = q.output_schema.tuple_size();
  ASSERT_EQ(want.size(), 4 * tsz);
  const double expect[] = {inf, 2, 2, 2};
  for (int i = 0; i < 4; ++i) {
    TupleRef r(want.data() + i * tsz, &q.output_schema);
    EXPECT_EQ(r.timestamp(), i + 1);
    EXPECT_EQ(r.GetDouble(1), expect[i]) << "window " << i;
  }
  ByteBuffer got = RunSingleInput(*MakeCpuOperator(&q), q, stream, 1);
  EXPECT_TRUE(BuffersEqual(got, want, tsz));
}

TEST(AggregationOp, NonFiniteValueLeavesRunningGroup) {
  Schema s = SynSchema();
  QueryDef q = QueryBuilder("inf_grp", s)
                   .Window(WindowDefinition::Time(2, 1))
                   .GroupBy({Col(s, "k")})
                   .Aggregate(AggregateFunction::kSum, Col(s, "v"), "t")
                   .Aggregate(AggregateFunction::kAvg, Col(s, "v"), "a")
                   .Build();
  const double inf = std::numeric_limits<double>::infinity();
  // Group 0 sees inf at ts 0 then 1s; group 1 sees 2s throughout.
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 6; ++i) {
    rows.push_back({static_cast<double>(i), i == 0 ? inf : 1.0, 0, 0});
    rows.push_back({static_cast<double>(i), 2.0, 1, 0});
  }
  auto stream = MakeStream(s, rows);
  ByteBuffer want = ReferenceEvaluate(q, stream);
  const size_t tsz = q.output_schema.tuple_size();
  ASSERT_EQ(want.size(), 8 * tsz);
  for (int i = 0; i < 4; ++i) {
    TupleRef g0(want.data() + 2 * i * tsz, &q.output_schema);
    EXPECT_EQ(g0.GetDouble(2), i == 0 ? inf : 2.0) << "window " << i;
    TupleRef g1(want.data() + (2 * i + 1) * tsz, &q.output_schema);
    EXPECT_EQ(g1.GetDouble(2), 4.0) << "window " << i;
  }
  for (size_t batch : {size_t{1}, size_t{2}, size_t{5}}) {
    ByteBuffer got = RunSingleInput(*MakeCpuOperator(&q), q, stream, batch);
    EXPECT_TRUE(BuffersEqual(got, want, tsz)) << "batch " << batch;
  }
}

// Grouped incremental assembly: the running group table (kAuto), the forced
// re-merge path and the reference model must agree byte for byte. The
// stream churns keys — groups leave the window and come back — and has
// stretches whose tuples a WHERE filters out entirely.
struct GroupedIncrementalCase {
  const char* label;
  WindowDefinition window;
  int agg_mix;  // 0: sum, 1: avg+count, 2: sum+avg+count
  bool where;
  bool having;
};

std::vector<uint8_t> ChurnStream(const Schema& s, int n) {
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < n; ++i) {
    const int64_t ts = i / 3;
    const int phase = static_cast<int>(ts / 25) % 4;
    double k = 0, v = 1 + i % 9;
    switch (phase) {
      case 0: k = i % 3; break;
      case 1: k = 10 + i % 5; break;       // the phase-0 groups leave
      case 2: k = i % 4; break;            // ... and come back
      default: k = i % 2; v = 0; break;    // filtered out under WHERE v > 0
    }
    rows.push_back({static_cast<double>(ts), v, k, static_cast<double>(i % 2)});
  }
  return MakeStream(s, rows);
}

class GroupedIncrementalTest
    : public ::testing::TestWithParam<GroupedIncrementalCase> {};

TEST_P(GroupedIncrementalTest, RunningRemergeAndReferenceAgree) {
  const GroupedIncrementalCase& c = GetParam();
  Schema s = SynSchema();
  QueryBuilder b("grp_inc", s);
  b.Window(c.window);
  if (c.where) b.Where(Gt(Col(s, "v"), Lit(0.0)));
  b.GroupBy({Col(s, "k")});
  if (c.agg_mix != 1) b.Aggregate(AggregateFunction::kSum, Col(s, "v"), "sv");
  if (c.agg_mix != 0) {
    b.Aggregate(AggregateFunction::kAvg, Col(s, "v"), "av");
    b.Aggregate(AggregateFunction::kCount, nullptr, "n");
  }
  QueryDef q = b.Build();
  if (c.having) {
    q.having = c.agg_mix == 0 ? Gt(Col(q.output_schema, "sv"), Lit(20.0))
                              : Gt(Col(q.output_schema, "n"), Lit(4.0));
  }
  QueryDef remerge = q;
  remerge.assembly_mode = AssemblyMode::kRemergeOnly;
  auto stream = ChurnStream(s, 1200);
  ByteBuffer want = ReferenceEvaluate(q, stream);
  ASSERT_GT(want.size(), 0u);
  const size_t tsz = q.output_schema.tuple_size();
  for (size_t batch : {size_t{1}, size_t{7}, size_t{64}, size_t{500}}) {
    ByteBuffer running = RunSingleInput(*MakeCpuOperator(&q), q, stream, batch);
    ByteBuffer merged =
        RunSingleInput(*MakeCpuOperator(&remerge), remerge, stream, batch);
    EXPECT_TRUE(BuffersEqual(running, want, tsz)) << "running, batch " << batch;
    EXPECT_TRUE(BuffersEqual(merged, want, tsz)) << "re-merge, batch " << batch;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GroupedIncrementalTest,
    ::testing::Values(
        GroupedIncrementalCase{"time_slide1_sum", WindowDefinition::Time(20, 1),
                               0, false, false},
        GroupedIncrementalCase{"time_uneven_avg_where",
                               WindowDefinition::Time(30, 7), 1, true, false},
        GroupedIncrementalCase{"time_tumbling_all_having",
                               WindowDefinition::Time(10, 10), 2, true, true},
        GroupedIncrementalCase{"time_hopping_sum_where",
                               WindowDefinition::Time(4, 6), 0, true, false},
        GroupedIncrementalCase{"count_sliding_sum_having",
                               WindowDefinition::Count(40, 5), 0, false, true},
        GroupedIncrementalCase{"count_slide1_avg_where",
                               WindowDefinition::Count(64, 1), 1, true, false},
        GroupedIncrementalCase{"count_long_all_where_having",
                               WindowDefinition::Count(150, 12), 2, true, true}),
    [](const ::testing::TestParamInfo<GroupedIncrementalCase>& info) {
      return info.param.label;
    });

// Property sweep: engine output must equal the reference for every
// combination of (window type, size, slide, batch size, aggregate mix).
// The flags are integers sized to fill what would be padding after a bool:
// gtest names each case by the struct's raw bytes, and padding bytes are
// indeterminate, so a padded struct gets names that change from run to run.
struct AggCase {
  int64_t time_based;
  int64_t size, slide;
  size_t batch;
  int32_t grouped;
  int agg_mix;  // 0: sum, 1: avg+count, 2: min+max, 3: all five
};
static_assert(std::has_unique_object_representations_v<AggCase>);

class AggregationPropertyTest : public ::testing::TestWithParam<AggCase> {};

TEST_P(AggregationPropertyTest, MatchesReference) {
  const AggCase& c = GetParam();
  Schema s = SynSchema();
  QueryBuilder b("prop", s);
  b.Window(c.time_based ? WindowDefinition::Time(c.size, c.slide)
                        : WindowDefinition::Count(c.size, c.slide));
  if (c.grouped) b.GroupBy({Col(s, "k")});
  switch (c.agg_mix) {
    case 0:
      b.Aggregate(AggregateFunction::kSum, Col(s, "v"));
      break;
    case 1:
      b.Aggregate(AggregateFunction::kAvg, Col(s, "v"));
      b.Aggregate(AggregateFunction::kCount, nullptr);
      break;
    case 2:
      b.Aggregate(AggregateFunction::kMin, Col(s, "v"));
      b.Aggregate(AggregateFunction::kMax, Col(s, "v"));
      break;
    default:
      b.Aggregate(AggregateFunction::kSum, Col(s, "v"));
      b.Aggregate(AggregateFunction::kAvg, Col(s, "v"));
      b.Aggregate(AggregateFunction::kCount, nullptr);
      b.Aggregate(AggregateFunction::kMin, Col(s, "v"));
      b.Aggregate(AggregateFunction::kMax, Col(s, "v"));
      break;
  }
  QueryDef q = b.Build();
  auto op = MakeCpuOperator(&q);
  auto stream = RandomStream(s, 400, static_cast<uint32_t>(c.size * 31 + c.slide));
  ByteBuffer want = ReferenceEvaluate(q, stream);
  ByteBuffer got = RunSingleInput(*op, q, stream, c.batch);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AggregationPropertyTest,
    ::testing::Values(
        AggCase{false, 1, 1, 1, false, 0}, AggCase{false, 1, 1, 64, false, 3},
        AggCase{false, 4, 4, 3, false, 1}, AggCase{false, 8, 2, 5, true, 0},
        AggCase{false, 16, 3, 7, false, 2}, AggCase{false, 5, 5, 400, true, 1},
        AggCase{false, 32, 8, 16, true, 3}, AggCase{true, 4, 4, 13, false, 0},
        AggCase{true, 10, 2, 8, true, 1}, AggCase{true, 12, 5, 100, false, 3},
        AggCase{true, 7, 7, 9, true, 2}, AggCase{true, 30, 1, 50, false, 1},
        AggCase{true, 3, 1, 1, true, 3}, AggCase{false, 100, 10, 33, false, 1},
        // slide > size: the panes between two windows belong to neither.
        AggCase{true, 4, 6, 9, false, 1}));

}  // namespace
}  // namespace saber
