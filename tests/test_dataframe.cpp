// DataFrame tests: schema/type discipline, relational operations, CSV
// round trips, and property-style parameterized checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include "analysis/dataframe.hpp"
#include "common/rng.hpp"

namespace recup::analysis {
namespace {

DataFrame sample_frame() {
  DataFrame df({{"name", ColumnType::kString},
                {"group", ColumnType::kString},
                {"value", ColumnType::kDouble},
                {"count", ColumnType::kInt64}});
  df.add_row({"a", "x", 1.5, std::int64_t{1}});
  df.add_row({"b", "x", 2.5, std::int64_t{2}});
  df.add_row({"c", "y", 3.0, std::int64_t{3}});
  df.add_row({"d", "y", 4.0, std::int64_t{4}});
  return df;
}

TEST(DataFrame, SchemaAndAccess) {
  const DataFrame df = sample_frame();
  EXPECT_EQ(df.rows(), 4u);
  EXPECT_EQ(df.width(), 4u);
  EXPECT_TRUE(df.has_column("value"));
  EXPECT_FALSE(df.has_column("missing"));
  EXPECT_EQ(df.col("name").str(0), "a");
  EXPECT_DOUBLE_EQ(df.col("value").f64(1), 2.5);
  EXPECT_EQ(df.col("count").i64(2), 3);
  // Int column widens to double through f64.
  EXPECT_DOUBLE_EQ(df.col("count").f64(3), 4.0);
  EXPECT_THROW(df.col("missing"), DataFrameError);
  EXPECT_THROW(df.col("name").f64(0), DataFrameError);
  EXPECT_THROW(df.col("value").i64(0), DataFrameError);
}

TEST(DataFrame, TypeCheckedAppend) {
  DataFrame df({{"i", ColumnType::kInt64}});
  EXPECT_THROW(df.add_row({std::string("not-int")}), DataFrameError);
  EXPECT_THROW(df.add_row({std::int64_t{1}, std::int64_t{2}}),
               DataFrameError);
  // Int accepted into double columns.
  DataFrame dd({{"d", ColumnType::kDouble}});
  dd.add_row({std::int64_t{3}});
  EXPECT_DOUBLE_EQ(dd.col("d").f64(0), 3.0);
}

TEST(DataFrame, DuplicateColumnRejected) {
  EXPECT_THROW(DataFrame({{"a", ColumnType::kInt64},
                          {"a", ColumnType::kDouble}}),
               DataFrameError);
}

TEST(DataFrame, FilterKeepsMatchingRows) {
  const DataFrame df = sample_frame();
  const DataFrame filtered = df.filter([](const DataFrame& d, std::size_t r) {
    return d.col("value").f64(r) > 2.0;
  });
  EXPECT_EQ(filtered.rows(), 3u);
  EXPECT_EQ(filtered.col("name").str(0), "b");
}

TEST(DataFrame, SortByNumericAndString) {
  const DataFrame df = sample_frame();
  const DataFrame desc = df.sort_by("value", /*ascending=*/false);
  EXPECT_EQ(desc.col("name").str(0), "d");
  EXPECT_EQ(desc.col("name").str(3), "a");
  const DataFrame by_name = df.sort_by("name");
  EXPECT_EQ(by_name.col("name").str(0), "a");
}

TEST(DataFrame, SortIsStable) {
  DataFrame df({{"k", ColumnType::kInt64}, {"tag", ColumnType::kString}});
  df.add_row({std::int64_t{1}, "first"});
  df.add_row({std::int64_t{1}, "second"});
  df.add_row({std::int64_t{0}, "zero"});
  const DataFrame sorted = df.sort_by("k");
  EXPECT_EQ(sorted.col("tag").str(1), "first");
  EXPECT_EQ(sorted.col("tag").str(2), "second");
}

TEST(DataFrame, SelectAndHead) {
  const DataFrame df = sample_frame();
  const DataFrame sel = df.select({"value", "name"});
  EXPECT_EQ(sel.width(), 2u);
  EXPECT_EQ(sel.col(0).name(), "value");
  const DataFrame top = df.head(2);
  EXPECT_EQ(top.rows(), 2u);
  EXPECT_EQ(df.head(100).rows(), 4u);
}

TEST(DataFrame, GroupByAggregates) {
  const DataFrame df = sample_frame();
  const DataFrame grouped =
      df.group_by({"group"}, {{"value", Agg::kSum, "total"},
                              {"value", Agg::kMean, "avg"},
                              {"value", Agg::kMin, "lo"},
                              {"value", Agg::kMax, "hi"},
                              {"", Agg::kCount, "n"},
                              {"name", Agg::kFirst, "first_name"}});
  EXPECT_EQ(grouped.rows(), 2u);
  const DataFrame x = grouped.filter([](const DataFrame& d, std::size_t r) {
    return d.col("group").str(r) == "x";
  });
  ASSERT_EQ(x.rows(), 1u);
  EXPECT_DOUBLE_EQ(x.col("total").f64(0), 4.0);
  EXPECT_DOUBLE_EQ(x.col("avg").f64(0), 2.0);
  EXPECT_DOUBLE_EQ(x.col("lo").f64(0), 1.5);
  EXPECT_DOUBLE_EQ(x.col("hi").f64(0), 2.5);
  EXPECT_EQ(x.col("n").i64(0), 2);
  EXPECT_EQ(x.col("first_name").str(0), "a");
}

TEST(DataFrame, GroupByStd) {
  DataFrame df({{"g", ColumnType::kString}, {"v", ColumnType::kDouble}});
  df.add_row({"a", 2.0});
  df.add_row({"a", 4.0});
  const DataFrame grouped = df.group_by({"g"}, {{"v", Agg::kStd, "sd"}});
  EXPECT_NEAR(grouped.col("sd").f64(0), std::sqrt(2.0), 1e-12);
}

TEST(DataFrame, GroupByCountDistinct) {
  DataFrame df({{"g", ColumnType::kString},
                {"who", ColumnType::kString},
                {"thread", ColumnType::kInt64},
                {"t", ColumnType::kDouble}});
  df.add_row({"x", "a", std::int64_t{7}, 1.0});
  df.add_row({"x", "a", std::int64_t{8}, 1.0});
  df.add_row({"x", "b", std::int64_t{7}, 2.0});
  df.add_row({"y", "c", std::int64_t{9}, 3.0});
  const DataFrame grouped =
      df.group_by({"g"}, {{"who", Agg::kCountDistinct, "n_who"},
                          {"thread", Agg::kCountDistinct, "n_threads"},
                          {"t", Agg::kCountDistinct, "n_times"}});
  ASSERT_EQ(grouped.rows(), 2u);
  EXPECT_EQ(grouped.col("g").str(0), "x");
  EXPECT_EQ(grouped.col("n_who").i64(0), 2);
  EXPECT_EQ(grouped.col("n_threads").i64(0), 2);
  EXPECT_EQ(grouped.col("n_times").i64(0), 2);
  EXPECT_EQ(grouped.col("n_who").i64(1), 1);
}

TEST(DataFrame, GroupByCountDistinctDoublesByBitPattern) {
  // 0.1 + 0.2 != 0.3 exactly: distinct bit patterns stay distinct even
  // though a lossy display form could collapse them.
  DataFrame df({{"g", ColumnType::kString}, {"v", ColumnType::kDouble}});
  df.add_row({"a", 0.1 + 0.2});
  df.add_row({"a", 0.3});
  df.add_row({"a", 0.3});
  const DataFrame grouped =
      df.group_by({"g"}, {{"v", Agg::kCountDistinct, "n"}});
  EXPECT_EQ(grouped.col("n").i64(0), 2);
}

TEST(DataFrame, GroupByStringMinMax) {
  DataFrame df({{"g", ColumnType::kString}, {"name", ColumnType::kString}});
  df.add_row({"x", "pear"});
  df.add_row({"x", "apple"});
  df.add_row({"x", "mango"});
  df.add_row({"y", "kiwi"});
  const DataFrame grouped =
      df.group_by({"g"}, {{"name", Agg::kMin, "first_name"},
                          {"name", Agg::kMax, "last_name"}});
  ASSERT_EQ(grouped.rows(), 2u);
  EXPECT_EQ(grouped.col("first_name").type(), ColumnType::kString);
  EXPECT_EQ(grouped.col("first_name").str(0), "apple");
  EXPECT_EQ(grouped.col("last_name").str(0), "pear");
  EXPECT_EQ(grouped.col("first_name").str(1), "kiwi");
  EXPECT_EQ(grouped.col("last_name").str(1), "kiwi");
}

TEST(DataFrame, InnerJoinMatchesKeys) {
  DataFrame left({{"id", ColumnType::kInt64}, {"l", ColumnType::kString}});
  left.add_row({std::int64_t{1}, "one"});
  left.add_row({std::int64_t{2}, "two"});
  left.add_row({std::int64_t{3}, "three"});
  DataFrame right({{"key", ColumnType::kInt64}, {"r", ColumnType::kString}});
  right.add_row({std::int64_t{2}, "TWO"});
  right.add_row({std::int64_t{3}, "THREE"});
  right.add_row({std::int64_t{3}, "TROIS"});  // multiple matches fan out
  const DataFrame joined = left.inner_join(right, {"id"}, {"key"});
  EXPECT_EQ(joined.rows(), 3u);
  EXPECT_EQ(joined.col("l").str(0), "two");
  EXPECT_EQ(joined.col("r").str(0), "TWO");
  EXPECT_EQ(joined.col("r").str(2), "TROIS");
}

TEST(DataFrame, JoinNameCollisionSuffixed) {
  DataFrame left({{"id", ColumnType::kInt64}, {"v", ColumnType::kInt64}});
  left.add_row({std::int64_t{1}, std::int64_t{10}});
  DataFrame right({{"id", ColumnType::kInt64}, {"v", ColumnType::kInt64}});
  right.add_row({std::int64_t{1}, std::int64_t{20}});
  const DataFrame joined = left.inner_join(right, {"id"}, {"id"});
  EXPECT_TRUE(joined.has_column("v"));
  EXPECT_TRUE(joined.has_column("v_right"));
  EXPECT_EQ(joined.col("v").i64(0), 10);
  EXPECT_EQ(joined.col("v_right").i64(0), 20);
}

TEST(DataFrame, JoinRequiresKeys) {
  const DataFrame df = sample_frame();
  EXPECT_THROW(df.inner_join(df, {}, {}), DataFrameError);
  EXPECT_THROW(df.inner_join(df, {"name"}, {"name", "group"}),
               DataFrameError);
}

TEST(DataFrame, ConcatAppendsRows) {
  const DataFrame df = sample_frame();
  const DataFrame both = df.concat(df);
  EXPECT_EQ(both.rows(), 8u);
  EXPECT_EQ(both.col("name").str(4), "a");
}

TEST(DataFrame, ColumnHelpers) {
  const DataFrame df = sample_frame();
  EXPECT_DOUBLE_EQ(df.sum("value"), 11.0);
  EXPECT_DOUBLE_EQ(df.mean("value"), 2.75);
  EXPECT_DOUBLE_EQ(df.min("count"), 1.0);
  EXPECT_DOUBLE_EQ(df.max("count"), 4.0);
  EXPECT_EQ(df.distinct("group"), (std::vector<std::string>{"x", "y"}));
}

TEST(DataFrame, LongColumnSumsCombineFixedBlocksInOrder) {
  // sum and mean add up 16,384-row blocks, then combine the block partials
  // in order: the summation order every recorded output was computed in.
  constexpr std::size_t kRows = 40000;
  constexpr std::size_t kBlockRows = 16 * 1024;
  RngStream rng(24);
  Column values("v", ColumnType::kDouble);
  for (std::size_t r = 0; r < kRows; ++r) {
    values.push_f64(rng.lognormal(1.0, 3.0));
  }
  const std::vector<double>& v = values.doubles();
  double straight = 0.0;
  for (const double d : v) straight += d;
  double blocked = 0.0;
  for (std::size_t b = 0; b < kRows; b += kBlockRows) {
    double partial = 0.0;
    for (std::size_t r = b; r < std::min(kRows, b + kBlockRows); ++r) {
      partial += v[r];
    }
    blocked += partial;
  }
  // The two orders differ in the low bits, so the checks below pin the
  // order and not just the value.
  ASSERT_NE(std::bit_cast<std::uint64_t>(straight),
            std::bit_cast<std::uint64_t>(blocked));

  const DataFrame df = DataFrame::from_columns({values});
  EXPECT_EQ(std::bit_cast<std::uint64_t>(df.sum("v")),
            std::bit_cast<std::uint64_t>(blocked));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(df.mean("v")),
            std::bit_cast<std::uint64_t>(blocked / static_cast<double>(kRows)));
}

TEST(DataFrame, CsvRoundTrip) {
  const DataFrame df = sample_frame();
  const DataFrame back = DataFrame::from_csv(df.to_csv());
  EXPECT_EQ(back.rows(), df.rows());
  EXPECT_EQ(back.col("name").str(2), "c");
  EXPECT_EQ(back.col("count").type(), ColumnType::kInt64);
  EXPECT_EQ(back.col("value").type(), ColumnType::kDouble);
  EXPECT_DOUBLE_EQ(back.col("value").f64(3), 4.0);
}

TEST(DataFrame, CsvQuotedFieldsSurvive) {
  DataFrame df({{"k", ColumnType::kString}});
  df.add_row({"('getitem-24266c', 63)"});
  df.add_row({"line\nbreak"});
  const DataFrame back = DataFrame::from_csv(df.to_csv());
  EXPECT_EQ(back.col("k").str(0), "('getitem-24266c', 63)");
  EXPECT_EQ(back.col("k").str(1), "line\nbreak");
}

TEST(DataFrame, CsvTypeInference) {
  const DataFrame df = DataFrame::from_csv("a,b,c\n1,1.5,x\n2,2.5,y\n");
  EXPECT_EQ(df.col("a").type(), ColumnType::kInt64);
  EXPECT_EQ(df.col("b").type(), ColumnType::kDouble);
  EXPECT_EQ(df.col("c").type(), ColumnType::kString);
}

TEST(DataFrame, CsvErrors) {
  EXPECT_THROW(DataFrame::from_csv(""), DataFrameError);
  EXPECT_THROW(DataFrame::from_csv("a,b\n1\n"), DataFrameError);
  EXPECT_THROW(DataFrame::from_csv_file("/no/such/file.csv"),
               DataFrameError);
}

// Doubles survive a CSV round trip bit-for-bit: display uses shortest
// round-trip formatting, not a fixed %.9g precision.
TEST(DataFrame, CsvDoubleRoundTripLossless) {
  const std::vector<double> values = {0.1,
                                      1.0 / 3.0,
                                      0.1 + 0.2,
                                      3.141592653589793,
                                      1e-300,
                                      -2.2250738585072014e-308,
                                      12345678.901234567,
                                      -0.0};
  DataFrame df({{"v", ColumnType::kDouble}});
  for (const double v : values) df.add_row({v});
  const DataFrame back = DataFrame::from_csv(df.to_csv());
  ASSERT_EQ(back.rows(), values.size());
  ASSERT_EQ(back.col("v").type(), ColumnType::kDouble);
  for (std::size_t r = 0; r < values.size(); ++r) {
    EXPECT_EQ(back.col("v").f64(r), values[r]) << "row " << r;
  }
}

// Under the old %.9g display, doubles differing beyond 9 significant digits
// stringified identically; typed keys must keep them distinct.
TEST(DataFrame, DistinctDoublesBeyondNineDigits) {
  DataFrame df({{"v", ColumnType::kDouble}});
  df.add_row({1.0000000001});
  df.add_row({1.0000000002});
  df.add_row({1.0000000001});
  EXPECT_EQ(df.distinct("v").size(), 2u);
  const DataFrame grouped = df.group_by({"v"}, {{"", Agg::kCount, "n"}});
  EXPECT_EQ(grouped.rows(), 2u);
}

TEST(DataFrame, CsvHeaderOnlyColumnsAreString) {
  const DataFrame df = DataFrame::from_csv("a,b\n");
  EXPECT_EQ(df.rows(), 0u);
  EXPECT_EQ(df.col("a").type(), ColumnType::kString);
  EXPECT_EQ(df.col("b").type(), ColumnType::kString);
}

TEST(DataFrame, CsvEmptyCellsMakeColumnString) {
  // An empty cell anywhere makes the column string, even when every other
  // cell parses as a number.
  const DataFrame df = DataFrame::from_csv("a,b,c\n1,,\n2,3,\n");
  EXPECT_EQ(df.col("a").type(), ColumnType::kInt64);
  EXPECT_EQ(df.col("b").type(), ColumnType::kString);
  EXPECT_EQ(df.col("b").str(1), "3");
  EXPECT_EQ(df.col("c").type(), ColumnType::kString);
  EXPECT_EQ(df.col("c").str(0), "");
}

// --- asof_merge ------------------------------------------------------------

DataFrame asof_left() {
  DataFrame df({{"t", ColumnType::kDouble}, {"l", ColumnType::kString}});
  df.add_row({0.5, "before-any"});
  df.add_row({1.0, "at-first"});
  df.add_row({2.7, "mid"});
  df.add_row({9.0, "after-all"});
  return df;
}

DataFrame asof_right() {
  DataFrame df({{"ts", ColumnType::kDouble}, {"r", ColumnType::kString}});
  df.add_row({1.0, "one"});
  df.add_row({2.0, "two"});
  df.add_row({4.0, "four"});
  return df;
}

TEST(DataFrame, AsofMergeNearestEarlier) {
  AsofSpec spec;
  spec.left_on = "t";
  spec.right_on = "ts";
  const DataFrame merged = asof_left().asof_merge(asof_right(), spec);
  // Row 0 (t=0.5) has no earlier right row and is dropped.
  ASSERT_EQ(merged.rows(), 3u);
  EXPECT_EQ(merged.col("l").str(0), "at-first");
  EXPECT_EQ(merged.col("r").str(0), "one");   // ties match (ts <= t)
  EXPECT_EQ(merged.col("r").str(1), "two");   // 2.7 -> nearest earlier 2.0
  EXPECT_EQ(merged.col("r").str(2), "four");  // 9.0 -> last right row
}

TEST(DataFrame, AsofMergeKeepUnmatchedDefaults) {
  AsofSpec spec;
  spec.left_on = "t";
  spec.right_on = "ts";
  spec.keep_unmatched = true;
  const DataFrame merged = asof_left().asof_merge(asof_right(), spec);
  ASSERT_EQ(merged.rows(), 4u);
  EXPECT_EQ(merged.col("l").str(0), "before-any");
  EXPECT_EQ(merged.col("r").str(0), "");          // string default
  EXPECT_DOUBLE_EQ(merged.col("ts").f64(0), 0.0); // numeric default
}

TEST(DataFrame, AsofMergeEmptyFrames) {
  AsofSpec spec;
  spec.left_on = "t";
  spec.right_on = "ts";
  DataFrame empty_left({{"t", ColumnType::kDouble},
                        {"l", ColumnType::kString}});
  DataFrame empty_right({{"ts", ColumnType::kDouble},
                         {"r", ColumnType::kString}});
  EXPECT_EQ(empty_left.asof_merge(asof_right(), spec).rows(), 0u);
  EXPECT_EQ(asof_left().asof_merge(empty_right, spec).rows(), 0u);
  spec.keep_unmatched = true;
  const DataFrame kept = asof_left().asof_merge(empty_right, spec);
  EXPECT_EQ(kept.rows(), 4u);
  EXPECT_EQ(kept.col("r").str(3), "");
}

TEST(DataFrame, AsofMergeNoEarlierMatch) {
  DataFrame left({{"t", ColumnType::kDouble}});
  left.add_row({-5.0});
  AsofSpec spec;
  spec.left_on = "t";
  spec.right_on = "ts";
  EXPECT_EQ(left.asof_merge(asof_right(), spec).rows(), 0u);
}

TEST(DataFrame, AsofMergeDuplicateTimestampsLastWins) {
  DataFrame right({{"ts", ColumnType::kDouble}, {"r", ColumnType::kString}});
  right.add_row({1.0, "first"});
  right.add_row({1.0, "second"});
  right.add_row({1.0, "third"});
  DataFrame left({{"t", ColumnType::kDouble}});
  left.add_row({1.5});
  AsofSpec spec;
  spec.left_on = "t";
  spec.right_on = "ts";
  const DataFrame merged = left.asof_merge(right, spec);
  ASSERT_EQ(merged.rows(), 1u);
  EXPECT_EQ(merged.col("r").str(0), "third");
}

TEST(DataFrame, AsofMergeByColumnsSeparateStreams) {
  DataFrame left({{"tid", ColumnType::kInt64}, {"t", ColumnType::kDouble}});
  left.add_row({std::int64_t{1}, 5.0});
  left.add_row({std::int64_t{2}, 5.0});
  left.add_row({std::int64_t{3}, 5.0});  // no right rows for tid 3
  DataFrame right({{"tid", ColumnType::kInt64},
                   {"ts", ColumnType::kDouble},
                   {"r", ColumnType::kString}});
  right.add_row({std::int64_t{2}, 4.0, "two@4"});
  right.add_row({std::int64_t{1}, 3.0, "one@3"});
  right.add_row({std::int64_t{1}, 6.0, "one@6"});
  AsofSpec spec;
  spec.left_on = "t";
  spec.right_on = "ts";
  spec.left_by = {"tid"};
  spec.right_by = {"tid"};
  const DataFrame merged = left.asof_merge(right, spec);
  ASSERT_EQ(merged.rows(), 2u);
  EXPECT_EQ(merged.col("tid").i64(0), 1);
  EXPECT_EQ(merged.col("r").str(0), "one@3");
  EXPECT_EQ(merged.col("tid").i64(1), 2);
  EXPECT_EQ(merged.col("r").str(1), "two@4");
  // By-key columns appear once (from the left side).
  EXPECT_FALSE(merged.has_column("tid_right"));
}

TEST(DataFrame, AsofMergeValidUntilWindow) {
  DataFrame right({{"ts", ColumnType::kDouble},
                   {"te", ColumnType::kDouble},
                   {"r", ColumnType::kString}});
  right.add_row({1.0, 2.0, "win"});
  DataFrame left({{"t", ColumnType::kDouble}});
  left.add_row({1.5});  // inside [1, 2]
  left.add_row({2.0});  // boundary, still inside with eps
  left.add_row({3.0});  // after the window closes
  AsofSpec spec;
  spec.left_on = "t";
  spec.right_on = "ts";
  spec.right_valid_until = "te";
  spec.eps = 1e-9;
  const DataFrame merged = left.asof_merge(right, spec);
  ASSERT_EQ(merged.rows(), 2u);
  EXPECT_DOUBLE_EQ(merged.col("t").f64(1), 2.0);
}

TEST(DataFrame, AsofMergeTolerance) {
  DataFrame left({{"t", ColumnType::kDouble}});
  left.add_row({10.0});
  AsofSpec spec;
  spec.left_on = "t";
  spec.right_on = "ts";
  spec.tolerance = 5.0;
  EXPECT_EQ(asof_left().head(0).asof_merge(asof_right(), spec).rows(), 0u);
  // Nearest earlier right row is ts=4.0; 10 - 4 > 5 fails the tolerance.
  EXPECT_EQ(left.asof_merge(asof_right(), spec).rows(), 0u);
  spec.tolerance = 6.0;
  EXPECT_EQ(left.asof_merge(asof_right(), spec).rows(), 1u);
}

TEST(DataFrame, AsofMergeRejectsBadSpecs) {
  AsofSpec spec;
  spec.left_on = "l";  // string column
  spec.right_on = "ts";
  EXPECT_THROW(asof_left().asof_merge(asof_right(), spec), DataFrameError);
  spec.left_on = "t";
  spec.left_by = {"l"};
  EXPECT_THROW(asof_left().asof_merge(asof_right(), spec), DataFrameError);
}

// Property-style sweep: filter-then-count equals manual count across random
// frames of varying size.
class DataFrameProperty : public ::testing::TestWithParam<int> {};

TEST_P(DataFrameProperty, FilterCountMatchesPredicate) {
  RngStream rng(static_cast<std::uint64_t>(GetParam()));
  DataFrame df({{"v", ColumnType::kDouble}});
  const int n = GetParam() * 37 % 200 + 1;
  int expected = 0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.uniform(0, 1);
    if (v > 0.5) ++expected;
    df.add_row({v});
  }
  const DataFrame filtered = df.filter([](const DataFrame& d, std::size_t r) {
    return d.col("v").f64(r) > 0.5;
  });
  EXPECT_EQ(filtered.rows(), static_cast<std::size_t>(expected));
}

TEST_P(DataFrameProperty, SortIsPermutationAndOrdered) {
  RngStream rng(static_cast<std::uint64_t>(GetParam()) + 999);
  DataFrame df({{"v", ColumnType::kDouble}});
  const int n = GetParam() * 53 % 150 + 2;
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.uniform(-100, 100);
    total += v;
    df.add_row({v});
  }
  const DataFrame sorted = df.sort_by("v");
  EXPECT_EQ(sorted.rows(), static_cast<std::size_t>(n));
  EXPECT_NEAR(sorted.sum("v"), total, 1e-9);
  for (std::size_t r = 1; r < sorted.rows(); ++r) {
    EXPECT_LE(sorted.col("v").f64(r - 1), sorted.col("v").f64(r));
  }
}

TEST_P(DataFrameProperty, GroupBySumsPartitionTotal) {
  RngStream rng(static_cast<std::uint64_t>(GetParam()) + 5555);
  DataFrame df({{"g", ColumnType::kString}, {"v", ColumnType::kDouble}});
  double total = 0.0;
  const int n = GetParam() * 29 % 300 + 5;
  for (int i = 0; i < n; ++i) {
    const double v = rng.uniform(0, 10);
    total += v;
    df.add_row({std::string(1, static_cast<char>('a' + i % 7)), v});
  }
  const DataFrame grouped = df.group_by({"g"}, {{"v", Agg::kSum, "s"}});
  EXPECT_NEAR(grouped.sum("s"), total, 1e-9);
}

// Randomized two-key frame shared by the naive-reference checks below.
DataFrame random_keyed_frame(RngStream& rng, int n) {
  DataFrame df({{"g", ColumnType::kInt64},
                {"h", ColumnType::kString},
                {"v", ColumnType::kDouble}});
  for (int i = 0; i < n; ++i) {
    df.add_row({rng.uniform_int(0, 12),
                std::string(1, static_cast<char>('a' + rng.uniform_int(0, 4))),
                rng.uniform(-50, 50)});
  }
  return df;
}

// The hashed group_by must be row-for-row identical to a naive ordered-map
// reference: groups ascending by typed key, aggregates over the members.
TEST_P(DataFrameProperty, HashedGroupByMatchesNaiveReference) {
  RngStream rng(static_cast<std::uint64_t>(GetParam()) + 70001);
  const int n = GetParam() * 41 % 250 + 1;
  const DataFrame df = random_keyed_frame(rng, n);
  const DataFrame grouped =
      df.group_by({"g", "h"}, {{"v", Agg::kSum, "s"},
                               {"", Agg::kCount, "n"},
                               {"v", Agg::kMin, "lo"},
                               {"v", Agg::kMax, "hi"}});

  std::map<std::pair<std::int64_t, std::string>, std::vector<double>> ref;
  for (std::size_t r = 0; r < df.rows(); ++r) {
    ref[{df.col("g").i64(r), df.col("h").str(r)}].push_back(
        df.col("v").f64(r));
  }
  ASSERT_EQ(grouped.rows(), ref.size());
  std::size_t row = 0;
  for (const auto& [key, values] : ref) {
    EXPECT_EQ(grouped.col("g").i64(row), key.first);
    EXPECT_EQ(grouped.col("h").str(row), key.second);
    double sum = 0.0;
    double lo = values[0];
    double hi = values[0];
    for (const double v : values) {
      sum += v;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    EXPECT_NEAR(grouped.col("s").f64(row), sum, 1e-9);
    EXPECT_EQ(grouped.col("n").i64(row),
              static_cast<std::int64_t>(values.size()));
    EXPECT_DOUBLE_EQ(grouped.col("lo").f64(row), lo);
    EXPECT_DOUBLE_EQ(grouped.col("hi").f64(row), hi);
    ++row;
  }
}

// The hashed inner_join must reproduce the naive nested loop: left rows in
// order, each fanning out across matching right rows ascending.
TEST_P(DataFrameProperty, HashedJoinMatchesNaiveReference) {
  RngStream rng(static_cast<std::uint64_t>(GetParam()) + 80002);
  const DataFrame left = random_keyed_frame(rng, GetParam() * 31 % 120 + 1);
  const DataFrame right = random_keyed_frame(rng, GetParam() * 23 % 120 + 1);
  const DataFrame joined = left.inner_join(right, {"g", "h"}, {"g", "h"});

  std::vector<std::pair<std::size_t, std::size_t>> ref;
  for (std::size_t l = 0; l < left.rows(); ++l) {
    for (std::size_t r = 0; r < right.rows(); ++r) {
      if (left.col("g").i64(l) == right.col("g").i64(r) &&
          left.col("h").str(l) == right.col("h").str(r)) {
        ref.emplace_back(l, r);
      }
    }
  }
  ASSERT_EQ(joined.rows(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(joined.col("g").i64(i), left.col("g").i64(ref[i].first));
    EXPECT_DOUBLE_EQ(joined.col("v").f64(i),
                     left.col("v").f64(ref[i].first));
    EXPECT_DOUBLE_EQ(joined.col("v_right").f64(i),
                     right.col("v").f64(ref[i].second));
  }
}

// Typed distinct must match a naive first-appearance scan with value
// (not string) equality.
TEST_P(DataFrameProperty, DistinctMatchesNaiveReference) {
  RngStream rng(static_cast<std::uint64_t>(GetParam()) + 90003);
  DataFrame df({{"v", ColumnType::kDouble}});
  const int n = GetParam() * 47 % 200 + 1;
  for (int i = 0; i < n; ++i) {
    // Small value pool so repeats are common.
    df.add_row({static_cast<double>(rng.uniform_int(0, 9)) / 4.0});
  }
  std::vector<double> seen;
  std::vector<std::string> ref;
  for (std::size_t r = 0; r < df.rows(); ++r) {
    const double v = df.col("v").f64(r);
    if (std::find(seen.begin(), seen.end(), v) == seen.end()) {
      seen.push_back(v);
      ref.push_back(df.col("v").display(r));
    }
  }
  EXPECT_EQ(df.distinct("v"), ref);
}


TEST(DataFrameTest, SortByPutsNaNLastInRowOrder) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto frame_of = [](const std::vector<double>& values) {
    DataFrame df({{"v", ColumnType::kDouble}, {"row", ColumnType::kInt64}});
    for (std::size_t i = 0; i < values.size(); ++i) {
      df.add_row({values[i], static_cast<std::int64_t>(i)});
    }
    return df;
  };
  const auto rows_of = [](const DataFrame& f) {
    std::vector<std::int64_t> out;
    for (std::size_t r = 0; r < f.rows(); ++r) out.push_back(f.col("row").i64(r));
    return out;
  };
  using Rows = std::vector<std::int64_t>;
  const DataFrame df = frame_of({3, nan, 1, 2, nan, 0.5, 5, 4});
  // Numbers in the requested direction, then the NaN rows (1 and 4) in
  // row order, ascending and descending alike.
  EXPECT_EQ(rows_of(df.sort_by("v")), (Rows{5, 2, 3, 0, 7, 6, 1, 4}));
  EXPECT_EQ(rows_of(df.sort_by("v", false)), (Rows{6, 7, 0, 3, 2, 5, 1, 4}));
  // A limit keeps a prefix of the same permutation.
  EXPECT_EQ(rows_of(df.sort_by("v", false, 3)), (Rows{6, 7, 0}));
  EXPECT_EQ(rows_of(df.sort_by("v", true, 7)), (Rows{5, 2, 3, 0, 7, 6, 1}));
  EXPECT_EQ(rows_of(df.sort_by("v", true, 0)), Rows{});
  EXPECT_EQ(rows_of(df.sort_by("v", true, 100)).size(), 8u);
  EXPECT_EQ(rows_of(frame_of({nan, nan}).sort_by("v", false)), (Rows{0, 1}));
  // Without NaN, ties keep row order in both directions, as before.
  const DataFrame ties = frame_of({2, 1, 2, 1});
  EXPECT_EQ(rows_of(ties.sort_by("v")), (Rows{1, 3, 0, 2}));
  EXPECT_EQ(rows_of(ties.sort_by("v", false)), (Rows{0, 2, 1, 3}));
}

// Key columns for the group-by reference check.
struct GroupKeySpec {
  ColumnType type = ColumnType::kInt64;
  std::vector<std::int64_t> ints;  ///< int64 palette
  std::size_t dict = 0;            ///< string dictionary size
};

/// A key column of `rows` values: ints drawn from the palette, doubles on a
/// quarter grid, or strings coded into a `dict`-entry dictionary of which
/// the rows use only some entries (like a merged scan dictionary).
Column group_key_column(const std::string& name, const GroupKeySpec& spec,
                        std::size_t rows, RngStream& rng) {
  if (spec.type == ColumnType::kString) {
    std::vector<std::string> dict;
    for (std::size_t i = 0; i < spec.dict; ++i) {
      dict.push_back("k" + std::to_string((i * 7919) % (spec.dict + 13)));
    }
    // Half to all of the entries appear, spread over the whole dictionary.
    const auto dict_size = static_cast<std::int64_t>(spec.dict);
    const std::int64_t used = std::max<std::int64_t>(
        1, dict_size - dict_size * rng.uniform_int(0, 2) / 4);
    std::vector<std::uint32_t> codes;
    for (std::size_t r = 0; r < rows; ++r) {
      codes.push_back(static_cast<std::uint32_t>(
          rng.uniform_int(0, used - 1) * static_cast<std::int64_t>(spec.dict) /
          used));
    }
    return Column::from_dict(name, std::move(dict), std::move(codes));
  }
  Column col(name, spec.type);
  for (std::size_t r = 0; r < rows; ++r) {
    if (spec.type == ColumnType::kInt64) {
      col.push_i64(spec.ints[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(spec.ints.size()) - 1))]);
    } else {
      col.push_f64(static_cast<double>(rng.uniform_int(-40, 40)) / 4.0);
    }
  }
  return col;
}

std::uint64_t bits_of(double d) {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

// group_by must reproduce a naive ordered-map reference whichever way it
// numbers groups (dense ids from dictionary codes / int offsets, or the
// hash table): groups ascending by typed key, `first` from each group's
// first row, and bit-identical sums accumulated in row order.
TEST(DataFrameTest, GroupByMatchesNaiveReference) {
  const auto range = [](std::int64_t lo, std::int64_t n) {
    std::vector<std::int64_t> out;
    for (std::int64_t i = 0; i < n; ++i) out.push_back(lo + i);
    return out;
  };
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const GroupKeySpec narrow{ColumnType::kInt64, range(-5, 11), 0};
  const GroupKeySpec negative{ColumnType::kInt64, range(-1000000000, 100), 0};
  const GroupKeySpec wide{ColumnType::kInt64, {0, 1000003, 5000000000LL, 7}, 0};
  const GroupKeySpec extremes{ColumnType::kInt64, {kMin, kMin + 1, -1, 0, kMax}, 0};
  const GroupKeySpec top{ColumnType::kInt64, range(kMax - 15, 16), 0};
  const GroupKeySpec bottom{ColumnType::kInt64, range(kMin, 16), 0};
  const GroupKeySpec grid{ColumnType::kDouble, {}, 0};
  const auto strings = [](std::size_t dict) {
    return GroupKeySpec{ColumnType::kString, {}, dict};
  };
  const std::vector<std::vector<GroupKeySpec>> key_sets = {
      {strings(1)},          {strings(7)},
      {strings(300)},        {strings(5000)},
      {narrow},              {negative},
      {wide},                {extremes},
      {top},                 {bottom},
      {grid},                {strings(40), narrow},
      {strings(3000), negative}, {narrow, grid},
      {strings(12), top, strings(5)}, {narrow, strings(9)},
      {bottom, extremes}};
  const std::vector<std::size_t> sizes = {0, 1, 37, 2000, 6000, 50000};

  RngStream rng(20261017);
  std::size_t dense_cases = 0;
  std::size_t hashed_cases = 0;
  for (const auto& specs : key_sets) {
    for (const std::size_t n : sizes) {
      std::vector<Column> cols;
      std::vector<std::string> keys;
      // The dense-id rule: every key a string or int64 column, key space
      // (dictionary sizes x value ranges) within max(2 * rows, 4096).
      bool dense = n > 0;
      long double space = 1;
      for (std::size_t k = 0; k < specs.size(); ++k) {
        keys.push_back("k" + std::to_string(k));
        cols.push_back(group_key_column(keys.back(), specs[k], n, rng));
        if (specs[k].type == ColumnType::kDouble) dense = false;
        if (specs[k].type == ColumnType::kString) space *= specs[k].dict;
        if (specs[k].type == ColumnType::kInt64 && n > 0) {
          const auto& v = cols.back().ints();
          const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
          space *= static_cast<long double>(*hi) -
                   static_cast<long double>(*lo) + 1;
        }
      }
      dense = dense && space <= std::max<long double>(2.0L * n, 4096);
      (dense ? dense_cases : hashed_cases) += 1;

      Column v("v", ColumnType::kDouble);
      Column i("i", ColumnType::kInt64);
      Column s = group_key_column("s", strings(60), n, rng);
      for (std::size_t r = 0; r < n; ++r) {
        v.push_f64(static_cast<double>(rng.uniform_int(-400, 400)) / 8.0);
        i.push_i64(rng.uniform_int(0, 30));
      }
      cols.push_back(std::move(v));
      cols.push_back(std::move(i));
      cols.push_back(std::move(s));
      const DataFrame df = DataFrame::from_columns(std::move(cols));
      const DataFrame out = df.group_by(
          keys, {{"v", Agg::kSum, "sum"},
                 {"v", Agg::kMean, "mean"},
                 {"", Agg::kCount, "n"},
                 {"v", Agg::kMin, "lo"},
                 {"v", Agg::kMax, "hi"},
                 {"v", Agg::kStd, "sd"},
                 {"v", Agg::kFirst, "first"},
                 {"s", Agg::kFirst, "s_first"},
                 {"s", Agg::kMin, "s_lo"},
                 {"s", Agg::kCountDistinct, "s_distinct"},
                 {"i", Agg::kCountDistinct, "i_distinct"},
                 {"v", Agg::kCountDistinct, "v_distinct"}});

      using RefKey = std::vector<Cell>;
      std::map<RefKey, std::vector<std::size_t>> ref;
      for (std::size_t r = 0; r < n; ++r) {
        RefKey key;
        for (const std::string& k : keys) key.push_back(df.col(k).cell(r));
        ref[key].push_back(r);
      }
      const std::string where = "keys " + std::to_string(specs.size()) +
                                " (first type " +
                                std::to_string(static_cast<int>(specs[0].type)) +
                                "), rows " + std::to_string(n);
      ASSERT_EQ(out.rows(), ref.size()) << where;
      std::size_t g = 0;
      for (const auto& [key, members] : ref) {
        for (std::size_t k = 0; k < keys.size(); ++k) {
          ASSERT_EQ(out.col(keys[k]).cell(g), key[k]) << where << " group " << g;
        }
        double sum = 0.0;
        double lo = 0.0;
        double hi = 0.0;
        std::set<double> vs;
        std::set<std::string> ss;
        std::set<std::int64_t> is;
        std::string s_lo = df.col("s").str(members[0]);
        for (std::size_t m = 0; m < members.size(); ++m) {
          const double x = df.col("v").f64(members[m]);
          sum += x;
          lo = m == 0 ? x : std::min(lo, x);
          hi = m == 0 ? x : std::max(hi, x);
          vs.insert(x);
          ss.insert(df.col("s").str(members[m]));
          is.insert(df.col("i").i64(members[m]));
          s_lo = std::min(s_lo, df.col("s").str(members[m]));
        }
        const auto count = static_cast<double>(members.size());
        const double mean = sum / count;
        double m2 = 0.0;
        for (const std::size_t r : members) {
          const double x = df.col("v").f64(r);
          m2 += (x - mean) * (x - mean);
        }
        const double sd = count > 1.0 ? std::sqrt(m2 / (count - 1.0)) : 0.0;
        EXPECT_EQ(bits_of(out.col("sum").f64(g)), bits_of(sum)) << where;
        EXPECT_EQ(bits_of(out.col("mean").f64(g)), bits_of(mean)) << where;
        EXPECT_EQ(out.col("n").i64(g), static_cast<std::int64_t>(members.size()));
        EXPECT_EQ(bits_of(out.col("lo").f64(g)), bits_of(lo)) << where;
        EXPECT_EQ(bits_of(out.col("hi").f64(g)), bits_of(hi)) << where;
        EXPECT_EQ(bits_of(out.col("sd").f64(g)), bits_of(sd)) << where;
        EXPECT_EQ(bits_of(out.col("first").f64(g)),
                  bits_of(df.col("v").f64(members[0])));
        EXPECT_EQ(out.col("s_first").str(g), df.col("s").str(members[0]));
        EXPECT_EQ(out.col("s_lo").str(g), s_lo);
        EXPECT_EQ(out.col("s_distinct").i64(g),
                  static_cast<std::int64_t>(ss.size()));
        EXPECT_EQ(out.col("i_distinct").i64(g),
                  static_cast<std::int64_t>(is.size()));
        EXPECT_EQ(out.col("v_distinct").i64(g),
                  static_cast<std::int64_t>(vs.size()));
        ++g;
      }
    }
  }
  // Inputs on both sides of the dense-id rule.
  EXPECT_GT(dense_cases, 20u);
  EXPECT_GT(hashed_cases, 20u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DataFrameProperty,
                         ::testing::Range(1, 13));

}  // namespace
}  // namespace recup::analysis
