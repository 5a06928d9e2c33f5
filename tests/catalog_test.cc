// Unit tests for catalog, tables, indexes and statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <unordered_set>

#include "catalog/catalog.h"
#include "catalog/stats.h"
#include "difftest/dataset.h"
#include "tpch/tpch_gen.h"

namespace orq {
namespace {

class CatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = *catalog_.CreateTable("t", {{"id", DataType::kInt64, false},
                                         {"grp", DataType::kInt64, false},
                                         {"val", DataType::kDouble, true}});
    table_->SetPrimaryKey({0});
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(table_
                      ->Append({Value::Int64(i), Value::Int64(i % 3),
                                i == 0 ? Value::Null()
                                       : Value::Double(i * 1.5)})
                      .ok());
    }
  }

  Catalog catalog_;
  Table* table_ = nullptr;
};

TEST_F(CatalogTest, CreateAndFindCaseInsensitive) {
  EXPECT_EQ(catalog_.FindTable("T"), table_);
  EXPECT_EQ(catalog_.FindTable("t"), table_);
  EXPECT_EQ(catalog_.FindTable("nope"), nullptr);
}

TEST_F(CatalogTest, DuplicateTableRejected) {
  Result<Table*> dup = catalog_.CreateTable("T", {{"x", DataType::kInt64}});
  EXPECT_FALSE(dup.ok());
}

TEST_F(CatalogTest, ColumnOrdinalLookup) {
  EXPECT_EQ(table_->ColumnOrdinal("id"), 0);
  EXPECT_EQ(table_->ColumnOrdinal("VAL"), 2);
  EXPECT_EQ(table_->ColumnOrdinal("missing"), -1);
}

TEST_F(CatalogTest, AppendChecksArity) {
  EXPECT_FALSE(table_->Append({Value::Int64(1)}).ok());
  EXPECT_TRUE(table_->Append({Value::Int64(99), Value::Int64(0),
                              Value::Double(1.0)})
                  .ok());
}

TEST_F(CatalogTest, PrimaryKeyRegistersUniqueKey) {
  ASSERT_EQ(table_->unique_keys().size(), 1u);
  EXPECT_EQ(table_->unique_keys()[0], (std::vector<int>{0}));
  table_->AddUniqueKey({1, 2});
  EXPECT_EQ(table_->unique_keys().size(), 2u);
}

TEST_F(CatalogTest, IndexLookupFindsBuckets) {
  table_->BuildIndex({1});
  const TableIndex* index = table_->FindIndex({1});
  ASSERT_NE(index, nullptr);
  const std::vector<size_t>* bucket = index->Lookup({Value::Int64(0)});
  ASSERT_NE(bucket, nullptr);
  EXPECT_EQ(bucket->size(), 4u);  // ids 0, 3, 6, 9
  EXPECT_EQ(index->Lookup({Value::Int64(42)}), nullptr);
}

TEST_F(CatalogTest, FindIndexIsOrderInsensitive) {
  table_->BuildIndex({1, 0});
  EXPECT_NE(table_->FindIndex({0, 1}), nullptr);
  EXPECT_NE(table_->FindIndex({1, 0}), nullptr);
  EXPECT_EQ(table_->FindIndex({0}), nullptr);
}

TEST_F(CatalogTest, StatsComputeRowAndDistinctCounts) {
  const TableStats& stats = catalog_.GetStats(*table_);
  EXPECT_DOUBLE_EQ(stats.row_count, 10.0);
  EXPECT_DOUBLE_EQ(stats.columns[0].distinct_count, 10.0);
  EXPECT_DOUBLE_EQ(stats.columns[1].distinct_count, 3.0);
  // val: one NULL out of ten rows.
  EXPECT_DOUBLE_EQ(stats.columns[2].null_fraction, 0.1);
  EXPECT_DOUBLE_EQ(stats.columns[2].min_value.double_value(), 1.5);
  EXPECT_DOUBLE_EQ(stats.columns[2].max_value.double_value(), 13.5);
}

TEST_F(CatalogTest, StatsAreCachedAndInvalidated) {
  const TableStats& first = catalog_.GetStats(*table_);
  EXPECT_DOUBLE_EQ(first.row_count, 10.0);
  ASSERT_TRUE(table_->Append({Value::Int64(100), Value::Int64(1),
                              Value::Double(2.0)})
                  .ok());
  // Cached until invalidated.
  EXPECT_DOUBLE_EQ(catalog_.GetStats(*table_).row_count, 10.0);
  catalog_.InvalidateStats();
  EXPECT_DOUBLE_EQ(catalog_.GetStats(*table_).row_count, 11.0);
}

TEST_F(CatalogTest, EmptyTableStats) {
  Table* empty = *catalog_.CreateTable("e", {{"x", DataType::kInt64, true}});
  const TableStats& stats = catalog_.GetStats(*empty);
  EXPECT_DOUBLE_EQ(stats.row_count, 0.0);
  EXPECT_DOUBLE_EQ(stats.columns[0].distinct_count, 1.0);  // clamped
}

/// The straightforward per-column statistics ComputeStats must reproduce:
/// one scan per column, a node-based set of Value::Hash results, and
/// min/max by TotalCompare with the first occurrence winning ties.
TableStats ReferenceStats(const Table& table) {
  TableStats stats;
  stats.row_count = static_cast<double>(table.num_rows());
  stats.columns.resize(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    ColumnStats& cs = stats.columns[c];
    std::unordered_set<size_t> hashes;
    size_t nulls = 0;
    bool have_minmax = false;
    for (const Row& row : table.rows()) {
      const Value& v = row[c];
      if (v.is_null()) {
        ++nulls;
        continue;
      }
      hashes.insert(v.Hash());
      if (!have_minmax) {
        cs.min_value = v;
        cs.max_value = v;
        have_minmax = true;
      } else {
        if (v.TotalCompare(cs.min_value) < 0) cs.min_value = v;
        if (v.TotalCompare(cs.max_value) > 0) cs.max_value = v;
      }
    }
    cs.distinct_count =
        hashes.empty() ? 1.0 : static_cast<double>(hashes.size());
    cs.null_fraction = table.num_rows() == 0
                           ? 0.0
                           : static_cast<double>(nulls) / table.num_rows();
  }
  return stats;
}

/// Identity, not SQL equality: same NULL-ness, same type tag, and for
/// doubles the same bits (so -0.0 vs 0.0 and NaN payloads count).
bool SameValue(const Value& a, const Value& b) {
  if (a.is_null() != b.is_null() || a.type() != b.type()) return false;
  if (a.is_null()) return true;
  if (a.type() == DataType::kDouble) {
    const double x = a.double_value();
    const double y = b.double_value();
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  }
  return a.TotalCompare(b) == 0;
}

void ExpectStatsMatchReference(const Table& table) {
  const TableStats got = ComputeStats(table);
  const TableStats want = ReferenceStats(table);
  ASSERT_EQ(got.row_count, want.row_count) << table.name();
  ASSERT_EQ(got.columns.size(), want.columns.size()) << table.name();
  for (size_t c = 0; c < want.columns.size(); ++c) {
    const ColumnStats& g = got.columns[c];
    const ColumnStats& w = want.columns[c];
    const std::string where = table.name() + "." + table.columns()[c].name;
    EXPECT_EQ(g.distinct_count, w.distinct_count) << where;
    EXPECT_EQ(g.null_fraction, w.null_fraction) << where;
    EXPECT_TRUE(SameValue(g.min_value, w.min_value)) << where;
    EXPECT_TRUE(SameValue(g.max_value, w.max_value)) << where;
  }
}

TEST(StatsEquivalenceTest, TpchTablesMatchPerColumnReference) {
  Catalog catalog;
  TpchGenOptions options;
  options.scale_factor = 0.005;
  ASSERT_TRUE(GenerateTpch(&catalog, options).ok());
  for (const std::string& name : catalog.TableNames()) {
    ExpectStatsMatchReference(*catalog.FindTable(name));
  }
}

TEST(StatsEquivalenceTest, DifftestTablesMatchPerColumnReference) {
  Catalog catalog;
  ASSERT_TRUE(BuildDifftestCatalog(&catalog, 20260806).ok());
  for (const std::string& name : catalog.TableNames()) {
    ExpectStatsMatchReference(*catalog.FindTable(name));
  }
}

// NULLs, signed zeros, NaNs, a hash-zero value and int64/double twins
// (3 and 3.0 group together and hash alike) in one column.
TEST(StatsEquivalenceTest, HostileValuesMatchPerColumnReference) {
  Catalog catalog;
  Table* t = *catalog.CreateTable("h", {{"mixed", DataType::kDouble, true},
                                        {"ints", DataType::kInt64, true}});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Value> mixed = {
      Value::Null(DataType::kDouble), Value::Double(-0.0), Value::Double(0.0),
      Value::Int64(0), Value::Double(nan), Value::Double(-nan),
      Value::Int64(3), Value::Double(3.0), Value::Double(2.5),
      Value::Int64(-7), Value::Double(-7.0), Value::Int64(INT64_MAX),
      Value::Double(1e300), Value::Double(-1e300)};
  for (int i = 0; i < 200; ++i) {
    const Value& v = mixed[static_cast<size_t>(i * 7) % mixed.size()];
    ASSERT_TRUE(t->Append({v, i % 5 == 0 ? Value::Null()
                                         : Value::Int64((i % 37) * 1024)})
                    .ok());
  }
  ExpectStatsMatchReference(*t);
}

}  // namespace
}  // namespace orq
