// Tests for the TPC-H generator: schema shape, scaling formulas, value
// domains, key integrity — the invariants the benchmark queries rely on.
#include <gtest/gtest.h>

#include <set>

#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"

namespace orq {
namespace {

class TpchGenTest : public ::testing::Test {
 protected:
  static Catalog* Db() {
    static Catalog* catalog = [] {
      auto* c = new Catalog();
      TpchGenOptions options;
      options.scale_factor = 0.01;
      Status s = GenerateTpch(c, options);
      EXPECT_TRUE(s.ok()) << s.ToString();
      return c;
    }();
    return catalog;
  }
};

TEST_F(TpchGenTest, AllEightTablesExist) {
  for (const char* name : {"region", "nation", "supplier", "customer",
                           "part", "partsupp", "orders", "lineitem"}) {
    EXPECT_NE(Db()->FindTable(name), nullptr) << name;
  }
}

TEST_F(TpchGenTest, RowCountFormulas) {
  EXPECT_EQ(Db()->FindTable("region")->num_rows(), 5u);
  EXPECT_EQ(Db()->FindTable("nation")->num_rows(), 25u);
  EXPECT_EQ(Db()->FindTable("supplier")->num_rows(), 100u);   // 10000 * SF
  EXPECT_EQ(Db()->FindTable("customer")->num_rows(), 1500u);  // 150000 * SF
  EXPECT_EQ(Db()->FindTable("part")->num_rows(), 2000u);      // 200000 * SF
  EXPECT_EQ(Db()->FindTable("partsupp")->num_rows(), 8000u);  // 4 per part
  EXPECT_EQ(Db()->FindTable("orders")->num_rows(), 15000u);   // 10 per cust
  // lineitem: 1-7 per order.
  size_t lines = Db()->FindTable("lineitem")->num_rows();
  EXPECT_GE(lines, 15000u);
  EXPECT_LE(lines, 7u * 15000u);
}

TEST_F(TpchGenTest, PrimaryKeysAreUnique) {
  for (const char* name : {"customer", "orders", "part", "supplier"}) {
    Table* table = Db()->FindTable(name);
    std::set<int64_t> keys;
    for (const Row& row : table->rows()) {
      EXPECT_TRUE(keys.insert(row[0].int64_value()).second)
          << name << " duplicate key " << row[0].int64_value();
    }
  }
  // Composite keys.
  Table* partsupp = Db()->FindTable("partsupp");
  std::set<std::pair<int64_t, int64_t>> ps_keys;
  for (const Row& row : partsupp->rows()) {
    EXPECT_TRUE(ps_keys
                    .insert({row[0].int64_value(), row[1].int64_value()})
                    .second);
  }
}

TEST_F(TpchGenTest, ForeignKeysInRange) {
  Table* orders = Db()->FindTable("orders");
  int64_t customers =
      static_cast<int64_t>(Db()->FindTable("customer")->num_rows());
  for (const Row& row : orders->rows()) {
    int64_t cust = row[1].int64_value();
    EXPECT_GE(cust, 1);
    EXPECT_LE(cust, customers);
  }
  Table* nation = Db()->FindTable("nation");
  for (const Row& row : nation->rows()) {
    int64_t region = row[2].int64_value();
    EXPECT_GE(region, 0);
    EXPECT_LE(region, 4);
  }
}

TEST_F(TpchGenTest, ValueVocabularies) {
  Table* part = Db()->FindTable("part");
  int brand_ordinal = part->ColumnOrdinal("p_brand");
  int size_ordinal = part->ColumnOrdinal("p_size");
  bool saw_q17_brand = false;
  for (const Row& row : part->rows()) {
    const std::string& brand = row[brand_ordinal].string_value();
    ASSERT_EQ(brand.substr(0, 6), "Brand#");
    saw_q17_brand |= brand == "Brand#23";
    int64_t size = row[size_ordinal].int64_value();
    EXPECT_GE(size, 1);
    EXPECT_LE(size, 50);
  }
  EXPECT_TRUE(saw_q17_brand) << "Q17's Brand#23 must exist in the domain";
}

TEST_F(TpchGenTest, LineitemDateOrdering) {
  Table* lineitem = Db()->FindTable("lineitem");
  int ship = lineitem->ColumnOrdinal("l_shipdate");
  int receipt = lineitem->ColumnOrdinal("l_receiptdate");
  for (const Row& row : lineitem->rows()) {
    EXPECT_LT(row[ship].date_value(), row[receipt].date_value());
  }
}

TEST_F(TpchGenTest, DifferentSeedsGiveDifferentData) {
  Catalog a, b;
  TpchGenOptions options;
  options.scale_factor = 0.001;
  options.build_indexes = false;
  ASSERT_TRUE(GenerateTpch(&a, options).ok());
  options.seed = options.seed + 1;
  ASSERT_TRUE(GenerateTpch(&b, options).ok());
  // Same shape, different content.
  ASSERT_EQ(a.FindTable("customer")->num_rows(),
            b.FindTable("customer")->num_rows());
  EXPECT_NE(RowToString(a.FindTable("customer")->rows()[0]),
            RowToString(b.FindTable("customer")->rows()[0]));
}

TEST_F(TpchGenTest, QuerySetWellFormed) {
  EXPECT_EQ(TpchQuerySet().size(), 10u);
  int with_subquery = 0;
  for (const TpchQuery& query : TpchQuerySet()) {
    EXPECT_FALSE(query.sql.empty());
    EXPECT_FALSE(query.title.empty());
    with_subquery += query.has_subquery ? 1 : 0;
  }
  EXPECT_EQ(with_subquery, 9);  // all but Q1
  ASSERT_NE(GetTpchQuery("Q17"), nullptr);
  EXPECT_EQ(GetTpchQuery("Q17")->id, "Q17");
}

// An id outside the set is a lookup miss, not a crash: callers taking ids
// from the command line report it and print their usage.
TEST_F(TpchGenTest, UnknownQueryIdIsNull) {
  EXPECT_EQ(GetTpchQuery("21"), nullptr);
  EXPECT_EQ(GetTpchQuery("Q99"), nullptr);
  EXPECT_EQ(GetTpchQuery(""), nullptr);
}

}  // namespace
}  // namespace orq
