// Integration tests over generated TPC-H data: every evaluation query must
// run under every engine configuration and produce identical results —
// correctness of each rewrite and the paper's syntax-independence claim.
#include <algorithm>
#include <gtest/gtest.h>

#include "engine/engine.h"
#include "obs/report.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"

namespace orq {
namespace {

Catalog* SharedTpch() {
  static Catalog* catalog = [] {
    auto* c = new Catalog();
    TpchGenOptions options;
    options.scale_factor = 0.005;
    Status s = GenerateTpch(c, options);
    if (!s.ok()) {
      ADD_FAILURE() << s.ToString();
    }
    return c;
  }();
  return catalog;
}

std::vector<std::string> Canonical(const QueryResult& result) {
  std::vector<std::string> rows;
  rows.reserve(result.rows.size());
  for (const Row& row : result.rows) {
    // Round doubles so plans that reassociate float additions agree.
    std::string line;
    for (const Value& v : row) {
      if (!v.is_null() && v.type() == DataType::kDouble) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.4f|", v.double_value());
        line += buf;
      } else {
        line += v.ToString() + "|";
      }
    }
    rows.push_back(std::move(line));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

class TpchQueryTest : public ::testing::TestWithParam<TpchQuery> {};

TEST_P(TpchQueryTest, AllConfigurationsAgree) {
  const TpchQuery& query = GetParam();
  Catalog* catalog = SharedTpch();

  QueryEngine reference(catalog, EngineOptions::Full());
  Result<QueryResult> expected = reference.Execute(query.sql);
  ASSERT_TRUE(expected.ok()) << query.id << ": "
                             << expected.status().ToString();
  std::vector<std::string> expected_rows = Canonical(*expected);

  struct NamedConfig {
    const char* name;
    EngineOptions options;
  };
  const NamedConfig configs[] = {
      {"correlated-only", EngineOptions::CorrelatedOnly()},
      {"no-groupby-opts", EngineOptions::NoGroupByOptimizations()},
      {"no-segment-apply", EngineOptions::NoSegmentApply()},
  };
  for (const NamedConfig& config : configs) {
    // Q18's IN-with-HAVING subquery is uncorrelated inside; the
    // correlated-only configuration re-aggregates all of lineitem per
    // outer row (minutes even at this scale). That gap *is* the paper's
    // point — it is measured in bench_fig8_suite, not re-verified here.
    if (query.id == "Q18" &&
        std::string(config.name) == "correlated-only") {
      continue;
    }
    QueryEngine engine(catalog, config.options);
    Result<QueryResult> actual = engine.Execute(query.sql);
    ASSERT_TRUE(actual.ok()) << query.id << " [" << config.name
                             << "]: " << actual.status().ToString();
    EXPECT_EQ(Canonical(*actual), expected_rows)
        << query.id << " differs under " << config.name;
  }
}

std::vector<std::string> ExactRows(const QueryResult& result) {
  std::vector<std::string> rows;
  for (const Row& row : result.rows) rows.push_back(RowToString(row));
  return rows;
}

// Operator name and rows_out per node, preorder.
void FlattenStats(const PlanStatsNode& node,
                  std::vector<std::pair<std::string, int64_t>>* out) {
  out->emplace_back(node.name, node.stats.rows_out);
  for (const PlanStatsNode& child : node.children) FlattenStats(child, out);
}

// Observed Execute, ExecuteParams with no values and ExecuteAnalyzed run
// through one plan-and-run lane: with the plan cache off and on (a cold
// miss, then a hit) they agree on the rows, rows_produced, the per-operator
// stats tree and the cache outcome.
TEST_P(TpchQueryTest, ObservedExecuteMatchesAnalyzed) {
  const TpchQuery& query = GetParam();
  for (bool cache : {false, true}) {
    EngineOptions options = EngineOptions::Full();
    options.plan_cache.enable = cache;
    QueryEngine plain(SharedTpch(), options);
    QueryEngine analyzer(SharedTpch(), options);
    const CacheOutcome expected_cache[] = {
        cache ? CacheOutcome::kMiss : CacheOutcome::kOff,
        cache ? CacheOutcome::kHit : CacheOutcome::kOff};
    for (int run = 0; run < 2; ++run) {
      SCOPED_TRACE(query.id + (cache ? " cache run " : " run ") +
                   std::to_string(run));
      QueryObservation observe;
      ExecControl control;
      control.observe = &observe;
      Result<QueryResult> executed = plain.Execute(query.sql, control);
      ASSERT_TRUE(executed.ok()) << executed.status().ToString();
      Result<AnalyzedQuery> analyzed = analyzer.ExecuteAnalyzed(query.sql);
      ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
      Result<QueryResult> via_params = plain.ExecuteParams(query.sql, {});
      ASSERT_TRUE(via_params.ok()) << via_params.status().ToString();

      EXPECT_EQ(ExactRows(*executed), ExactRows(analyzed->result));
      EXPECT_EQ(ExactRows(*executed), ExactRows(*via_params));
      EXPECT_EQ(executed->rows_produced, analyzed->result.rows_produced);
      EXPECT_EQ(executed->rows_produced, via_params->rows_produced);
      ASSERT_TRUE(observe.has_plan);
      EXPECT_EQ(TotalRowsOut(observe.plan), executed->rows_produced);
      EXPECT_EQ(TotalRowsOut(analyzed->plan),
                analyzed->result.rows_produced);
      std::vector<std::pair<std::string, int64_t>> observed_ops;
      std::vector<std::pair<std::string, int64_t>> analyzed_ops;
      FlattenStats(observe.plan, &observed_ops);
      FlattenStats(analyzed->plan, &analyzed_ops);
      EXPECT_EQ(observed_ops, analyzed_ops);
      EXPECT_EQ(observe.profile.cache, expected_cache[run]);
      EXPECT_EQ(analyzed->profile.cache, expected_cache[run]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Tpch, TpchQueryTest, ::testing::ValuesIn(TpchQuerySet()),
    [](const ::testing::TestParamInfo<TpchQuery>& info) {
      return info.param.id;
    });

TEST(TpchData, GeneratorIsDeterministic) {
  Catalog a, b;
  TpchGenOptions options;
  options.scale_factor = 0.001;
  options.build_indexes = false;
  ASSERT_TRUE(GenerateTpch(&a, options).ok());
  ASSERT_TRUE(GenerateTpch(&b, options).ok());
  for (const std::string& name : a.TableNames()) {
    Table* ta = a.FindTable(name);
    Table* tb = b.FindTable(name);
    ASSERT_EQ(ta->num_rows(), tb->num_rows()) << name;
    for (size_t i = 0; i < ta->num_rows(); ++i) {
      ASSERT_EQ(RowToString(ta->rows()[i]), RowToString(tb->rows()[i]))
          << name << " row " << i;
    }
  }
}

TEST(TpchData, ReferentialIntegrity) {
  Catalog* catalog = SharedTpch();
  QueryEngine engine(catalog);
  // Every order references an existing customer.
  Result<QueryResult> r = engine.Execute(
      "select count(*) from orders where o_custkey not in "
      "(select c_custkey from customer)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].int64_value(), 0);
  // Every lineitem references an existing order.
  r = engine.Execute(
      "select count(*) from lineitem where l_orderkey not in "
      "(select o_orderkey from orders)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].int64_value(), 0);
}

}  // namespace
}  // namespace orq
