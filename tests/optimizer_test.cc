// Tests for the cost-based optimizer's transformation rules (paper
// section 3): each rule's alternatives are executed against the original
// plan and must produce identical row multisets; plan-shape assertions
// verify the rules fire on the scenarios the paper describes.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>

#include "algebra/printer.h"
#include "algebra/props.h"
#include "engine/engine.h"
#include "engine/plan_cache.h"
#include "opt/cost.h"
#include "opt/rules.h"
#include "tests/test_util.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"

namespace orq {
namespace {

int CountKind(const RelExprPtr& node, RelKind kind) {
  int n = node->kind == kind ? 1 : 0;
  for (const RelExprPtr& child : node->children) n += CountKind(child, kind);
  return n;
}

/// First node in pre-order that satisfies `pred`, or null.
RelExprPtr FindNode(const RelExprPtr& node,
                    const std::function<bool(const RelExpr&)>& pred) {
  if (pred(*node)) return node;
  for (const RelExprPtr& child : node->children) {
    if (RelExprPtr found = FindNode(child, pred)) return found;
  }
  return nullptr;
}

/// Names of the tables the subtree reads.
std::set<std::string> Tables(const RelExprPtr& node) {
  std::set<std::string> out;
  if (node->kind == RelKind::kGet) out.insert(node->table->name());
  for (const RelExprPtr& child : node->children) {
    std::set<std::string> below = Tables(child);
    out.insert(below.begin(), below.end());
  }
  return out;
}

class RuleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    columns_ = std::make_shared<ColumnManager>();
    dim_ = *catalog_.CreateTable("dim", {{"dk", DataType::kInt64, false},
                                         {"dv", DataType::kInt64, false}});
    dim_->SetPrimaryKey({0});
    for (int i = 1; i <= 4; ++i) {
      ASSERT_TRUE(
          dim_->Append({Value::Int64(i), Value::Int64(i % 2)}).ok());
    }
    fact_ = *catalog_.CreateTable("fact", {{"fk", DataType::kInt64, false},
                                           {"fd", DataType::kInt64, false},
                                           {"fv", DataType::kInt64, true}});
    fact_->SetPrimaryKey({0});
    int id = 0;
    for (int d = 1; d <= 4; ++d) {
      for (int j = 0; j < 5; ++j) {
        ASSERT_TRUE(fact_->Append({Value::Int64(++id), Value::Int64(d),
                                   j == 0 ? Value::Null()
                                          : Value::Int64(j * d)})
                        .ok());
      }
    }
  }

  RelExprPtr Get(Table* table, std::map<std::string, ColumnId>* ids) {
    std::vector<ColumnId> cols;
    for (const ColumnSpec& spec : table->columns()) {
      ColumnId id = columns_->NewColumn(spec.name, spec.type, spec.nullable);
      cols.push_back(id);
      (*ids)[spec.name] = id;
    }
    return MakeGet(table, std::move(cols));
  }

  ScalarExprPtr Ref(const std::map<std::string, ColumnId>& ids,
                    const std::string& name) {
    return CRef(*columns_, ids.at(name));
  }

  /// Applies `rule` at the root and checks every alternative computes the
  /// same multiset over the original tree's output columns (intersected
  /// with the alternative's, which may legally be wider).
  void ExpectAlternativesEquivalent(Rule* rule, const RelExprPtr& tree,
                                    int expect_min_alternatives = 1) {
    CostModel cost(&catalog_);
    std::vector<RelExprPtr> alternatives =
        rule->Apply(tree, columns_.get(), &cost);
    EXPECT_GE(static_cast<int>(alternatives.size()),
              expect_min_alternatives)
        << rule->name() << " produced no alternative";
    std::vector<ColumnId> out = tree->OutputColumns();
    Result<std::vector<Row>> expected = ExecLogical(tree, *columns_, out);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    for (const RelExprPtr& alt : alternatives) {
      ColumnSet alt_out = alt->OutputSet();
      for (ColumnId id : out) {
        ASSERT_TRUE(alt_out.Contains(id))
            << rule->name() << " lost column #" << id << "\n"
            << PrintRelTree(*alt, columns_.get());
      }
      Result<std::vector<Row>> actual = ExecLogical(alt, *columns_, out);
      ASSERT_TRUE(actual.ok())
          << rule->name() << ": " << actual.status().ToString();
      EXPECT_EQ(CanonicalRows(*expected), CanonicalRows(*actual))
          << rule->name() << " alternative differs:\n"
          << PrintRelTree(*alt, columns_.get());
    }
  }

  /// G[dk, dv](dim ⋈ fact on fk-join) with sum/count over fact.
  RelExprPtr GroupOverJoin(std::map<std::string, ColumnId>* d,
                           std::map<std::string, ColumnId>* f,
                           std::vector<AggItem>* aggs_out = nullptr) {
    RelExprPtr gd = Get(dim_, d);
    RelExprPtr gf = Get(fact_, f);
    RelExprPtr join = MakeJoin(JoinKind::kInner, gd, gf,
                               Eq(Ref(*f, "fd"), Ref(*d, "dk")));
    ColumnId total = columns_->NewColumn("total", DataType::kInt64, true);
    ColumnId cnt = columns_->NewColumn("cnt", DataType::kInt64, false);
    std::vector<AggItem> aggs = {
        AggItem{AggFunc::kSum, Ref(*f, "fv"), total, false},
        AggItem{AggFunc::kCountStar, nullptr, cnt, false}};
    if (aggs_out != nullptr) *aggs_out = aggs;
    return MakeGroupBy(join, ColumnSet{d->at("dk"), d->at("dv")}, aggs);
  }

  Catalog catalog_;
  ColumnManagerPtr columns_;
  Table* dim_ = nullptr;
  Table* fact_ = nullptr;
};

TEST_F(RuleTest, JoinCommute) {
  std::map<std::string, ColumnId> d, f;
  RelExprPtr gd = Get(dim_, &d);
  RelExprPtr gf = Get(fact_, &f);
  RelExprPtr join = MakeJoin(JoinKind::kInner, gd, gf,
                             Eq(Ref(f, "fd"), Ref(d, "dk")));
  auto rule = MakeJoinCommuteRule();
  ExpectAlternativesEquivalent(rule.get(), join);
}

TEST_F(RuleTest, GroupByPushBelowJoin) {
  std::map<std::string, ColumnId> d, f;
  RelExprPtr tree = GroupOverJoin(&d, &f);
  auto rule = MakeGroupByPushBelowJoinRule();
  ExpectAlternativesEquivalent(rule.get(), tree);
  // Shape: the alternative has the GroupBy below the join.
  CostModel cost(&catalog_);
  std::vector<RelExprPtr> alts = rule->Apply(tree, columns_.get(), &cost);
  ASSERT_FALSE(alts.empty());
  const RelExpr* join = alts[0].get();
  while (join->kind != RelKind::kJoin) join = join->children[0].get();
  EXPECT_TRUE(join->children[0]->kind == RelKind::kGroupBy ||
              join->children[1]->kind == RelKind::kGroupBy);
}

TEST_F(RuleTest, GroupByPushBelowJoinRejectedWithoutKey) {
  // Group only by dv (not a key of dim): condition (2) fails.
  std::map<std::string, ColumnId> d, f;
  RelExprPtr gd = Get(dim_, &d);
  RelExprPtr gf = Get(fact_, &f);
  RelExprPtr join = MakeJoin(JoinKind::kInner, gd, gf,
                             Eq(Ref(f, "fd"), Ref(d, "dk")));
  ColumnId total = columns_->NewColumn("total", DataType::kInt64, true);
  RelExprPtr tree =
      MakeGroupBy(join, ColumnSet{d.at("dv")},
                  {AggItem{AggFunc::kSum, Ref(f, "fv"), total, false}});
  auto rule = MakeGroupByPushBelowJoinRule();
  CostModel cost(&catalog_);
  EXPECT_TRUE(rule->Apply(tree, columns_.get(), &cost).empty());
}

TEST_F(RuleTest, GroupByPullAboveJoin) {
  // dim ⋈ G[fd](fact): aggregate below the join gets pulled up.
  std::map<std::string, ColumnId> d, f;
  RelExprPtr gd = Get(dim_, &d);
  RelExprPtr gf = Get(fact_, &f);
  ColumnId total = columns_->NewColumn("total", DataType::kInt64, true);
  RelExprPtr group =
      MakeGroupBy(gf, ColumnSet{f.at("fd")},
                  {AggItem{AggFunc::kSum, Ref(f, "fv"), total, false}});
  RelExprPtr tree = MakeJoin(JoinKind::kInner, gd, group,
                             Eq(Ref(d, "dk"), Ref(f, "fd")));
  auto rule = MakeGroupByPullAboveJoinRule();
  ExpectAlternativesEquivalent(rule.get(), tree);
}

TEST_F(RuleTest, GroupByPullAboveJoinSplitsAggregatePredicates) {
  // Join predicate references the aggregate output: pulled above, the
  // conjunct must become a filter.
  std::map<std::string, ColumnId> d, f;
  RelExprPtr gd = Get(dim_, &d);
  RelExprPtr gf = Get(fact_, &f);
  ColumnId total = columns_->NewColumn("total", DataType::kInt64, true);
  RelExprPtr group =
      MakeGroupBy(gf, ColumnSet{f.at("fd")},
                  {AggItem{AggFunc::kSum, Ref(f, "fv"), total, false}});
  RelExprPtr tree = MakeJoin(
      JoinKind::kInner, gd, group,
      MakeAnd2(Eq(Ref(d, "dk"), Ref(f, "fd")),
               MakeCompare(CompareOp::kGt, CRef(total, DataType::kInt64),
                           LitInt(10))));
  auto rule = MakeGroupByPullAboveJoinRule();
  ExpectAlternativesEquivalent(rule.get(), tree);
}

TEST_F(RuleTest, GroupByPushBelowOuterJoin) {
  // G[dk,dv](dim LOJ fact): count aggregates need the computing project
  // (paper section 3.2). Row with no fact matches must yield count(*)=1,
  // count(fv)=0, sum=NULL.
  std::map<std::string, ColumnId> d, f;
  RelExprPtr gd = Get(dim_, &d);
  // Restrict fact to fd <= 2 so dim rows 3, 4 are unmatched.
  RelExprPtr gf = Get(fact_, &f);
  RelExprPtr fact_filtered = MakeSelect(
      gf, MakeCompare(CompareOp::kLe, Ref(f, "fd"), LitInt(2)));
  RelExprPtr join = MakeJoin(JoinKind::kLeftOuter, gd, fact_filtered,
                             Eq(Ref(f, "fd"), Ref(d, "dk")));
  ColumnId total = columns_->NewColumn("total", DataType::kInt64, true);
  ColumnId cnt_star = columns_->NewColumn("cnt", DataType::kInt64, false);
  ColumnId cnt_v = columns_->NewColumn("cntv", DataType::kInt64, false);
  RelExprPtr tree = MakeGroupBy(
      join, ColumnSet{d.at("dk"), d.at("dv")},
      {AggItem{AggFunc::kSum, Ref(f, "fv"), total, false},
       AggItem{AggFunc::kCountStar, nullptr, cnt_star, false},
       AggItem{AggFunc::kCount, Ref(f, "fv"), cnt_v, false}});
  auto rule = MakeGroupByPushBelowOuterJoinRule();
  ExpectAlternativesEquivalent(rule.get(), tree);
}

TEST_F(RuleTest, LocalAggregateSplit) {
  std::map<std::string, ColumnId> d, f;
  RelExprPtr tree = GroupOverJoin(&d, &f);
  auto rule = MakeLocalAggregateSplitRule();
  ExpectAlternativesEquivalent(rule.get(), tree);
  // Shape: a LocalGroupBy below the join, global GroupBy above.
  CostModel cost(&catalog_);
  std::vector<RelExprPtr> alts = rule->Apply(tree, columns_.get(), &cost);
  ASSERT_FALSE(alts.empty());
  EXPECT_EQ(CountKind(alts[0], RelKind::kLocalGroupBy), 1);
  EXPECT_EQ(alts[0]->kind, RelKind::kGroupBy);
}

TEST_F(RuleTest, LocalAggregateSplitScalar) {
  // Scalar aggregate over a join also splits (grouping freedom, 3.3).
  std::map<std::string, ColumnId> d, f;
  RelExprPtr gd = Get(dim_, &d);
  RelExprPtr gf = Get(fact_, &f);
  RelExprPtr join = MakeJoin(JoinKind::kInner, gd, gf,
                             Eq(Ref(f, "fd"), Ref(d, "dk")));
  ColumnId total = columns_->NewColumn("total", DataType::kInt64, true);
  RelExprPtr tree = MakeScalarGroupBy(
      join, {AggItem{AggFunc::kSum, Ref(f, "fv"), total, false}});
  auto rule = MakeLocalAggregateSplitRule();
  ExpectAlternativesEquivalent(rule.get(), tree);
}

TEST_F(RuleTest, LocalAggregateSplitRejectsMax1Row) {
  std::map<std::string, ColumnId> d, f;
  RelExprPtr gd = Get(dim_, &d);
  RelExprPtr gf = Get(fact_, &f);
  RelExprPtr join = MakeJoin(JoinKind::kInner, gd, gf,
                             Eq(Ref(f, "fd"), Ref(d, "dk")));
  ColumnId one = columns_->NewColumn("one", DataType::kInt64, true);
  RelExprPtr tree = MakeGroupBy(
      join, ColumnSet{d.at("dk")},
      {AggItem{AggFunc::kMax1Row, Ref(f, "fv"), one, false}});
  auto rule = MakeLocalAggregateSplitRule();
  CostModel cost(&catalog_);
  EXPECT_TRUE(rule->Apply(tree, columns_.get(), &cost).empty());
}

TEST_F(RuleTest, SemiJoinToJoinDistinct) {
  // dim ⋉ fact -> distinct(dim ⋈ fact) (paper section 2.4); fan-out on
  // fact means the join produces duplicates the GroupBy must collapse.
  std::map<std::string, ColumnId> d, f;
  RelExprPtr gd = Get(dim_, &d);
  RelExprPtr gf = Get(fact_, &f);
  RelExprPtr semi = MakeJoin(JoinKind::kLeftSemi, gd, gf,
                             Eq(Ref(f, "fd"), Ref(d, "dk")));
  auto rule = MakeSemiJoinToJoinDistinctRule();
  ExpectAlternativesEquivalent(rule.get(), semi);
  CostModel cost(&catalog_);
  std::vector<RelExprPtr> alts = rule->Apply(semi, columns_.get(), &cost);
  ASSERT_EQ(alts.size(), 1u);
  EXPECT_EQ(CountKind(alts[0], RelKind::kGroupBy), 1);
}

TEST_F(RuleTest, SemiJoinToJoinDistinctNeedsKey) {
  // fact grouped... use a keyless left side: a projection dropping the key.
  std::map<std::string, ColumnId> d, f;
  RelExprPtr gd = Get(dim_, &d);
  RelExprPtr keyless = MakeProject(gd, {}, ColumnSet{d.at("dv")});
  RelExprPtr gf = Get(fact_, &f);
  RelExprPtr semi = MakeJoin(JoinKind::kLeftSemi, keyless, gf,
                             Eq(Ref(f, "fd"), Ref(d, "dv")));
  auto rule = MakeSemiJoinToJoinDistinctRule();
  CostModel cost(&catalog_);
  EXPECT_TRUE(rule->Apply(semi, columns_.get(), &cost).empty());
}

TEST_F(RuleTest, SemiJoinPushBelowGroupBy) {
  for (JoinKind kind : {JoinKind::kLeftSemi, JoinKind::kLeftAnti}) {
    // (G[fd](fact)) ⋉ dim on fd = dk: the semijoin predicate only uses a
    // grouping column, so it pushes below the aggregate (section 3.1).
    std::map<std::string, ColumnId> d, f;
    RelExprPtr gd = Get(dim_, &d);
    RelExprPtr gf = Get(fact_, &f);
    ColumnId total = columns_->NewColumn("total", DataType::kInt64, true);
    RelExprPtr group =
        MakeGroupBy(gf, ColumnSet{f.at("fd")},
                    {AggItem{AggFunc::kSum, Ref(f, "fv"), total, false}});
    RelExprPtr dim_filtered = MakeSelect(
        gd, MakeCompare(CompareOp::kEq, Ref(d, "dv"), LitInt(1)));
    RelExprPtr semi = MakeJoin(kind, group, dim_filtered,
                               Eq(Ref(f, "fd"), Ref(d, "dk")));
    auto rule = MakeSemiJoinPushBelowGroupByRule();
    SCOPED_TRACE(JoinKindName(kind));
    ExpectAlternativesEquivalent(rule.get(), semi);
    CostModel cost(&catalog_);
    std::vector<RelExprPtr> alts = rule->Apply(semi, columns_.get(), &cost);
    ASSERT_EQ(alts.size(), 1u);
    EXPECT_EQ(alts[0]->kind, RelKind::kGroupBy);
  }
}

TEST_F(RuleTest, SemiJoinNotPushedWhenPredicateUsesAggregate) {
  std::map<std::string, ColumnId> d, f;
  RelExprPtr gd = Get(dim_, &d);
  RelExprPtr gf = Get(fact_, &f);
  ColumnId total = columns_->NewColumn("total", DataType::kInt64, true);
  RelExprPtr group =
      MakeGroupBy(gf, ColumnSet{f.at("fd")},
                  {AggItem{AggFunc::kSum, Ref(f, "fv"), total, false}});
  RelExprPtr semi = MakeJoin(
      JoinKind::kLeftSemi, group, gd,
      MakeCompare(CompareOp::kGt, CRef(total, DataType::kInt64),
                  Ref(d, "dk")));
  auto rule = MakeSemiJoinPushBelowGroupByRule();
  CostModel cost(&catalog_);
  EXPECT_TRUE(rule->Apply(semi, columns_.get(), &cost).empty());
}

TEST_F(RuleTest, CorrelatedReintroduction) {
  std::map<std::string, ColumnId> d, f;
  RelExprPtr gd = Get(dim_, &d);
  RelExprPtr gf = Get(fact_, &f);
  for (JoinKind kind : {JoinKind::kInner, JoinKind::kLeftOuter,
                        JoinKind::kLeftSemi, JoinKind::kLeftAnti}) {
    std::map<std::string, ColumnId> d2, f2;
    RelExprPtr gd2 = Get(dim_, &d2);
    RelExprPtr gf2 = Get(fact_, &f2);
    RelExprPtr join =
        MakeJoin(kind, gd2, gf2, Eq(Ref(f2, "fd"), Ref(d2, "dk")));
    auto rule = MakeCorrelatedReintroductionRule();
    SCOPED_TRACE(JoinKindName(kind));
    ExpectAlternativesEquivalent(rule.get(), join);
    // And the alternative is an Apply.
    CostModel cost(&catalog_);
    std::vector<RelExprPtr> alts = rule->Apply(join, columns_.get(), &cost);
    ASSERT_FALSE(alts.empty());
    EXPECT_EQ(alts[0]->kind, RelKind::kApply);
  }
}

TEST_F(RuleTest, SegmentApplyIntroOnDecorrelatedShape) {
  // G[fk...](fact ⋈ fact2 on fd = fd2) with aggregates over fact2 — the
  // canonical shape correlation removal produces (section 3.4.1).
  std::map<std::string, ColumnId> f1, f2;
  RelExprPtr gf1 = Get(fact_, &f1);
  RelExprPtr gf2 = Get(fact_, &f2);
  RelExprPtr join = MakeJoin(JoinKind::kLeftOuter, gf1, gf2,
                             Eq(Ref(f2, "fd"), Ref(f1, "fd")));
  ColumnId avg_sum = columns_->NewColumn("s", DataType::kInt64, true);
  ColumnId avg_cnt = columns_->NewColumn("c", DataType::kInt64, false);
  RelExprPtr tree = MakeGroupBy(
      join, ColumnSet{f1.at("fk"), f1.at("fd"), f1.at("fv")},
      {AggItem{AggFunc::kSum, Ref(f2, "fv"), avg_sum, false},
       AggItem{AggFunc::kCount, Ref(f2, "fv"), avg_cnt, false}});
  auto rule = MakeSegmentApplyIntroRule();
  ExpectAlternativesEquivalent(rule.get(), tree);
  CostModel cost(&catalog_);
  std::vector<RelExprPtr> alts = rule->Apply(tree, columns_.get(), &cost);
  ASSERT_EQ(alts.size(), 1u);
  EXPECT_EQ(CountKind(alts[0], RelKind::kSegmentApply), 1);
  EXPECT_EQ(CountKind(alts[0], RelKind::kSegmentRef), 2);
}

TEST_F(RuleTest, SegmentApplyJoinIntroWithResidual) {
  // Pattern B (paper Fig. 6): two fact instances joined, one aggregated,
  // with a residual comparison (fv < total) that moves inside the segment.
  std::map<std::string, ColumnId> f1, f2;
  RelExprPtr gf1 = Get(fact_, &f1);
  RelExprPtr gf2 = Get(fact_, &f2);
  ColumnId total = columns_->NewColumn("total", DataType::kInt64, true);
  RelExprPtr group =
      MakeGroupBy(gf2, ColumnSet{f2.at("fd")},
                  {AggItem{AggFunc::kSum, Ref(f2, "fv"), total, false}});
  RelExprPtr tree = MakeJoin(
      JoinKind::kInner, gf1, group,
      MakeAnd2(Eq(Ref(f2, "fd"), Ref(f1, "fd")),
               MakeCompare(CompareOp::kLt, Ref(f1, "fv"),
                           CRef(total, DataType::kInt64))));
  auto rule = MakeSegmentApplyJoinIntroRule();
  ExpectAlternativesEquivalent(rule.get(), tree);
  CostModel cost(&catalog_);
  std::vector<RelExprPtr> alts = rule->Apply(tree, columns_.get(), &cost);
  ASSERT_EQ(alts.size(), 1u);
  EXPECT_EQ(CountKind(alts[0], RelKind::kSegmentApply), 1);
}

TEST_F(RuleTest, SegmentApplyIntroRejectsNonEquiPredicate) {
  std::map<std::string, ColumnId> f1, f2;
  RelExprPtr gf1 = Get(fact_, &f1);
  RelExprPtr gf2 = Get(fact_, &f2);
  RelExprPtr join = MakeJoin(
      JoinKind::kLeftOuter, gf1, gf2,
      MakeCompare(CompareOp::kLt, Ref(f2, "fd"), Ref(f1, "fd")));
  ColumnId s = columns_->NewColumn("s", DataType::kInt64, true);
  RelExprPtr tree =
      MakeGroupBy(join, ColumnSet{f1.at("fk"), f1.at("fd")},
                  {AggItem{AggFunc::kSum, Ref(f2, "fv"), s, false}});
  auto rule = MakeSegmentApplyIntroRule();
  CostModel cost(&catalog_);
  EXPECT_TRUE(rule->Apply(tree, columns_.get(), &cost).empty());
}

TEST_F(RuleTest, SegmentApplyIntroRejectsFilterOnColumnTheOtherInstanceLacks) {
  // G(sigma_{fv > 2}(fact) ⋈ fact2): the filter drops single rows of the
  // first instance, so the segments would hold fewer rows than the
  // aggregated instance. Pruning left fact2 without fv, and the check must
  // still see fv as a column of the matched instance.
  std::map<std::string, ColumnId> f1, f2;
  RelExprPtr gf1 = Get(fact_, &f1);
  RelExprPtr gf2 = Get(fact_, &f2);
  gf2->get_cols = {f2.at("fk"), f2.at("fd")};
  gf2->get_ordinals = {0, 1};
  RelExprPtr filtered =
      MakeSelect(gf1, MakeCompare(CompareOp::kGt, Ref(f1, "fv"), LitInt(2)));
  RelExprPtr join = MakeJoin(JoinKind::kInner, filtered, gf2,
                             Eq(Ref(f2, "fd"), Ref(f1, "fd")));
  ColumnId m = columns_->NewColumn("m", DataType::kInt64, true);
  RelExprPtr tree =
      MakeGroupBy(join, ColumnSet{f1.at("fk"), f1.at("fd")},
                  {AggItem{AggFunc::kMin, Ref(f2, "fk"), m, false}});
  auto rule = MakeSegmentApplyIntroRule();
  CostModel cost(&catalog_);
  EXPECT_TRUE(rule->Apply(tree, columns_.get(), &cost).empty());
}

TEST_F(RuleTest, SegmentApplySemiJoinIntro) {
  // "lineitems that are below some other quantity of the same part":
  // fact ⋉ fact2 on fd2 = fd ∧ fv < fv2 — the existential variant of
  // SegmentApply (paper 3.4.1, last paragraph), semi and anti.
  for (JoinKind kind : {JoinKind::kLeftSemi, JoinKind::kLeftAnti}) {
    std::map<std::string, ColumnId> f1, f2;
    RelExprPtr gf1 = Get(fact_, &f1);
    RelExprPtr gf2 = Get(fact_, &f2);
    RelExprPtr semi = MakeJoin(
        kind, gf1, gf2,
        MakeAnd2(Eq(Ref(f2, "fd"), Ref(f1, "fd")),
                 MakeCompare(CompareOp::kLt, Ref(f1, "fv"),
                             Ref(f2, "fv"))));
    auto rule = MakeSegmentApplySemiJoinIntroRule();
    SCOPED_TRACE(JoinKindName(kind));
    ExpectAlternativesEquivalent(rule.get(), semi);
    CostModel cost(&catalog_);
    std::vector<RelExprPtr> alts = rule->Apply(semi, columns_.get(), &cost);
    ASSERT_EQ(alts.size(), 1u);
    EXPECT_EQ(CountKind(alts[0], RelKind::kSegmentApply), 1);
  }
}

TEST_F(RuleTest, JoinPushBelowSegmentApply) {
  // Build an SA via the intro rule, then join it with dim on the segment
  // column and push the join below (paper section 3.4.2).
  std::map<std::string, ColumnId> f1, f2;
  RelExprPtr gf1 = Get(fact_, &f1);
  RelExprPtr gf2 = Get(fact_, &f2);
  RelExprPtr join = MakeJoin(JoinKind::kLeftOuter, gf1, gf2,
                             Eq(Ref(f2, "fd"), Ref(f1, "fd")));
  ColumnId s = columns_->NewColumn("s", DataType::kInt64, true);
  RelExprPtr grouped = MakeGroupBy(
      join, ColumnSet{f1.at("fk"), f1.at("fd")},
      {AggItem{AggFunc::kSum, Ref(f2, "fv"), s, false}});
  auto intro = MakeSegmentApplyIntroRule();
  CostModel cost(&catalog_);
  std::vector<RelExprPtr> sa_alts =
      intro->Apply(grouped, columns_.get(), &cost);
  ASSERT_EQ(sa_alts.size(), 1u);
  // Find the SegmentApply under the restoring Project.
  RelExprPtr sa = sa_alts[0];
  while (sa->kind != RelKind::kSegmentApply) sa = sa->children[0];

  std::map<std::string, ColumnId> d;
  RelExprPtr gd = Get(dim_, &d);
  RelExprPtr outer_join = MakeJoin(
      JoinKind::kInner, sa, gd,
      Eq(Ref(d, "dk"),
         CRef(*columns_, sa->segment_cols.ids()[0])));
  auto push = MakeJoinPushBelowSegmentApplyRule();
  ExpectAlternativesEquivalent(push.get(), outer_join);
  std::vector<RelExprPtr> pushed =
      push->Apply(outer_join, columns_.get(), &cost);
  ASSERT_EQ(pushed.size(), 1u);
  EXPECT_EQ(pushed[0]->kind, RelKind::kSegmentApply);
  EXPECT_EQ(pushed[0]->children[0]->kind, RelKind::kJoin);
}

TEST_F(RuleTest, JoinOrderNeverCrossesAnOuterJoin) {
  // dim ⋈ (fact LOJ dim2) ⋈ dim3, where dim3 joins the outer join's
  // null-supplying side: the outer join stays one leaf of the block.
  std::map<std::string, ColumnId> d1, f, d2, d3;
  RelExprPtr gd1 = Get(dim_, &d1);
  RelExprPtr gf = Get(fact_, &f);
  RelExprPtr gd2 = Get(dim_, &d2);
  RelExprPtr gd3 = Get(dim_, &d3);
  RelExprPtr loj = MakeJoin(JoinKind::kLeftOuter, gf, gd2,
                            Eq(Ref(d2, "dk"), Ref(f, "fv")));
  RelExprPtr tree = MakeJoin(
      JoinKind::kInner,
      MakeJoin(JoinKind::kInner, gd1, loj, Eq(Ref(f, "fd"), Ref(d1, "dk"))),
      gd3, Eq(Ref(d3, "dv"), Ref(d2, "dv")));
  CostModel cost(&catalog_);
  RelExprPtr ordered = OrderJoins(tree, &cost, nullptr);
  EXPECT_NE(FindNode(ordered, [&](const RelExpr& n) { return &n == loj.get(); }),
            nullptr)
      << PrintRelTree(*ordered, columns_.get());
  // The block is reordered around it (the outer join now probes dim).
  EXPECT_NE(ordered, tree);
  EXPECT_EQ(CountKind(ordered, RelKind::kJoin), 3);
  std::vector<ColumnId> out = tree->OutputColumns();
  Result<std::vector<Row>> expected = ExecLogical(tree, *columns_, out);
  Result<std::vector<Row>> actual = ExecLogical(ordered, *columns_, out);
  ASSERT_TRUE(expected.ok() && actual.ok());
  EXPECT_EQ(CanonicalRows(*expected), CanonicalRows(*actual));
}

TEST_F(RuleTest, JoinOrderTakesTheSmallestCrossProductFirst) {
  // (dim × fact) × dim2 with no predicate at all: 4x20 then x4 rows
  // against 4x4 then x20. The two dims are crossed first, and the base
  // input added last goes right.
  std::map<std::string, ColumnId> d1, f, d2;
  RelExprPtr gd1 = Get(dim_, &d1);
  RelExprPtr gf = Get(fact_, &f);
  RelExprPtr gd2 = Get(dim_, &d2);
  RelExprPtr tree = MakeJoin(
      JoinKind::kInner, MakeJoin(JoinKind::kInner, gd1, gf, nullptr), gd2,
      nullptr);
  CostModel cost(&catalog_);
  RelExprPtr ordered = OrderJoins(tree, &cost, nullptr);
  ASSERT_EQ(ordered->kind, RelKind::kJoin)
      << PrintRelTree(*ordered, columns_.get());
  EXPECT_EQ(ordered->children[1], gf) << PrintRelTree(*ordered, columns_.get());
  const RelExprPtr& first = ordered->children[0];
  ASSERT_EQ(first->kind, RelKind::kJoin);
  EXPECT_EQ(Tables(first), std::set<std::string>{"dim"});
  EXPECT_EQ(CountKind(first, RelKind::kGet), 2);
  std::vector<ColumnId> out = tree->OutputColumns();
  Result<std::vector<Row>> expected = ExecLogical(tree, *columns_, out);
  Result<std::vector<Row>> actual = ExecLogical(ordered, *columns_, out);
  ASSERT_TRUE(expected.ok() && actual.ok());
  EXPECT_EQ(CanonicalRows(*expected), CanonicalRows(*actual));
  // A two-input join is not a block to order: returned as is.
  RelExprPtr pair = MakeJoin(JoinKind::kInner, gf, gd1, nullptr);
  EXPECT_EQ(OrderJoins(pair, &cost, nullptr), pair);
}

/// TPC-H at SF 0.01, generated once for the plan-shape tests below.
Catalog* TpchCatalog() {
  static Catalog* catalog = [] {
    auto* c = new Catalog;
    TpchGenOptions options;
    options.scale_factor = 0.01;
    EXPECT_TRUE(GenerateTpch(c, options).ok());
    return c;
  }();
  return catalog;
}

QueryEngine::Compiled CompileTpch(const std::string& id) {
  QueryEngine engine(TpchCatalog(), EngineOptions::Full());
  Result<QueryEngine::Compiled> compiled =
      engine.Compile(GetTpchQuery(id)->sql);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  return *compiled;
}

bool IsSemiOrAnti(const RelExpr& n, bool anti) {
  if (n.kind == RelKind::kJoin) {
    return n.join_kind == (anti ? JoinKind::kLeftAnti : JoinKind::kLeftSemi);
  }
  return n.kind == RelKind::kApply &&
         n.apply_kind == (anti ? ApplyKind::kAnti : ApplyKind::kSemi);
}

TEST(JoinOrderTpchTest, Q21JoinsNationAndSupplierBeforeLineitem) {
  QueryEngine::Compiled q21 = CompileTpch("Q21");
  const std::string plan = PrintRelTree(*q21.optimized, q21.columns.get());
  // The smallest subtree reading both nation and supplier reads nothing
  // else: the 1-row nation filter meets supplier before lineitem.
  RelExprPtr both;
  std::function<void(const RelExprPtr&)> visit = [&](const RelExprPtr& n) {
    std::set<std::string> tables = Tables(n);
    if (tables.count("nation") && tables.count("supplier")) both = n;
    for (const RelExprPtr& child : n->children) visit(child);
  };
  visit(q21.optimized);
  ASSERT_NE(both, nullptr) << plan;
  EXPECT_EQ(Tables(both), (std::set<std::string>{"nation", "supplier"}))
      << plan;
}

TEST(JoinOrderTpchTest, Q21KeepsExistsAndNotExistsAboveTheBlock) {
  QueryEngine::Compiled q21 = CompileTpch("Q21");
  const std::string plan = PrintRelTree(*q21.optimized, q21.columns.get());
  RelExprPtr anti = FindNode(
      q21.optimized, [](const RelExpr& n) { return IsSemiOrAnti(n, true); });
  RelExprPtr semi = FindNode(
      q21.optimized, [](const RelExpr& n) { return IsSemiOrAnti(n, false); });
  ASSERT_NE(anti, nullptr) << plan;
  ASSERT_NE(semi, nullptr) << plan;
  EXPECT_EQ(anti->children[0], semi) << plan;
  EXPECT_EQ(Tables(semi->children[0]),
            (std::set<std::string>{"lineitem", "nation", "orders",
                                   "supplier"}))
      << plan;
}

TEST(JoinOrderTpchTest, Q18SemiJoinSitsOnOrders) {
  QueryEngine::Compiled q18 = CompileTpch("Q18");
  const std::string plan = PrintRelTree(*q18.optimized, q18.columns.get());
  RelExprPtr semi = FindNode(
      q18.optimized, [](const RelExpr& n) { return IsSemiOrAnti(n, false); });
  ASSERT_NE(semi, nullptr) << plan;
  ASSERT_EQ(semi->children[0]->kind, RelKind::kGet) << plan;
  EXPECT_EQ(semi->children[0]->table->name(), "orders") << plan;
}

TEST(JoinOrderTpchTest, OptimizingTheOptimizedTreeChangesNothing) {
  for (const TpchQuery& query : TpchQuerySet()) {
    SCOPED_TRACE(query.id);
    QueryEngine::Compiled compiled = CompileTpch(query.id);
    Result<RelExprPtr> again =
        OptimizeTree(compiled.optimized, TpchCatalog(),
                     compiled.columns.get(), EngineOptions::Full().optimizer);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(CanonicalizeTree(**again), CanonicalizeTree(*compiled.optimized))
        << PrintRelTree(**again, compiled.columns.get());
  }
}

TEST_F(RuleTest, Q17PlanUsesSegmentApply) {
  Catalog tpch;
  TpchGenOptions options;
  options.scale_factor = 0.01;
  ASSERT_TRUE(GenerateTpch(&tpch, options).ok());
  QueryEngine engine(&tpch, EngineOptions::Full());
  Result<QueryEngine::Compiled> compiled =
      engine.Compile(GetTpchQuery("Q17")->sql);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ(CountKind(compiled->optimized, RelKind::kSegmentApply), 1)
      << PrintRelTree(*compiled->optimized, compiled->columns.get());

  // And disabling the technique removes it.
  QueryEngine no_sa(&tpch, EngineOptions::NoSegmentApply());
  Result<QueryEngine::Compiled> compiled2 =
      no_sa.Compile(GetTpchQuery("Q17")->sql);
  ASSERT_TRUE(compiled2.ok());
  EXPECT_EQ(CountKind(compiled2->optimized, RelKind::kSegmentApply), 0);
}

TEST_F(RuleTest, CostModelPrefersIndexApplyForSmallOuter) {
  // Tiny outer + indexed inner: the optimizer should re-introduce
  // correlated execution (paper: "can actually be the best strategy").
  Catalog tpch;
  TpchGenOptions options;
  options.scale_factor = 0.01;
  ASSERT_TRUE(GenerateTpch(&tpch, options).ok());
  QueryEngine engine(&tpch, EngineOptions::Full());
  Result<QueryEngine::Compiled> compiled = engine.Compile(
      "select c_custkey from customer "
      "where c_custkey < 5 and 1000 < "
      "(select sum(o_totalprice) from orders where o_custkey = c_custkey)");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_GE(CountKind(compiled->optimized, RelKind::kApply), 1)
      << PrintRelTree(*compiled->optimized, compiled->columns.get());
}

}  // namespace
}  // namespace orq
