// Tests for correlation removal: each identity of Fig. 4, Max1row handling,
// outerjoin simplification (including derivation through GroupBy), and
// predicate pushdown. Every rewrite is validated by executing the Apply
// form and the normalized form and comparing row multisets.
//
// NOTE: Get(...) populates the name->id map, so it is always hoisted into a
// local before Ref(...) is used (argument evaluation order is unspecified).
#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "algebra/expr_util.h"
#include "algebra/printer.h"
#include "algebra/props.h"
#include "catalog/table.h"
#include "difftest/dataset.h"
#include "engine/engine.h"
#include "normalize/apply_removal.h"
#include "normalize/normalizer.h"
#include "normalize/oj_simplify.h"
#include "normalize/pushdown.h"
#include "normalize/subquery_class.h"
#include "tests/test_util.h"

namespace orq {
namespace {

int CountKind(const RelExprPtr& node, RelKind kind) {
  int n = node->kind == kind ? 1 : 0;
  for (const RelExprPtr& child : node->children) n += CountKind(child, kind);
  return n;
}

class NormalizeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    columns_ = std::make_shared<ColumnManager>();
    r_ = *catalog_.CreateTable("r", {{"rk", DataType::kInt64, false},
                                     {"rv", DataType::kInt64, true}});
    r_->SetPrimaryKey({0});
    ASSERT_TRUE(r_->Append({Value::Int64(1), Value::Int64(10)}).ok());
    ASSERT_TRUE(r_->Append({Value::Int64(2), Value::Int64(10)}).ok());
    ASSERT_TRUE(r_->Append({Value::Int64(3), Value::Int64(20)}).ok());
    ASSERT_TRUE(r_->Append({Value::Int64(4), Value::Null()}).ok());

    e_ = *catalog_.CreateTable("e", {{"ek", DataType::kInt64, false},
                                     {"fk", DataType::kInt64, false},
                                     {"ev", DataType::kInt64, true}});
    e_->SetPrimaryKey({0});
    ASSERT_TRUE(e_->Append({Value::Int64(100), Value::Int64(1),
                            Value::Int64(5)}).ok());
    ASSERT_TRUE(e_->Append({Value::Int64(101), Value::Int64(1),
                            Value::Int64(7)}).ok());
    ASSERT_TRUE(e_->Append({Value::Int64(102), Value::Int64(2),
                            Value::Null()}).ok());
    ASSERT_TRUE(e_->Append({Value::Int64(103), Value::Int64(3),
                            Value::Int64(9)}).ok());
    ASSERT_TRUE(e_->Append({Value::Int64(104), Value::Int64(3),
                            Value::Int64(1)}).ok());
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

  void ExpectDecorrelated(const RelExprPtr& tree, bool expect_removed = true) {
    std::vector<ColumnId> out = tree->OutputColumns();
    Result<std::vector<Row>> before = ExecLogical(tree, *columns_, out);
    ASSERT_TRUE(before.ok()) << before.status().ToString();

    NormalizerOptions options;
    Result<RelExprPtr> normalized = Normalize(tree, columns_.get(), options);
    ASSERT_TRUE(normalized.ok()) << normalized.status().ToString();
    if (expect_removed) {
      EXPECT_EQ(CountKind(*normalized, RelKind::kApply), 0)
          << PrintRelTree(**normalized, columns_.get());
    }
    Result<std::vector<Row>> after = ExecLogical(*normalized, *columns_, out);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_EQ(CanonicalRows(*before), CanonicalRows(*after))
        << PrintRelTree(**normalized, columns_.get());
  }

  Catalog catalog_;
  ColumnManagerPtr columns_;
  Table* r_ = nullptr;
  Table* e_ = nullptr;
};

TEST_F(NormalizeTest, Identity1UnparameterizedInner) {
  std::map<std::string, ColumnId> r, e;
  RelExprPtr gr = Get(r_, &r);
  RelExprPtr ge = Get(e_, &e);
  ExpectDecorrelated(MakeApply(ApplyKind::kCross, gr, ge));
}

TEST_F(NormalizeTest, Identity2AllJoinVariants) {
  for (ApplyKind kind : {ApplyKind::kCross, ApplyKind::kOuter,
                         ApplyKind::kSemi, ApplyKind::kAnti}) {
    std::map<std::string, ColumnId> r, e;
    RelExprPtr gr = Get(r_, &r);
    RelExprPtr ge = Get(e_, &e);
    RelExprPtr inner = MakeSelect(ge, Eq(Ref(e, "fk"), Ref(r, "rk")));
    SCOPED_TRACE(ApplyKindName(kind));
    ExpectDecorrelated(MakeApply(kind, gr, inner));
  }
}

TEST_F(NormalizeTest, Identity3SelectAboveParameterized) {
  std::map<std::string, ColumnId> r, e;
  RelExprPtr gr = Get(r_, &r);
  RelExprPtr ge = Get(e_, &e);
  RelExprPtr inner = MakeSelect(
      MakeSelect(ge, Eq(Ref(e, "fk"), Ref(r, "rk"))),
      MakeCompare(CompareOp::kGt, Ref(e, "ev"), Ref(r, "rv")));
  ExpectDecorrelated(MakeApply(ApplyKind::kCross, gr, inner));
}

TEST_F(NormalizeTest, Identity4ProjectAboveParameterized) {
  std::map<std::string, ColumnId> r, e;
  RelExprPtr gr = Get(r_, &r);
  RelExprPtr ge = Get(e_, &e);
  ColumnId doubled = columns_->NewColumn("doubled", DataType::kInt64, true);
  RelExprPtr inner = MakeProject(
      MakeSelect(ge, Eq(Ref(e, "fk"), Ref(r, "rk"))),
      {ProjectItem{doubled,
                   MakeArith(ArithOp::kMul, Ref(e, "ev"), LitInt(2))}},
      ColumnSet{e.at("ek")});
  ExpectDecorrelated(MakeApply(ApplyKind::kCross, gr, inner));
}

TEST_F(NormalizeTest, Identity5UnionAll) {
  std::map<std::string, ColumnId> r, e1, e2;
  RelExprPtr gr = Get(r_, &r);
  RelExprPtr ge1 = Get(e_, &e1);
  RelExprPtr ge2 = Get(e_, &e2);
  RelExprPtr b1 = MakeSelect(ge1, Eq(Ref(e1, "fk"), Ref(r, "rk")));
  RelExprPtr b2 = MakeSelect(
      ge2, MakeCompare(CompareOp::kLt, Ref(e2, "fk"), Ref(r, "rk")));
  ColumnId out = columns_->NewColumn("uv", DataType::kInt64, true);
  RelExprPtr inner =
      MakeUnionAll({b1, b2}, {out}, {{e1.at("ev")}, {e2.at("ev")}});
  ExpectDecorrelated(MakeApply(ApplyKind::kCross, gr, inner));
}

TEST_F(NormalizeTest, Identity6ExceptAll) {
  std::map<std::string, ColumnId> r, e1, e2;
  RelExprPtr gr = Get(r_, &r);
  RelExprPtr ge1 = Get(e_, &e1);
  RelExprPtr ge2 = Get(e_, &e2);
  RelExprPtr b1 = MakeSelect(ge1, Eq(Ref(e1, "fk"), Ref(r, "rk")));
  RelExprPtr b2 = MakeSelect(
      ge2, MakeCompare(CompareOp::kGe, Ref(e2, "ev"), Ref(r, "rv")));
  ColumnId out = columns_->NewColumn("dv", DataType::kInt64, true);
  RelExprPtr inner =
      MakeExceptAll(b1, b2, {out}, {{e1.at("ev")}, {e2.at("ev")}});
  ExpectDecorrelated(MakeApply(ApplyKind::kCross, gr, inner));
}

TEST_F(NormalizeTest, Identity7JoinParameterizedOnBothSides) {
  std::map<std::string, ColumnId> r, e1, e2;
  RelExprPtr gr = Get(r_, &r);
  RelExprPtr ge1 = Get(e_, &e1);
  RelExprPtr ge2 = Get(e_, &e2);
  RelExprPtr left = MakeSelect(ge1, Eq(Ref(e1, "fk"), Ref(r, "rk")));
  RelExprPtr right = MakeSelect(
      ge2, MakeCompare(CompareOp::kLe, Ref(e2, "fk"), Ref(r, "rk")));
  RelExprPtr inner = MakeJoin(JoinKind::kInner, left, right,
                              Eq(Ref(e1, "ev"), Ref(e2, "ev")));
  ExpectDecorrelated(MakeApply(ApplyKind::kCross, gr, inner));
}

TEST_F(NormalizeTest, Identity7LeftStaysWhenClass2Disabled) {
  std::map<std::string, ColumnId> r, e1, e2;
  RelExprPtr gr = Get(r_, &r);
  RelExprPtr ge1 = Get(e_, &e1);
  RelExprPtr ge2 = Get(e_, &e2);
  RelExprPtr left = MakeSelect(ge1, Eq(Ref(e1, "fk"), Ref(r, "rk")));
  RelExprPtr right = MakeSelect(
      ge2, MakeCompare(CompareOp::kLe, Ref(e2, "fk"), Ref(r, "rk")));
  RelExprPtr inner = MakeJoin(JoinKind::kInner, left, right,
                              Eq(Ref(e1, "ev"), Ref(e2, "ev")));
  RelExprPtr tree = MakeApply(ApplyKind::kCross, gr, inner);

  NormalizerOptions options;
  options.decorrelate_class2 = false;
  Result<RelExprPtr> normalized = Normalize(tree, columns_.get(), options);
  ASSERT_TRUE(normalized.ok());
  EXPECT_GE(CountKind(*normalized, RelKind::kApply), 1);
}

TEST_F(NormalizeTest, Identity8VectorGroupBy) {
  std::map<std::string, ColumnId> r, e;
  RelExprPtr gr = Get(r_, &r);
  RelExprPtr ge = Get(e_, &e);
  ColumnId total = columns_->NewColumn("total", DataType::kInt64, true);
  RelExprPtr inner = MakeGroupBy(
      MakeSelect(ge,
                 MakeCompare(CompareOp::kGe, Ref(e, "fk"), Ref(r, "rk"))),
      ColumnSet{e.at("fk")},
      {AggItem{AggFunc::kSum, Ref(e, "ev"), total, false}});
  ExpectDecorrelated(MakeApply(ApplyKind::kCross, gr, inner));
}

TEST_F(NormalizeTest, Identity9ScalarGroupBy) {
  std::map<std::string, ColumnId> r, e;
  RelExprPtr gr = Get(r_, &r);
  RelExprPtr ge = Get(e_, &e);
  ColumnId total = columns_->NewColumn("total", DataType::kInt64, true);
  ColumnId cnt = columns_->NewColumn("cnt", DataType::kInt64, true);
  RelExprPtr inner = MakeScalarGroupBy(
      MakeSelect(ge, Eq(Ref(e, "fk"), Ref(r, "rk"))),
      {AggItem{AggFunc::kSum, Ref(e, "ev"), total, false},
       AggItem{AggFunc::kCountStar, nullptr, cnt, false}});
  // Rows of r with no matching e must yield sum = NULL and count(*) = 0 —
  // the vector/scalar aggregate divergence of section 1.1 that identity
  // (9) preserves via count(c).
  ExpectDecorrelated(MakeApply(ApplyKind::kCross, gr, inner));
}

TEST_F(NormalizeTest, Identity9ProducesOuterJoinThenAggregate) {
  std::map<std::string, ColumnId> r, e;
  RelExprPtr gr = Get(r_, &r);
  RelExprPtr ge = Get(e_, &e);
  ColumnId cnt = columns_->NewColumn("cnt", DataType::kInt64, true);
  RelExprPtr inner = MakeScalarGroupBy(
      MakeSelect(ge, Eq(Ref(e, "fk"), Ref(r, "rk"))),
      {AggItem{AggFunc::kCountStar, nullptr, cnt, false}});
  RelExprPtr tree = MakeApply(ApplyKind::kCross, gr, inner);

  NormalizerOptions options;
  options.simplify_outerjoins = false;  // keep the LOJ visible
  Result<RelExprPtr> normalized = Normalize(tree, columns_.get(), options);
  ASSERT_TRUE(normalized.ok());
  EXPECT_EQ(CountKind(*normalized, RelKind::kApply), 0);
  EXPECT_EQ(CountKind(*normalized, RelKind::kGroupBy), 1);
  const RelExpr* group = normalized->get();
  while (group->kind != RelKind::kGroupBy) group = group->children[0].get();
  ASSERT_EQ(group->aggs.size(), 1u);
  // count(*) converted to count over a non-nullable inner column.
  EXPECT_EQ(group->aggs[0].func, AggFunc::kCount);
  const RelExpr* join = group->children[0].get();
  ASSERT_EQ(join->kind, RelKind::kJoin);
  EXPECT_EQ(join->join_kind, JoinKind::kLeftOuter);
}

TEST_F(NormalizeTest, Max1rowEliminatedByKeyAnalysis) {
  std::map<std::string, ColumnId> r, e;
  RelExprPtr gr = Get(r_, &r);
  RelExprPtr ge = Get(e_, &e);
  RelExprPtr inner =
      MakeMax1row(MakeSelect(ge, Eq(Ref(e, "ek"), Ref(r, "rk"))));
  RelExprPtr tree = MakeApply(ApplyKind::kOuter, gr, inner);

  NormalizerOptions options;
  Result<RelExprPtr> normalized = Normalize(tree, columns_.get(), options);
  ASSERT_TRUE(normalized.ok());
  EXPECT_EQ(CountKind(*normalized, RelKind::kMax1row), 0);
  EXPECT_EQ(CountKind(*normalized, RelKind::kApply), 0);
}

TEST_F(NormalizeTest, Max1rowAbsorbedIntoAggregateKeepsError) {
  // fk = 1 matches two rows in e: the Max1Row aggregate must raise the
  // run-time error after normalization, exactly like the guard would.
  std::map<std::string, ColumnId> r, e;
  RelExprPtr gr = Get(r_, &r);
  RelExprPtr ge = Get(e_, &e);
  RelExprPtr inner =
      MakeMax1row(MakeSelect(ge, Eq(Ref(e, "fk"), Ref(r, "rk"))));
  RelExprPtr tree = MakeApply(ApplyKind::kOuter, gr, inner);

  NormalizerOptions options;
  Result<RelExprPtr> normalized = Normalize(tree, columns_.get(), options);
  ASSERT_TRUE(normalized.ok());
  EXPECT_EQ(CountKind(*normalized, RelKind::kApply), 0);

  Result<std::vector<Row>> rows =
      ExecLogical(*normalized, *columns_, (*normalized)->OutputColumns());
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kCardinalityViolation);
}

TEST_F(NormalizeTest, Max1rowSingleMatchesSucceed) {
  std::map<std::string, ColumnId> r, e;
  RelExprPtr gr = Get(r_, &r);
  RelExprPtr outer = MakeSelect(gr, Eq(Ref(r, "rk"), LitInt(2)));
  RelExprPtr ge = Get(e_, &e);
  RelExprPtr inner =
      MakeMax1row(MakeSelect(ge, Eq(Ref(e, "fk"), Ref(r, "rk"))));
  ExpectDecorrelated(MakeApply(ApplyKind::kOuter, outer, inner));
}

TEST_F(NormalizeTest, OuterJoinSimplifiedUnderNullRejectingFilter) {
  std::map<std::string, ColumnId> r, e;
  RelExprPtr gr = Get(r_, &r);
  RelExprPtr ge = Get(e_, &e);
  RelExprPtr join = MakeJoin(JoinKind::kLeftOuter, gr, ge,
                             Eq(Ref(e, "fk"), Ref(r, "rk")));
  RelExprPtr tree = MakeSelect(
      join, MakeCompare(CompareOp::kGt, Ref(e, "ev"), LitInt(0)));

  RelExprPtr simplified = SimplifyOuterJoins(tree);
  const RelExpr* j = simplified.get();
  while (j->kind != RelKind::kJoin) j = j->children[0].get();
  EXPECT_EQ(j->join_kind, JoinKind::kInner);
}

TEST_F(NormalizeTest, OuterJoinKeptUnderIsNullFilter) {
  std::map<std::string, ColumnId> r, e;
  RelExprPtr gr = Get(r_, &r);
  RelExprPtr ge = Get(e_, &e);
  RelExprPtr join = MakeJoin(JoinKind::kLeftOuter, gr, ge,
                             Eq(Ref(e, "fk"), Ref(r, "rk")));
  RelExprPtr tree = MakeSelect(join, MakeIsNull(Ref(e, "ev")));

  RelExprPtr simplified = SimplifyOuterJoins(tree);
  const RelExpr* j = simplified.get();
  while (j->kind != RelKind::kJoin) j = j->children[0].get();
  EXPECT_EQ(j->join_kind, JoinKind::kLeftOuter);
}

TEST_F(NormalizeTest, NullRejectionDerivedThroughGroupBy) {
  // sigma(total > 0)(G[rk](R LOJ E), total = sum(ev)): the filter rejects
  // NULL sums, which only arise from unmatched rows -> inner join. This is
  // the paper's extension over [7] (section 1.2).
  std::map<std::string, ColumnId> r, e;
  RelExprPtr gr = Get(r_, &r);
  RelExprPtr ge = Get(e_, &e);
  RelExprPtr join = MakeJoin(JoinKind::kLeftOuter, gr, ge,
                             Eq(Ref(e, "fk"), Ref(r, "rk")));
  ColumnId total = columns_->NewColumn("total", DataType::kInt64, true);
  RelExprPtr group =
      MakeGroupBy(join, ColumnSet{r.at("rk")},
                  {AggItem{AggFunc::kSum, Ref(e, "ev"), total, false}});
  RelExprPtr tree = MakeSelect(
      group,
      MakeCompare(CompareOp::kGt, CRef(total, DataType::kInt64), LitInt(0)));

  RelExprPtr simplified = SimplifyOuterJoins(tree);
  const RelExpr* j = simplified.get();
  while (j->kind != RelKind::kJoin) j = j->children[0].get();
  EXPECT_EQ(j->join_kind, JoinKind::kInner);
}

TEST_F(NormalizeTest, NoNullRejectionThroughCount) {
  // count is never NULL: rejection must NOT transfer through it.
  std::map<std::string, ColumnId> r, e;
  RelExprPtr gr = Get(r_, &r);
  RelExprPtr ge = Get(e_, &e);
  RelExprPtr join = MakeJoin(JoinKind::kLeftOuter, gr, ge,
                             Eq(Ref(e, "fk"), Ref(r, "rk")));
  ColumnId cnt = columns_->NewColumn("cnt", DataType::kInt64, true);
  RelExprPtr group =
      MakeGroupBy(join, ColumnSet{r.at("rk")},
                  {AggItem{AggFunc::kCount, Ref(e, "ev"), cnt, false}});
  RelExprPtr tree = MakeSelect(
      group,
      MakeCompare(CompareOp::kGe, CRef(cnt, DataType::kInt64), LitInt(0)));
  RelExprPtr simplified = SimplifyOuterJoins(tree);
  const RelExpr* j = simplified.get();
  while (j->kind != RelKind::kJoin) j = j->children[0].get();
  EXPECT_EQ(j->join_kind, JoinKind::kLeftOuter);
}

TEST_F(NormalizeTest, PushdownSplitsJoinConjuncts) {
  std::map<std::string, ColumnId> r, e;
  RelExprPtr gr = Get(r_, &r);
  RelExprPtr ge = Get(e_, &e);
  RelExprPtr join = MakeJoin(JoinKind::kInner, gr, ge, TrueLiteral());
  RelExprPtr tree = MakeSelect(
      join,
      MakeAnd({Eq(Ref(e, "fk"), Ref(r, "rk")),
               MakeCompare(CompareOp::kGt, Ref(r, "rv"), LitInt(5)),
               MakeCompare(CompareOp::kGt, Ref(e, "ev"), LitInt(0))}));
  RelExprPtr pushed = PushdownPredicates(tree, columns_.get());
  ASSERT_EQ(pushed->kind, RelKind::kJoin);
  EXPECT_EQ(pushed->children[0]->kind, RelKind::kSelect);
  EXPECT_EQ(pushed->children[1]->kind, RelKind::kSelect);
}

TEST_F(NormalizeTest, EqualityClosureInference) {
  // rk = ev and ev = fk implies rk = fk.
  std::map<std::string, ColumnId> r, e;
  RelExprPtr gr = Get(r_, &r);
  RelExprPtr ge = Get(e_, &e);
  RelExprPtr join = MakeJoin(
      JoinKind::kInner, gr, ge,
      MakeAnd({Eq(Ref(r, "rk"), Ref(e, "ev")),
               Eq(Ref(e, "ev"), Ref(e, "fk"))}));
  RelExprPtr pushed = PushdownPredicates(join, columns_.get());
  int eq_count = 0;
  std::function<void(const RelExprPtr&)> walk = [&](const RelExprPtr& node) {
    if (node->predicate) {
      for (const ScalarExprPtr& c : SplitConjuncts(node->predicate)) {
        if (c->kind == ScalarKind::kCompare && c->cmp == CompareOp::kEq) {
          ++eq_count;
        }
      }
    }
    for (const RelExprPtr& child : node->children) walk(child);
  };
  walk(pushed);
  EXPECT_GE(eq_count, 3);  // the implied rk = fk was added
}

TEST_F(NormalizeTest, PruneNarrowsGet) {
  std::map<std::string, ColumnId> e;
  RelExprPtr ge = Get(e_, &e);
  RelExprPtr tree = MakeProject(ge, {}, ColumnSet{e.at("ev")});
  RelExprPtr pruned = PruneColumns(tree, columns_.get());
  const RelExpr* leaf = pruned.get();
  while (leaf->kind != RelKind::kGet) leaf = leaf->children[0].get();
  // ev plus the primary key (retained for key derivations).
  EXPECT_EQ(leaf->get_cols.size(), 2u);
}

TEST_F(NormalizeTest, ClassificationCoversAllThreeClasses) {
  // Class 1: plain parameterized select.
  std::map<std::string, ColumnId> r1, e1;
  RelExprPtr gr1 = Get(r_, &r1);
  RelExprPtr ge1 = Get(e_, &e1);
  RelExprPtr c1 = MakeApply(
      ApplyKind::kCross, gr1,
      MakeSelect(ge1, Eq(Ref(e1, "fk"), Ref(r1, "rk"))));
  auto classes1 = ClassifySubqueries(c1);
  ASSERT_EQ(classes1.size(), 1u);
  EXPECT_EQ(classes1[0].cls, SubqueryClass::kClass1);

  // Class 2: union of parameterized branches.
  std::map<std::string, ColumnId> r2, e2a, e2b;
  RelExprPtr gr2 = Get(r_, &r2);
  RelExprPtr ge2a = Get(e_, &e2a);
  RelExprPtr ge2b = Get(e_, &e2b);
  RelExprPtr b1 = MakeSelect(ge2a, Eq(Ref(e2a, "fk"), Ref(r2, "rk")));
  RelExprPtr b2 = MakeSelect(ge2b, Eq(Ref(e2b, "ek"), Ref(r2, "rk")));
  ColumnId uv = columns_->NewColumn("uv", DataType::kInt64, true);
  RelExprPtr c2 = MakeApply(
      ApplyKind::kCross, gr2,
      MakeUnionAll({b1, b2}, {uv}, {{e2a.at("ev")}, {e2b.at("ev")}}));
  auto classes2 = ClassifySubqueries(c2);
  ASSERT_EQ(classes2.size(), 1u);
  EXPECT_EQ(classes2[0].cls, SubqueryClass::kClass2);

  // Class 3: Max1row that key analysis cannot remove.
  std::map<std::string, ColumnId> r3, e3;
  RelExprPtr gr3 = Get(r_, &r3);
  RelExprPtr ge3 = Get(e_, &e3);
  RelExprPtr c3 = MakeApply(
      ApplyKind::kOuter, gr3,
      MakeMax1row(MakeSelect(ge3, Eq(Ref(e3, "fk"), Ref(r3, "rk")))));
  auto classes3 = ClassifySubqueries(c3);
  ASSERT_EQ(classes3.size(), 1u);
  EXPECT_EQ(classes3[0].cls, SubqueryClass::kClass3);
}

TEST_F(NormalizeTest, SemiApplyOverGroupByStripsAggregate) {
  std::map<std::string, ColumnId> r, e;
  RelExprPtr gr = Get(r_, &r);
  RelExprPtr ge = Get(e_, &e);
  ColumnId total = columns_->NewColumn("total", DataType::kInt64, true);
  RelExprPtr inner = MakeGroupBy(
      MakeSelect(ge, Eq(Ref(e, "fk"), Ref(r, "rk"))),
      ColumnSet{e.at("fk")},
      {AggItem{AggFunc::kSum, Ref(e, "ev"), total, false}});
  ExpectDecorrelated(MakeApply(ApplyKind::kSemi, gr, inner));
}

TEST_F(NormalizeTest, AntiApplyCountFallback) {
  std::map<std::string, ColumnId> r, e;
  RelExprPtr gr = Get(r_, &r);
  RelExprPtr ge = Get(e_, &e);
  ColumnId shifted = columns_->NewColumn("shifted", DataType::kInt64, true);
  RelExprPtr inner = MakeProject(
      MakeSelect(ge,
                 MakeCompare(CompareOp::kLt, Ref(e, "ev"), Ref(r, "rv"))),
      {ProjectItem{shifted,
                   MakeArith(ArithOp::kAdd, Ref(e, "ev"), Ref(r, "rk"))}},
      ColumnSet());
  ExpectDecorrelated(MakeApply(ApplyKind::kAnti, gr, inner));
}

// ---- The count bug (paper section 5.4), end to end ---------------------
//
// Scalar COUNT over an empty correlated input must stay 0 after identity
// (9) turns the scalar GroupBy into a vector GroupBy below a left outer
// join; without the repair, the NULL-padded row would surface NULL (or
// count 1) instead. r.rk=4 has no e rows (empty group); e.fk=2's single
// row has ev NULL (all-NULL group).

TEST_F(NormalizeTest, CountBugEmptyGroupYieldsZero) {
  QueryEngine engine(&catalog_);
  Result<QueryEngine::Compiled> compiled = engine.Compile(
      "select rk, (select count(ev) from e where e.fk = r.rk) from r "
      "order by rk");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  // The correlation must actually be removed — this test covers the
  // rewritten path, not literal Apply execution.
  EXPECT_EQ(CountKind(compiled->normalized, RelKind::kApply), 0)
      << PrintRelTree(*compiled->normalized, compiled->columns.get());

  Result<QueryResult> result = engine.ExecuteCompiled(*compiled);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 4u);
  EXPECT_EQ(result->rows[0][1].int64_value(), 2);  // rk=1: ev {5, 7}
  EXPECT_EQ(result->rows[1][1].int64_value(), 0);  // rk=2: all-NULL group
  EXPECT_EQ(result->rows[2][1].int64_value(), 2);  // rk=3: ev {9, 1}
  ASSERT_FALSE(result->rows[3][1].is_null());      // rk=4: empty group...
  EXPECT_EQ(result->rows[3][1].int64_value(), 0);  // ...counts 0, not NULL
}

TEST_F(NormalizeTest, CountBugCountStarDistinguishesEmptyFromNullRows) {
  QueryEngine engine(&catalog_);
  Result<QueryResult> result = engine.Execute(
      "select rk, (select count(*) from e where e.fk = r.rk) from r "
      "order by rk");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 4u);
  EXPECT_EQ(result->rows[1][1].int64_value(), 1);  // rk=2: one NULL-ev row
  EXPECT_EQ(result->rows[3][1].int64_value(), 0);  // rk=4: truly empty
}

TEST_F(NormalizeTest, SumOverEmptyCorrelatedGroupStaysNull) {
  // Contrast: NULL-on-empty aggregates need no repair — sum over the
  // empty (rk=4) and all-NULL (rk=2) groups is NULL either way.
  QueryEngine engine(&catalog_);
  Result<QueryResult> result = engine.Execute(
      "select rk, (select sum(ev) from e where e.fk = r.rk) from r "
      "order by rk");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 4u);
  EXPECT_EQ(result->rows[0][1].int64_value(), 12);  // rk=1: 5 + 7
  EXPECT_TRUE(result->rows[1][1].is_null());        // rk=2: all-NULL group
  EXPECT_TRUE(result->rows[3][1].is_null());        // rk=4: empty group
}

TEST_F(NormalizeTest, CountBugSurvivesFilterAboveSubquery) {
  // The paper's original count-bug shape: a predicate compares the counted
  // result, so a wrong NULL for empty groups silently drops rows instead
  // of producing a visible NULL. rk=2 and rk=4 have count 0 < 1.
  QueryEngine engine(&catalog_);
  Result<QueryResult> result = engine.Execute(
      "select rk from r "
      "where (select count(ev) from e where e.fk = r.rk) < 1 order by rk");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0][0].int64_value(), 2);
  EXPECT_EQ(result->rows[1][0].int64_value(), 4);
}

/// The Select whose predicate references column `name`, or null.
RelExprPtr FindSelectOn(const RelExprPtr& node, const ColumnManager& columns,
                        const std::string& name) {
  if (node->kind == RelKind::kSelect) {
    ColumnSet refs;
    CollectColumnRefsDeep(node->predicate, &refs);
    for (ColumnId id : refs) {
      if (columns.name(id) == name) return node;
    }
  }
  for (const RelExprPtr& child : node->children) {
    if (RelExprPtr found = FindSelectOn(child, columns, name)) return found;
  }
  return nullptr;
}

// The filter on orders only reaches `Get orders` after Apply removal has
// turned the scalar subquery into a join and pushdown has run again; the
// former fixed three rounds stopped with it above the lineitem join.
TEST(NormalizeFixpointTest, SelectionReachesItsTableBelowDecorrelatedJoin) {
  Catalog catalog;
  ASSERT_TRUE(BuildDifftestCatalog(&catalog, 20261017).ok());
  QueryEngine engine(&catalog);
  Result<QueryEngine::Compiled> compiled = engine.Compile(
      "select t0.l_shipdate, max(t2.p_partkey) from lineitem t0 "
      "join orders t1 on t1.o_orderkey = t0.l_orderkey "
      "left outer join part t2 on t2.p_partkey = t0.l_partkey "
      "where t1.o_orderdate = date '1995-01-01' "
      "and (select max(q56.c_nationkey) from customer q56 "
      "where q56.c_custkey = t1.o_custkey) = 1 "
      "and exists (select * from part q57 where q57.p_partkey = t0.l_partkey) "
      "group by t0.l_shipdate having count(*) > 100.0");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const ColumnManager& columns = *compiled->columns;
  RelExprPtr select =
      FindSelectOn(compiled->normalized, columns, "o_orderdate");
  ASSERT_NE(select, nullptr) << PrintRelTree(*compiled->normalized, &columns);
  const RelExprPtr& input = select->children[0];
  ASSERT_EQ(input->kind, RelKind::kGet)
      << PrintRelTree(*compiled->normalized, &columns);
  EXPECT_EQ(input->table->name(), "orders");
}

// Pruning can narrow a Project so that a scalar subquery's Apply matches
// an Apply removal identity; with pruning run once after the rounds, a
// second Normalize still removed that Apply (a generated query of the
// difftest stream, minimized).
TEST(NormalizeFixpointTest, PruningEnablesApplyRemovalInTheSameCall) {
  Catalog catalog;
  ASSERT_TRUE(BuildDifftestCatalog(&catalog, 805).ok());
  QueryEngine engine(&catalog);
  Result<QueryEngine::Compiled> compiled = engine.Compile(
      "select t0.c_custkey from customer t0 "
      "where (select q1.n_nationkey from nation q1 "
      "where q1.n_nationkey = t0.c_nationkey and q1.n_nationkey = "
      "(select count(*) from customer q2 "
      "where q2.c_nationkey = q1.n_nationkey)) > 1 "
      "and (select count(*) from orders q3 "
      "where q3.o_custkey = t0.c_custkey) > 3");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const RelExprPtr& normalized = compiled->normalized;
  ColumnManager* columns = compiled->columns.get();
  EXPECT_EQ(CountKind(normalized, RelKind::kApply), 0)
      << PrintRelTree(*normalized, columns);
  Result<RelExprPtr> again =
      Normalize(normalized, columns, engine.options().normalizer);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(*again, normalized) << PrintRelTree(**again, columns);
}

}  // namespace
}  // namespace orq
