// Additional pushdown/pruning coverage beyond normalize_test: filters
// through UnionAll, Apply and Sort; select-over-project substitution;
// project merging; pruning through set operations; convergence of
// repeated pushdown.
#include <gtest/gtest.h>

#include <map>

#include "algebra/expr_util.h"
#include "algebra/printer.h"
#include "difftest/dataset.h"
#include "engine/engine.h"
#include "normalize/normalizer.h"
#include "normalize/pushdown.h"
#include "tests/test_util.h"

namespace orq {
namespace {

int CountKind(const RelExprPtr& node, RelKind kind) {
  int n = node->kind == kind ? 1 : 0;
  for (const RelExprPtr& child : node->children) n += CountKind(child, kind);
  return n;
}

/// Largest number of structurally equal conjuncts in any one Select.
int MaxConjunctCopies(const RelExprPtr& node) {
  int most = 0;
  if (node->kind == RelKind::kSelect) {
    std::vector<ScalarExprPtr> conjuncts = SplitConjuncts(node->predicate);
    for (const ScalarExprPtr& a : conjuncts) {
      int copies = 0;
      for (const ScalarExprPtr& b : conjuncts) copies += ScalarEquals(a, b);
      most = std::max(most, copies);
    }
  }
  for (const RelExprPtr& child : node->children) {
    most = std::max(most, MaxConjunctCopies(child));
  }
  return most;
}

class PushdownTest : public ::testing::Test {
 protected:
  void SetUp() override {
    columns_ = std::make_shared<ColumnManager>();
    t_ = *catalog_.CreateTable("t", {{"a", DataType::kInt64, false},
                                     {"b", DataType::kInt64, true}});
    t_->SetPrimaryKey({0});
    for (int i = 1; i <= 8; ++i) {
      ASSERT_TRUE(t_->Append({Value::Int64(i),
                              i % 3 == 0 ? Value::Null()
                                         : Value::Int64(i * 2)})
                      .ok());
    }
  }

  RelExprPtr Get(std::map<std::string, ColumnId>* ids) {
    std::vector<ColumnId> cols;
    for (const ColumnSpec& spec : t_->columns()) {
      ColumnId id = columns_->NewColumn(spec.name, spec.type, spec.nullable);
      cols.push_back(id);
      (*ids)[spec.name] = id;
    }
    return MakeGet(t_, std::move(cols));
  }

  /// Pushdown must preserve semantics: execute before/after and compare.
  RelExprPtr CheckedPushdown(const RelExprPtr& tree) {
    std::vector<ColumnId> out = tree->OutputColumns();
    Result<std::vector<Row>> before = ExecLogical(tree, *columns_, out);
    EXPECT_TRUE(before.ok()) << before.status().ToString();
    RelExprPtr pushed = PushdownPredicates(tree, columns_.get());
    Result<std::vector<Row>> after = ExecLogical(pushed, *columns_, out);
    EXPECT_TRUE(after.ok()) << after.status().ToString();
    EXPECT_EQ(CanonicalRows(*before), CanonicalRows(*after))
        << PrintRelTree(*pushed, columns_.get());
    return pushed;
  }

  Catalog catalog_;
  ColumnManagerPtr columns_;
  Table* t_ = nullptr;
};

TEST_F(PushdownTest, SelectThroughProjectSubstitutes) {
  std::map<std::string, ColumnId> t;
  RelExprPtr get = Get(&t);
  ColumnId doubled = columns_->NewColumn("d", DataType::kInt64, true);
  RelExprPtr project = MakeProject(
      get,
      {ProjectItem{doubled, MakeArith(ArithOp::kMul,
                                      CRef(*columns_, t.at("a")),
                                      LitInt(2))}},
      ColumnSet{t.at("a")});
  RelExprPtr tree = MakeSelect(
      project,
      MakeCompare(CompareOp::kGt, CRef(doubled, DataType::kInt64),
                  LitInt(8)));
  RelExprPtr pushed = CheckedPushdown(tree);
  // The filter moved below the project, rewritten over a*2.
  EXPECT_EQ(pushed->kind, RelKind::kProject);
  EXPECT_EQ(pushed->children[0]->kind, RelKind::kSelect);
}

TEST_F(PushdownTest, SelectDistributesIntoUnionAll) {
  std::map<std::string, ColumnId> t1, t2;
  RelExprPtr g1 = Get(&t1);
  RelExprPtr g2 = Get(&t2);
  ColumnId out = columns_->NewColumn("u", DataType::kInt64, true);
  RelExprPtr uni =
      MakeUnionAll({g1, g2}, {out}, {{t1.at("a")}, {t2.at("a")}});
  RelExprPtr tree = MakeSelect(
      uni,
      MakeCompare(CompareOp::kLe, CRef(out, DataType::kInt64), LitInt(3)));
  RelExprPtr pushed = CheckedPushdown(tree);
  EXPECT_EQ(pushed->kind, RelKind::kUnionAll);
  EXPECT_EQ(CountKind(pushed, RelKind::kSelect), 2);
}

TEST_F(PushdownTest, OuterColumnsFilterBeforeApply) {
  std::map<std::string, ColumnId> outer, inner;
  RelExprPtr gout = Get(&outer);
  RelExprPtr ginn = Get(&inner);
  RelExprPtr apply = MakeApply(
      ApplyKind::kCross, gout,
      MakeSelect(ginn, Eq(CRef(*columns_, inner.at("a")),
                          CRef(*columns_, outer.at("a")))));
  RelExprPtr tree = MakeSelect(
      apply,
      MakeAnd2(MakeCompare(CompareOp::kLe,
                           CRef(*columns_, outer.at("a")), LitInt(4)),
               MakeCompare(CompareOp::kGt,
                           CRef(*columns_, inner.at("b")), LitInt(0))));
  RelExprPtr pushed = CheckedPushdown(tree);
  // The outer-only conjunct moved below the apply's left input.
  ASSERT_EQ(pushed->kind, RelKind::kSelect);  // inner-side conjunct stays
  const RelExprPtr& new_apply = pushed->children[0];
  ASSERT_EQ(new_apply->kind, RelKind::kApply);
  EXPECT_EQ(new_apply->children[0]->kind, RelKind::kSelect);
}

TEST_F(PushdownTest, SortWithLimitBlocksFilterPushdown) {
  std::map<std::string, ColumnId> t;
  RelExprPtr get = Get(&t);
  RelExprPtr top = MakeSort(
      get, {SortKey{CRef(*columns_, t.at("a")), true}}, 3);
  RelExprPtr tree = MakeSelect(
      top, MakeCompare(CompareOp::kGt, CRef(*columns_, t.at("a")),
                       LitInt(1)));
  RelExprPtr pushed = CheckedPushdown(tree);
  // Pushing below a TOP would change which rows survive: must not happen.
  EXPECT_EQ(pushed->kind, RelKind::kSelect);
  EXPECT_EQ(pushed->children[0]->kind, RelKind::kSort);
}

TEST_F(PushdownTest, SortWithoutLimitAllowsFilterPushdown) {
  std::map<std::string, ColumnId> t;
  RelExprPtr get = Get(&t);
  RelExprPtr sorted = MakeSort(
      get, {SortKey{CRef(*columns_, t.at("a")), true}}, -1);
  RelExprPtr tree = MakeSelect(
      sorted, MakeCompare(CompareOp::kGt, CRef(*columns_, t.at("a")),
                          LitInt(1)));
  RelExprPtr pushed = PushdownPredicates(tree, columns_.get());
  EXPECT_EQ(pushed->kind, RelKind::kSort);
}

TEST_F(PushdownTest, StackedProjectsMerge) {
  std::map<std::string, ColumnId> t;
  RelExprPtr get = Get(&t);
  ColumnId c1 = columns_->NewColumn("c1", DataType::kInt64, true);
  ColumnId c2 = columns_->NewColumn("c2", DataType::kInt64, true);
  RelExprPtr inner = MakeProject(
      get,
      {ProjectItem{c1, MakeArith(ArithOp::kAdd,
                                 CRef(*columns_, t.at("a")), LitInt(1))}},
      ColumnSet{t.at("a")});
  RelExprPtr outer = MakeProject(
      inner,
      {ProjectItem{c2, MakeArith(ArithOp::kMul, CRef(c1, DataType::kInt64),
                                 LitInt(10))}},
      ColumnSet{t.at("a")});
  RelExprPtr pushed = CheckedPushdown(outer);
  EXPECT_EQ(CountKind(pushed, RelKind::kProject), 1);
}

TEST_F(PushdownTest, IdentityProjectRemoved) {
  std::map<std::string, ColumnId> t;
  RelExprPtr get = Get(&t);
  RelExprPtr identity =
      MakeProject(get, {}, ColumnSet{t.at("a"), t.at("b")});
  RelExprPtr pushed = PushdownPredicates(identity, columns_.get());
  EXPECT_EQ(pushed->kind, RelKind::kGet);
}

TEST_F(PushdownTest, PruneThroughUnionAllNarrowsBranches) {
  std::map<std::string, ColumnId> t1, t2;
  RelExprPtr g1 = Get(&t1);
  RelExprPtr g2 = Get(&t2);
  ColumnId u1 = columns_->NewColumn("u1", DataType::kInt64, true);
  ColumnId u2 = columns_->NewColumn("u2", DataType::kInt64, true);
  RelExprPtr uni = MakeUnionAll({g1, g2}, {u1, u2},
                                {{t1.at("a"), t1.at("b")},
                                 {t2.at("a"), t2.at("b")}});
  // Only u1 is needed above.
  RelExprPtr tree = MakeProject(uni, {}, ColumnSet{u1});
  RelExprPtr pruned = PruneColumns(tree, columns_.get());
  const RelExpr* u = pruned.get();
  while (u->kind != RelKind::kUnionAll) u = u->children[0].get();
  EXPECT_EQ(u->out_cols.size(), 1u);
  EXPECT_EQ(u->input_maps[0].size(), 1u);
}

TEST_F(PushdownTest, PruneKeepsEverythingUnderExceptAll) {
  std::map<std::string, ColumnId> t1, t2;
  RelExprPtr g1 = Get(&t1);
  RelExprPtr g2 = Get(&t2);
  ColumnId u1 = columns_->NewColumn("u1", DataType::kInt64, true);
  ColumnId u2 = columns_->NewColumn("u2", DataType::kInt64, true);
  RelExprPtr except = MakeExceptAll(g1, g2, {u1, u2},
                                    {{t1.at("a"), t1.at("b")},
                                     {t2.at("a"), t2.at("b")}});
  RelExprPtr tree = MakeProject(except, {}, ColumnSet{u1});
  RelExprPtr pruned = PruneColumns(tree, columns_.get());
  // Bag difference compares whole rows: both columns must survive below.
  const RelExpr* e = pruned.get();
  while (e->kind != RelKind::kExceptAll) e = e->children[0].get();
  EXPECT_EQ(e->out_cols.size(), 2u);
}

// Right-only conjuncts of a semi, anti or left outer join predicate move
// into the right input: a right row failing one can match no left row.
// Left-only conjuncts stay put, since those joins keep (or drop) the left
// row whatever the predicate says about it.
TEST_F(PushdownTest, RightOnlyConjunctIntoSemiJoinRight) {
  std::map<std::string, ColumnId> t1, t2;
  RelExprPtr g1 = Get(&t1);
  RelExprPtr g2 = Get(&t2);
  RelExprPtr tree = MakeJoin(
      JoinKind::kLeftSemi, g1, g2,
      MakeAnd({Eq(CRef(*columns_, t1.at("b")), CRef(*columns_, t2.at("b"))),
               MakeCompare(CompareOp::kLt, CRef(*columns_, t2.at("a")),
                           LitInt(6))}));
  RelExprPtr pushed = CheckedPushdown(tree);
  ASSERT_EQ(pushed->kind, RelKind::kJoin);
  EXPECT_EQ(pushed->join_kind, JoinKind::kLeftSemi);
  EXPECT_EQ(pushed->children[0]->kind, RelKind::kGet);
  EXPECT_EQ(pushed->children[1]->kind, RelKind::kSelect);
  EXPECT_EQ(SplitConjuncts(pushed->predicate).size(), 1u);
}

TEST_F(PushdownTest, RightOnlyConjunctIntoNotInAntiJoinRight) {
  std::map<std::string, ColumnId> t1, t2;
  RelExprPtr g1 = Get(&t1);
  RelExprPtr g2 = Get(&t2);
  // NOT IN's null-aware anti-join predicate: (a = b) OR (a = b) IS NULL.
  ScalarExprPtr eq =
      Eq(CRef(*columns_, t1.at("b")), CRef(*columns_, t2.at("b")));
  ScalarExprPtr not_in = MakeOr({eq, MakeIsNull(eq)});
  RelExprPtr tree = MakeJoin(
      JoinKind::kLeftAnti, g1, g2,
      MakeAnd({not_in, MakeCompare(CompareOp::kGt,
                                   CRef(*columns_, t2.at("a")), LitInt(4))}));
  RelExprPtr pushed = CheckedPushdown(tree);
  ASSERT_EQ(pushed->kind, RelKind::kJoin);
  EXPECT_EQ(pushed->join_kind, JoinKind::kLeftAnti);
  EXPECT_EQ(pushed->children[0]->kind, RelKind::kGet);
  ASSERT_EQ(pushed->children[1]->kind, RelKind::kSelect);
  // The OR references both sides and stays the whole join predicate.
  EXPECT_EQ(pushed->predicate, not_in);
}

TEST_F(PushdownTest, LeftOnlyConjunctStaysInLeftOuterJoin) {
  std::map<std::string, ColumnId> t1, t2;
  RelExprPtr g1 = Get(&t1);
  RelExprPtr g2 = Get(&t2);
  ScalarExprPtr left_only =
      MakeCompare(CompareOp::kGt, CRef(*columns_, t1.at("a")), LitInt(2));
  RelExprPtr tree = MakeJoin(
      JoinKind::kLeftOuter, g1, g2,
      MakeAnd({Eq(CRef(*columns_, t1.at("a")), CRef(*columns_, t2.at("a"))),
               left_only, MakeIsNotNull(CRef(*columns_, t2.at("b")))}));
  RelExprPtr pushed = CheckedPushdown(tree);
  ASSERT_EQ(pushed->kind, RelKind::kJoin);
  EXPECT_EQ(pushed->join_kind, JoinKind::kLeftOuter);
  // Unmatched left rows are still padded, so the left input is untouched.
  EXPECT_EQ(pushed->children[0]->kind, RelKind::kGet);
  EXPECT_EQ(pushed->children[1]->kind, RelKind::kSelect);
  std::vector<ScalarExprPtr> kept = SplitConjuncts(pushed->predicate);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[1], left_only);
}

// The equality closure of `n_nationkey = c_nationkey AND c_nationkey =
// n_regionkey` infers `n_nationkey = n_regionkey` for nation on every call.
// Pushdown used to stack one more copy of it onto nation's Select per call,
// so the tree never stopped changing.
TEST(PushdownFixpointTest, InferredConjunctIsPushedOnce) {
  Catalog catalog;
  ASSERT_TRUE(BuildDifftestCatalog(&catalog, 20261017).ok());
  QueryEngine engine(&catalog);
  Result<QueryEngine::Compiled> compiled = engine.Compile(
      "select t0.c_name from customer t0 join nation t1 "
      "on t1.n_nationkey = t0.c_nationkey "
      "where t1.n_regionkey < 1 and t0.c_nationkey = t1.n_regionkey");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ColumnManager* columns = compiled->columns.get();
  RelExprPtr pushed = PushdownPredicates(compiled->applied, columns);
  EXPECT_EQ(MaxConjunctCopies(pushed), 1) << PrintRelTree(*pushed, columns);

  // Pushing down twice more returns the identical root.
  RelExprPtr again = PushdownPredicates(pushed, columns);
  EXPECT_EQ(again.get(), pushed.get()) << PrintRelTree(*again, columns);
  EXPECT_EQ(PushdownPredicates(again, columns).get(), pushed.get());

  std::vector<ColumnId> out = compiled->applied->OutputColumns();
  Result<std::vector<Row>> before =
      ExecLogical(compiled->applied, *columns, out);
  Result<std::vector<Row>> after = ExecLogical(pushed, *columns, out);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(CanonicalRows(*before), CanonicalRows(*after));
}

// Generated queries whose equality closure infers a conjunct that a Select
// below a GroupBy, an Apply or a UnionAll already holds. Pushdown used to
// push it again on every step: the conjunct sank to the Select that held
// it and vanished, but the nodes on the way down were rebuilt, so no step
// ever returned its input. Each query then ran both round budgets out and
// took 20-60 ms to normalize instead of well under 1 ms.
TEST(PushdownFixpointTest, HeldConjunctBelowGroupByOrApplyIsNotPushedAgain) {
  Catalog catalog;
  ASSERT_TRUE(BuildDifftestCatalog(&catalog, 20261017).ok());
  QueryEngine engine(&catalog);
  const char* queries[] = {
      "select t0.l_orderkey, t0.l_orderkey, t0.l_linenumber from lineitem t0 "
      "where t0.l_linenumber in (select q4170.o_custkey from orders q4170 "
      "where q4170.o_orderkey = t0.l_orderkey and q4170.o_orderdate >= date "
      "'1995-01-01' union all select q4171.l_linenumber from lineitem q4171 "
      "where q4171.l_orderkey = t0.l_orderkey) and t0.l_partkey <> (select "
      "count(q4172.p_retailprice) from part q4172 where q4172.p_partkey = "
      "t0.l_partkey and q4172.p_size <= 23) and t0.l_linenumber = (select "
      "q4173.p_partkey from part q4173 where q4173.p_partkey = t0.l_partkey)",
      "select t0.o_custkey, min(t0.o_custkey), min(t0.o_orderkey) from "
      "orders t0 where t0.o_totalprice <> t0.o_totalprice and "
      "t0.o_shippriority <= (select max(q276.c_custkey) from customer q276 "
      "where q276.c_custkey = t0.o_custkey and q276.c_custkey = (select "
      "max(q277.c_nationkey) from customer q277 where q277.c_nationkey = "
      "q276.c_nationkey)) group by t0.o_custkey",
      "select t1.l_linenumber from part t0 left outer join lineitem t1 on "
      "t1.l_partkey = t0.p_partkey where t0.p_size in (select "
      "q4268.l_linenumber from lineitem q4268 where q4268.l_partkey = "
      "t0.p_partkey and q4268.l_shipdate < date '1996-01-01' union all "
      "select q4269.p_size from part q4269 where q4269.p_partkey = "
      "t1.l_partkey) and t0.p_partkey <> (select max(q4270.l_partkey) from "
      "lineitem q4270 where q4270.l_partkey = t0.p_partkey and "
      "q4270.l_partkey = (select min(q4271.p_partkey) from part q4271 where "
      "q4271.p_partkey = q4270.l_partkey and q4271.p_partkey <> 14)) order "
      "by t1.l_extendedprice",
  };
  for (const char* sql : queries) {
    SCOPED_TRACE(sql);
    Result<QueryEngine::Compiled> compiled = engine.Compile(sql);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    ColumnManager* columns = compiled->columns.get();
    const RelExprPtr& normalized = compiled->normalized;
    EXPECT_EQ(PushdownPredicates(normalized, columns).get(), normalized.get())
        << PrintRelTree(*normalized, columns);
    Result<RelExprPtr> again =
        Normalize(normalized, columns, engine.options().normalizer);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again->get(), normalized.get());
  }
}

}  // namespace
}  // namespace orq
