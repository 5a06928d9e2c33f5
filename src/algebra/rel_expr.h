#ifndef ORQ_ALGEBRA_REL_EXPR_H_
#define ORQ_ALGEBRA_REL_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "algebra/column.h"
#include "algebra/scalar_expr.h"
#include "common/value.h"

namespace orq {

class Table;

/// Logical relational operators. All operators are bag-oriented (paper
/// section 1.3): union is UNION ALL, no implicit duplicate removal.
enum class RelKind {
  kGet,           // base-table access
  kSelect,        // filter
  kProject,       // computed columns + pass-through columns
  kJoin,          // inner / left-outer / semi / anti / cross, with predicate
  kApply,         // R Apply⊗ E(r): parameterized execution (section 1.3)
  kGroupBy,       // vector or scalar GroupBy (G_{A,F} / G_F per section 1.1)
  kLocalGroupBy,  // LG_{A,Fl}: local aggregate (section 3.3)
  kSegmentApply,  // R SA_A E(S): table-valued parameterization (section 3.4)
  kMax1row,       // run-time guard for scalar subqueries (section 2.4)
  kUnionAll,
  kExceptAll,     // bag difference (identity (6) requires it)
  kSort,          // ORDER BY [+ optional row limit]
  kSingleRow,     // constant relation of exactly one 0-column row
  kSegmentRef,    // leaf inside SegmentApply's inner expr: current segment S
};

enum class JoinKind { kInner, kLeftOuter, kLeftSemi, kLeftAnti, kCross };

/// The ⊗ variant of Apply (paper section 1.3). kCross is A×, kOuter is
/// A^LOJ, kSemi/kAnti are the existential variants.
enum class ApplyKind { kCross, kOuter, kSemi, kAnti };

std::string JoinKindName(JoinKind kind);
std::string ApplyKindName(ApplyKind kind);

/// Aggregate functions. avg is decomposed by the binder into sum/count so
/// that every aggregate here has local/global components (section 3.3).
/// kMax1Row implements the Max1row guard as an aggregate: returns the single
/// input value, NULL on empty input, and raises a run-time error when the
/// group has more than one row.
enum class AggFunc { kCountStar, kCount, kSum, kMin, kMax, kMax1Row };

std::string AggFuncName(AggFunc func);

/// True when f(empty group) is NULL (sum/min/max); count yields 0. Used by
/// the GroupBy-below-outerjoin computing project (section 3.2) and by
/// identity (9).
bool AggNullOnEmpty(AggFunc func);

/// One aggregate computation inside a GroupBy/LocalGroupBy.
struct AggItem {
  AggFunc func = AggFunc::kCountStar;
  ScalarExprPtr arg;        // nullptr for count(*)
  ColumnId output = -1;
  bool distinct = false;    // count(distinct x) etc.
};

/// One computed column inside a Project.
struct ProjectItem {
  ColumnId output = -1;
  ScalarExprPtr expr;
};

struct SortKey {
  ScalarExprPtr expr;
  bool ascending = true;
};

struct RelExpr;
using RelExprPtr = std::shared_ptr<RelExpr>;

/// A logical operator node. Treated as immutable after construction;
/// rewrites build new nodes and may share subtrees.
struct RelExpr {
  RelKind kind;
  std::vector<RelExprPtr> children;

  // kGet: reads table columns `get_ordinals[i]` as column ids `get_cols[i]`.
  // A freshly bound Get covers all columns; pruning narrows both vectors.
  const Table* table = nullptr;
  std::vector<ColumnId> get_cols;
  std::vector<int> get_ordinals;

  // kSelect / kJoin (predicate may be TRUE literal)
  ScalarExprPtr predicate;
  JoinKind join_kind = JoinKind::kInner;

  // kApply
  ApplyKind apply_kind = ApplyKind::kCross;

  // kProject
  std::vector<ProjectItem> proj_items;
  ColumnSet passthrough;            // child columns forwarded unchanged

  // kGroupBy / kLocalGroupBy
  ColumnSet group_cols;
  std::vector<AggItem> aggs;
  bool scalar_agg = false;          // G_F (exactly one output row) vs G_{A,F}

  // kSegmentApply: children[0]=input R, children[1]=inner E(S).
  ColumnSet segment_cols;           // segmenting columns A (from R's output)
  // kSegmentRef: output ids of the segment leaf, positionally matching R's
  // OutputColumns(). Set on both the kSegmentApply node (for bookkeeping)
  // and each kSegmentRef leaf.
  std::vector<ColumnId> segment_out_cols;

  // kUnionAll / kExceptAll: output ids; child i's columns are selected by
  // input_maps[i] (positional, same arity as out_cols).
  std::vector<ColumnId> out_cols;
  std::vector<std::vector<ColumnId>> input_maps;

  // kSort
  std::vector<SortKey> sort_keys;
  int64_t limit = -1;               // -1 = no limit

  /// Deterministic output column list (see props.cc for the ordering
  /// contract per operator).
  std::vector<ColumnId> OutputColumns() const;
  ColumnSet OutputSet() const { return ColumnSet(OutputColumns()); }
};

// ---- Factory helpers ----

RelExprPtr MakeGet(const Table* table, std::vector<ColumnId> cols);
RelExprPtr MakeSelect(RelExprPtr child, ScalarExprPtr predicate);
RelExprPtr MakeProject(RelExprPtr child, std::vector<ProjectItem> items,
                       ColumnSet passthrough);
RelExprPtr MakeJoin(JoinKind kind, RelExprPtr left, RelExprPtr right,
                    ScalarExprPtr predicate);
RelExprPtr MakeApply(ApplyKind kind, RelExprPtr left, RelExprPtr right);
RelExprPtr MakeGroupBy(RelExprPtr child, ColumnSet group_cols,
                       std::vector<AggItem> aggs);
RelExprPtr MakeScalarGroupBy(RelExprPtr child, std::vector<AggItem> aggs);
RelExprPtr MakeLocalGroupBy(RelExprPtr child, ColumnSet group_cols,
                            std::vector<AggItem> aggs);
RelExprPtr MakeSegmentApply(RelExprPtr input, RelExprPtr inner,
                            ColumnSet segment_cols,
                            std::vector<ColumnId> segment_out_cols);
RelExprPtr MakeSegmentRef(std::vector<ColumnId> cols);
RelExprPtr MakeMax1row(RelExprPtr child);
RelExprPtr MakeUnionAll(std::vector<RelExprPtr> children,
                        std::vector<ColumnId> out_cols,
                        std::vector<std::vector<ColumnId>> input_maps);
RelExprPtr MakeExceptAll(RelExprPtr left, RelExprPtr right,
                         std::vector<ColumnId> out_cols,
                         std::vector<std::vector<ColumnId>> input_maps);
RelExprPtr MakeSort(RelExprPtr child, std::vector<SortKey> keys,
                    int64_t limit);
RelExprPtr MakeSingleRow();

/// Shallow clone: same payload, new children vector (for child surgery).
RelExprPtr CloneWithChildren(const RelExpr& node,
                             std::vector<RelExprPtr> children);

/// `node` with `children`: `node` itself when every child pointer is
/// unchanged, else a shallow clone. Rewrites that rebuild through this
/// return the same root exactly when nothing changed, so pointer identity
/// is the drivers' change flag.
RelExprPtr WithChildren(const RelExprPtr& node,
                        std::vector<RelExprPtr> children);

/// Round budget of the rewrite drivers (the normalizer's whole-tree loop,
/// pushdown's per-node loop, the optimizer's per-node loop). Each runs
/// until a round changes nothing; the budget only stops a rewrite that
/// never converges, returning the current (semantically equal) tree.
inline constexpr int kRewriteRoundBudget = 64;

}  // namespace orq

#endif  // ORQ_ALGEBRA_REL_EXPR_H_
