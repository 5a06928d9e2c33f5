#ifndef ORQ_NORMALIZE_NORMALIZER_H_
#define ORQ_NORMALIZE_NORMALIZER_H_

#include "algebra/rel_expr.h"
#include "common/result.h"

namespace orq {

class TraceLog;

/// Knobs for query normalization. Each switch corresponds to one of the
/// paper's orthogonal primitives so benchmarks can ablate them.
struct NormalizerOptions {
  /// Rewrite Apply into standard operators (paper section 2.3, Fig. 4).
  bool remove_correlations = true;
  /// Allow identities (5)-(7), which duplicate common subexpressions
  /// (Class-2 subqueries, section 2.5). The paper's system leaves these
  /// correlated during normalization; we remove them by default because our
  /// engine has no spool, and expose the flag for fidelity experiments.
  bool decorrelate_class2 = true;
  /// Simplify outerjoin to join under null-rejecting predicates, deriving
  /// null-rejection through GroupBy (section 1.2).
  bool simplify_outerjoins = true;
  /// Push selections/predicates down and infer the equality closure.
  bool pushdown_predicates = true;
  /// Optional rule-firing trace (obs/trace.h), not owned. Null disables
  /// tracing; EXPLAIN ANALYZE points it at the query's TraceLog.
  TraceLog* trace = nullptr;
};

/// Runs predicate pushdown, Apply removal (with Max1row elimination),
/// outerjoin simplification, constant folding and unused-column pruning in
/// rounds until a round leaves the tree unchanged (within
/// kRewriteRoundBudget rounds). Pruning is the last pass of the first round
/// and of every round that changed the tree, so a narrower tree can feed
/// one more Apply removal in the next round. Each pass is gated by its
/// option; folding and pruning ride with pushdown_predicates. The input
/// must already be free of embedded scalar subqueries (run
/// IntroduceApplies first).
Result<RelExprPtr> Normalize(RelExprPtr root, ColumnManager* columns,
                             const NormalizerOptions& options);

}  // namespace orq

#endif  // ORQ_NORMALIZE_NORMALIZER_H_
