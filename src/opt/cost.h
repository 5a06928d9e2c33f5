#ifndef ORQ_OPT_COST_H_
#define ORQ_OPT_COST_H_

#include <map>

#include "algebra/rel_expr.h"
#include "catalog/catalog.h"

namespace orq {

/// The optimizer's acceptance test: an alternative replaces the current
/// plan only when it costs strictly less, past a margin that keeps ties
/// and rounding noise from flipping plans. Shared by the greedy rule
/// search and the join-order pass.
inline bool StrictlyCheaper(double candidate_cost, double current_cost) {
  return candidate_cost < current_cost * 0.9999;
}

/// Cardinality and cost estimate for a (sub)plan. Costs are abstract work
/// units roughly proportional to rows touched; they only need to rank
/// alternatives consistently.
struct PlanEstimate {
  double rows = 0.0;
  double cost = 0.0;
};

/// Cardinality estimation + costing over logical trees. The model assumes
/// the physical mapping of physical.cc: equi-joins hash, other joins nest,
/// correlated applies re-execute their inner per outer row with index
/// lookups priced through the catalog's indexes, aggregations hash.
class CostModel {
 public:
  explicit CostModel(Catalog* catalog) : catalog_(catalog) {}

  /// Estimate for a subtree. Cached by node identity.
  const PlanEstimate& Estimate(const RelExprPtr& node);

  /// Estimated number of distinct values of `col` in the subtree's output;
  /// falls back to the subtree's cardinality when untraceable.
  double EstimateDistinct(const RelExprPtr& node, ColumnId col);

  /// Estimated selectivity of a predicate at `node`'s input.
  double EstimateSelectivity(const RelExprPtr& input,
                             const ScalarExprPtr& pred);

  /// Per-invocation estimate of a correlated inner: parameters are assumed
  /// bound, index lookups priced as bucket-sized scans.
  PlanEstimate EstimateCorrelatedInner(const RelExprPtr& node,
                                       const ColumnSet& params);

 private:
  PlanEstimate Compute(const RelExprPtr& node);

  Catalog* catalog_;
  // Keyed by shared_ptr: keeps the nodes alive so addresses are never
  // recycled into stale cache hits.
  std::map<RelExprPtr, PlanEstimate> cache_;
};

}  // namespace orq

#endif  // ORQ_OPT_COST_H_
