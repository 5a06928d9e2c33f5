#include "opt/optimizer.h"

#include <map>
#include <vector>

#include "algebra/expr_util.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "opt/cost.h"
#include "opt/rules.h"

namespace orq {

namespace {

class GreedyOptimizer {
 public:
  GreedyOptimizer(Catalog* catalog, ColumnManager* columns,
                  const OptimizerOptions& options)
      : columns_(columns),
        options_(options),
        cost_(catalog),
        rules_(BuildRuleSet(options)) {}

  /// Join ordering first (it needs the multi-step moves the greedy search
  /// cannot make), then the rule search over the ordered tree. Rules can
  /// form new join blocks (a GroupBy pushed below a join becomes a leaf of
  /// the join above it), so the two alternate until ordering changes
  /// nothing; the rule search is itself a fixpoint, so it need not rerun.
  RelExprPtr Run(RelExprPtr root) {
    if (!options_.join_commute) return Optimize(root, 0);
    for (int round = 0; round < kRewriteRoundBudget; ++round) {
      RelExprPtr ordered = OrderJoins(root, &cost_, options_.trace);
      if (round > 0 && ordered == root) break;
      root = Optimize(ordered, 0);
    }
    return root;
  }

  RelExprPtr Optimize(const RelExprPtr& node, int depth) {
    auto memo = memo_.find(node);
    if (memo != memo_.end()) return memo->second;

    // Children first.
    RelExprPtr current = OptimizeChildren(node, depth);

    if (depth < options_.max_depth) {
      // Take the cheapest alternative until none is strictly cheaper.
      for (int round = 0; round < kRewriteRoundBudget; ++round) {
        double current_cost = cost_.Estimate(current).cost;
        RelExprPtr best = current;
        double best_cost = current_cost;
        const char* best_rule = nullptr;
        // Candidate-evaluation wall time of the rule that ends up winning
        // this round; clock reads only happen with a trace attached.
        int64_t best_eval_nanos = 0;
        // Every costed alternative, so the losers can be traced once the
        // round's winner is known. Filled only with a trace attached.
        struct Candidate {
          const char* rule;
          RelExprPtr plan;
          double cost;
        };
        std::vector<Candidate> candidates;
        for (const auto& rule : rules_) {
          const int64_t rule_start =
              options_.trace != nullptr ? ObsNowNanos() : 0;
          for (RelExprPtr& alt : rule->Apply(current, columns_, &cost_)) {
            // Give the alternative's subtrees their own shot (e.g. a
            // pushed-down GroupBy may enable a further local split).
            RelExprPtr refined = OptimizeChildren(alt, depth + 1);
            double c = cost_.Estimate(refined).cost;
            if (options_.trace != nullptr) {
              candidates.push_back({rule->name(), refined, c});
            }
            if (StrictlyCheaper(c, best_cost)) {
              best = refined;
              best_cost = c;
              best_rule = rule->name();
            }
          }
          if (options_.trace != nullptr && best_rule == rule->name()) {
            best_eval_nanos = ObsNowNanos() - rule_start;
          }
        }
        if (options_.trace != nullptr) {
          const int64_t nodes = CountRelNodes(*current);
          for (const Candidate& lost : candidates) {
            if (lost.plan == best) continue;
            options_.trace->Record(TraceEvent{
                TraceEvent::Stage::kOptimize, TraceEvent::Kind::kCandidate,
                lost.rule, nodes, CountRelNodes(*lost.plan), current_cost,
                lost.cost});
          }
        }
        if (best == current) break;
        if (options_.trace != nullptr) {
          TraceEvent event{TraceEvent::Stage::kOptimize,
                           TraceEvent::Kind::kRule, best_rule,
                           CountRelNodes(*current), CountRelNodes(*best),
                           current_cost, best_cost};
          event.wall_nanos = best_eval_nanos;
          options_.trace->Record(std::move(event));
        }
        current = best;
      }
    }
    memo_[node] = current;
    return current;
  }

 private:
  RelExprPtr OptimizeChildren(const RelExprPtr& node, int depth) {
    if (depth >= options_.max_depth) return node;
    std::vector<RelExprPtr> children;
    for (const RelExprPtr& child : node->children) {
      children.push_back(Optimize(child, depth));
    }
    return WithChildren(node, std::move(children));
  }

  ColumnManager* columns_;
  const OptimizerOptions& options_;
  CostModel cost_;
  std::vector<std::unique_ptr<Rule>> rules_;
  // Keyed by shared_ptr: keeps source nodes alive so recycled addresses
  // cannot alias memo entries.
  std::map<RelExprPtr, RelExprPtr> memo_;
};

}  // namespace

Result<RelExprPtr> OptimizeTree(RelExprPtr root, Catalog* catalog,
                                ColumnManager* columns,
                                const OptimizerOptions& options) {
  if (!options.enable) return root;
  GreedyOptimizer optimizer(catalog, columns, options);
  return optimizer.Run(root);
}

}  // namespace orq
