// Cost-based inner-join ordering, run once ahead of the greedy rule search
// (DESIGN §1, "Search strategy"). Single-step rules cannot reorder a join
// block: every intermediate order may cost more than the input, so the
// greedy search never walks through it. This pass flattens each block and
// rebuilds it by greedy operator ordering, and tries to move a semi/anti
// join from above a block onto the one leaf its predicate reads.
#include <map>
#include <vector>

#include "algebra/expr_util.h"
#include "algebra/props.h"
#include "obs/trace.h"
#include "opt/rules.h"

namespace orq {

namespace {

bool IsInnerJoin(const RelExpr& node) {
  return node.kind == RelKind::kJoin && (node.join_kind == JoinKind::kInner ||
                                         node.join_kind == JoinKind::kCross);
}

/// A maximal tree of inner/cross joins: its non-join inputs and the
/// conjuncts of all its join predicates.
struct Block {
  std::vector<RelExprPtr> leaves;
  std::vector<ScalarExprPtr> conjuncts;
};

void Flatten(const RelExprPtr& node, Block* block) {
  if (!IsInnerJoin(*node)) {
    block->leaves.push_back(node);
    return;
  }
  Flatten(node->children[0], block);
  Flatten(node->children[1], block);
  for (ScalarExprPtr& c : SplitConjuncts(node->predicate)) {
    if (!IsTrueLiteral(c)) block->conjuncts.push_back(std::move(c));
  }
}

bool IsSemiOverBlock(const RelExpr& node) {
  return node.kind == RelKind::kJoin &&
         (node.join_kind == JoinKind::kLeftSemi ||
          node.join_kind == JoinKind::kLeftAnti) &&
         IsInnerJoin(*node.children[0]);
}

int CountLeaves(const RelExpr& node) {
  if (!IsInnerJoin(node)) return 1;
  return CountLeaves(*node.children[0]) + CountLeaves(*node.children[1]);
}

/// Whether the subtree holds anything the pass may change. About two
/// thirds of generated ad-hoc queries hold none; for them this walk, which
/// allocates nothing, replaces the pass's memoized rebuild of the tree
/// (EXPERIMENTS.md, "Join-order pass: traffic and compile cost").
bool HasCandidate(const RelExpr& node) {
  if (IsInnerJoin(node) ? CountLeaves(node) >= 3 : IsSemiOverBlock(node)) {
    return true;
  }
  for (const RelExprPtr& child : node.children) {
    if (HasCandidate(*child)) return true;
  }
  return false;
}

class JoinOrderer {
 public:
  JoinOrderer(CostModel* cost, TraceLog* trace) : cost_(cost), trace_(trace) {}

  RelExprPtr Visit(const RelExprPtr& node) {
    auto memo = memo_.find(node);
    if (memo != memo_.end()) return memo->second;
    RelExprPtr result;
    if (IsInnerJoin(*node)) {
      RelExprPtr input = VisitLeaves(node);
      Block block;
      Flatten(input, &block);
      result = block.leaves.size() >= 3
                   ? Cheaper("JoinOrder", input, Order(std::move(block)))
                   : input;
    } else {
      std::vector<RelExprPtr> children;
      for (const RelExprPtr& child : node->children) {
        children.push_back(Visit(child));
      }
      result = WithChildren(node, std::move(children));
      if (IsSemiOverBlock(*result)) result = AttachToLeaf(result);
    }
    memo_[node] = result;
    return result;
  }

 private:
  /// The block rooted at `node` over visited leaves, in its input shape.
  RelExprPtr VisitLeaves(const RelExprPtr& node) {
    if (!IsInnerJoin(*node)) return Visit(node);
    return WithChildren(node, {VisitLeaves(node->children[0]),
                               VisitLeaves(node->children[1])});
  }

  /// Semi/anti join over a block whose left-side references all lie in one
  /// leaf: filtering that leaf first drops the same block rows.
  RelExprPtr AttachToLeaf(const RelExprPtr& semi) {
    const RelExprPtr& input = semi->children[0];
    ColumnSet block_cols = input->OutputSet();
    if (FreeVariables(*semi->children[1]).Intersects(block_cols)) return semi;
    ColumnSet refs;
    CollectColumnRefsDeep(semi->predicate, &refs);
    refs = refs.Intersect(block_cols);
    if (refs.empty()) return semi;
    Block block;
    Flatten(input, &block);
    for (RelExprPtr& leaf : block.leaves) {
      if (refs.IsSubsetOf(leaf->OutputSet())) {
        leaf = MakeJoin(semi->join_kind, leaf, semi->children[1],
                        semi->predicate);
        return Cheaper("SemiJoinToLeaf", semi, Order(std::move(block)));
      }
    }
    return semi;
  }

  /// Greedy operator ordering: join the connected pair with the fewest
  /// estimated rows until one tree is left; a cross product only when no
  /// pair is connected. Each conjunct lands on the first join that covers
  /// its block columns.
  RelExprPtr Order(Block block) {
    struct Part {
      RelExprPtr tree;
      ColumnSet cols;
      bool leaf;
    };
    std::vector<Part> parts;
    ColumnSet block_cols;
    for (RelExprPtr& leaf : block.leaves) {
      ColumnSet cols = leaf->OutputSet();
      block_cols.AddAll(cols);
      parts.push_back({std::move(leaf), std::move(cols), true});
    }
    std::vector<std::pair<ScalarExprPtr, ColumnSet>> pending;
    for (ScalarExprPtr& c : block.conjuncts) {
      ColumnSet refs;
      CollectColumnRefsDeep(c, &refs);
      pending.emplace_back(std::move(c), refs.Intersect(block_cols));
    }
    while (parts.size() > 1) {
      RelExprPtr best;
      size_t best_i = 0, best_j = 0;
      double best_rows = 0.0;
      bool best_connected = false;
      for (size_t i = 0; i < parts.size(); ++i) {
        for (size_t j = i + 1; j < parts.size(); ++j) {
          ColumnSet both = parts[i].cols.Union(parts[j].cols);
          std::vector<ScalarExprPtr> covered;
          bool connected = false;
          for (const auto& [conjunct, refs] : pending) {
            if (!refs.IsSubsetOf(both)) continue;
            covered.push_back(conjunct);
            connected |= refs.Intersects(parts[i].cols) &&
                         refs.Intersects(parts[j].cols);
          }
          if (best_connected && !connected) continue;
          // The added base input goes right (build side, and the inner
          // that correlated reintroduction turns into an index lookup);
          // between two leaves or two joins, the smaller one does.
          const Part* left = &parts[i];
          const Part* right = &parts[j];
          if (left->leaf == right->leaf
                  ? cost_->Estimate(left->tree).rows <
                        cost_->Estimate(right->tree).rows
                  : left->leaf) {
            std::swap(left, right);
          }
          RelExprPtr join = MakeJoin(JoinKind::kInner, left->tree,
                                     right->tree, MakeAnd(std::move(covered)));
          double rows = cost_->Estimate(join).rows;
          if (best == nullptr || (connected && !best_connected) ||
              rows < best_rows) {
            best = std::move(join);
            best_i = i;
            best_j = j;
            best_rows = rows;
            best_connected = connected;
          }
        }
      }
      ColumnSet both = parts[best_i].cols.Union(parts[best_j].cols);
      std::erase_if(pending, [&both](const auto& entry) {
        return entry.second.IsSubsetOf(both);
      });
      parts[best_i] = {std::move(best), std::move(both), false};
      parts.erase(parts.begin() + best_j);
    }
    return parts[0].tree;
  }

  /// `alt` when the cost model ranks it strictly cheaper than `input`.
  RelExprPtr Cheaper(const char* rule, const RelExprPtr& input,
                     const RelExprPtr& alt) {
    double before = cost_->Estimate(input).cost;
    double after = cost_->Estimate(alt).cost;
    bool keep = StrictlyCheaper(after, before);
    if (trace_ != nullptr) {
      trace_->Record(TraceEvent{
          TraceEvent::Stage::kOptimize,
          keep ? TraceEvent::Kind::kRule : TraceEvent::Kind::kCandidate, rule,
          CountRelNodes(*input), CountRelNodes(*alt), before, after});
    }
    return keep ? alt : input;
  }

  CostModel* cost_;
  TraceLog* trace_;
  // Keyed by shared_ptr, as in the greedy search: keeps source nodes alive
  // so recycled addresses cannot alias entries.
  std::map<RelExprPtr, RelExprPtr> memo_;
};

}  // namespace

RelExprPtr OrderJoins(const RelExprPtr& root, CostModel* cost,
                      TraceLog* trace) {
  if (!HasCandidate(*root)) return root;
  return JoinOrderer(cost, trace).Visit(root);
}

}  // namespace orq
