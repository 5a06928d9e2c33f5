#include "normalize/normalizer.h"

#include "algebra/expr_util.h"
#include "normalize/apply_removal.h"
#include "normalize/fold.h"
#include "normalize/oj_simplify.h"
#include "normalize/pushdown.h"
#include "obs/stats.h"
#include "obs/trace.h"

namespace orq {

namespace {

/// Records one whole-tree pass when tracing is on and the pass changed the
/// tree. Pointer inequality is exact: every pass rebuilds a node only when
/// its children or payload changed, so an untouched tree comes back as the
/// same root.
/// `start_nanos` is the pass entry time; the event carries the pass's wall
/// time so compile time is attributable per pass (nested identity firings
/// recorded by apply_removal are inside this window and stay untimed).
void TracePhase(const NormalizerOptions& options, const char* phase,
                const RelExprPtr& before, const RelExprPtr& after,
                int64_t start_nanos) {
  if (options.trace == nullptr || before == after) return;
  TraceEvent event{TraceEvent::Stage::kNormalize, TraceEvent::Kind::kPhase,
                   phase, CountRelNodes(*before), CountRelNodes(*after),
                   -1.0, -1.0};
  event.wall_nanos = ObsNowNanos() - start_nanos;
  options.trace->Record(std::move(event));
}

/// Pass entry stamp; skipped (zero) when tracing is off so the untraced
/// compile path takes no clock readings.
int64_t PassStart(const NormalizerOptions& options) {
  return options.trace != nullptr ? ObsNowNanos() : 0;
}

}  // namespace

Result<RelExprPtr> Normalize(RelExprPtr root, ColumnManager* columns,
                             const NormalizerOptions& options) {
  // The passes interact: pushdown exposes identity-(2) shapes to Apply
  // removal; Apply removal produces outerjoins for simplification, which in
  // turn unlocks further pushdown; folding empties subtrees that pushdown
  // then tidies; pruning unused columns can expose identity shapes too.
  // Each pass returns its input root when it rewrote nothing, so the
  // rounds stop at the first one that changes nothing.
  RelExprPtr current = std::move(root);
  RelExprPtr before;
  int64_t start = 0;
  for (int round = 0; round < kRewriteRoundBudget; ++round) {
    const RelExprPtr round_start = current;
    if (options.pushdown_predicates) {
      before = current;
      start = PassStart(options);
      current = PushdownPredicates(current, columns);
      TracePhase(options, "pushdown", before, current, start);
    }
    if (options.remove_correlations) {
      before = current;
      start = PassStart(options);
      ORQ_ASSIGN_OR_RETURN(current,
                           RemoveApplies(current, columns, options));
      TracePhase(options, "apply_removal", before, current, start);
    }
    if (options.simplify_outerjoins) {
      before = current;
      start = PassStart(options);
      current = SimplifyOuterJoins(current);
      TracePhase(options, "oj_simplify", before, current, start);
    }
    if (options.pushdown_predicates) {
      // Constant folding + empty-subexpression detection (section 4).
      before = current;
      start = PassStart(options);
      current = FoldAndDetectEmpty(current, columns);
      TracePhase(options, "fold", before, current, start);
      // Pruning last in the round: a narrower tree can enable one more
      // Apply removal, which the next round then sees. A later round that
      // has changed nothing so far holds the last prune's own output.
      if (round == 0 || current != round_start) {
        before = current;
        start = PassStart(options);
        current = PruneColumns(current, columns);
        TracePhase(options, "prune", before, current, start);
      }
    }
    if (current == round_start) break;
  }
  return current;
}

}  // namespace orq
