#ifndef ORQ_OBS_TRACE_H_
#define ORQ_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace orq {

/// One normalization/optimization rule firing (or whole-phase pass).
/// Node counts are of the rewritten subtree (rule granularity) or the whole
/// query tree (phase granularity), letting consumers see whether a rewrite
/// grew or shrank the plan. Costs are the optimizer's estimates and are -1
/// for normalization events, which fire unconditionally.
struct TraceEvent {
  enum class Stage { kNormalize, kOptimize };
  /// Rule firings record one identity/transformation application; phase
  /// events bracket a whole pipeline pass over the tree; candidate events
  /// record an optimizer alternative that was costed and lost its round
  /// (cost_after is the alternative's cost).
  enum class Kind { kRule, kPhase, kCandidate };

  Stage stage = Stage::kNormalize;
  Kind kind = Kind::kRule;
  std::string rule;
  int64_t nodes_before = 0;
  int64_t nodes_after = 0;
  double cost_before = -1.0;
  double cost_after = -1.0;
  /// Wall time spent producing this rewrite: candidate evaluation for
  /// optimizer rules, the whole pass for normalizer phase events. Zero for
  /// events recorded without timing (nested identity firings — their time
  /// is inside the enclosing pass).
  int64_t wall_nanos = 0;
};

const char* TraceStageName(TraceEvent::Stage stage);
const char* TraceKindName(TraceEvent::Kind kind);

/// Ordered record of every rule firing during compilation. Attached to
/// NormalizerOptions/OptimizerOptions as a non-owning pointer; a null
/// pointer (the default) disables tracing entirely.
class TraceLog {
 public:
  void Record(TraceEvent event) { events_.push_back(std::move(event)); }

  const std::vector<TraceEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  size_t size() const { return events_.size(); }
  void clear() { events_.clear(); }

  /// Rule-granularity firings for one stage, in firing order.
  std::vector<const TraceEvent*> RuleFirings(TraceEvent::Stage stage) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace orq

#endif  // ORQ_OBS_TRACE_H_
