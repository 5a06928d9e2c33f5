#include "obs/trace.h"

namespace orq {

const char* TraceStageName(TraceEvent::Stage stage) {
  switch (stage) {
    case TraceEvent::Stage::kNormalize: return "normalize";
    case TraceEvent::Stage::kOptimize: return "optimize";
  }
  return "unknown";
}

const char* TraceKindName(TraceEvent::Kind kind) {
  switch (kind) {
    case TraceEvent::Kind::kRule: return "rule";
    case TraceEvent::Kind::kPhase: return "phase";
    case TraceEvent::Kind::kCandidate: return "candidate";
  }
  return "unknown";
}

std::vector<const TraceEvent*> TraceLog::RuleFirings(
    TraceEvent::Stage stage) const {
  std::vector<const TraceEvent*> out;
  for (const TraceEvent& event : events_) {
    if (event.stage == stage && event.kind == TraceEvent::Kind::kRule) {
      out.push_back(&event);
    }
  }
  return out;
}

}  // namespace orq
