#include "obs/profile.h"

#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace orq {

const char* QueryPhaseName(QueryPhase phase) {
  switch (phase) {
    case QueryPhase::kParse: return "parse";
    case QueryPhase::kBind: return "bind";
    case QueryPhase::kApplyIntro: return "apply_intro";
    case QueryPhase::kNormalize: return "normalize";
    case QueryPhase::kOptimize: return "optimize";
    case QueryPhase::kPhysicalBuild: return "physical_build";
    case QueryPhase::kExecute: return "execute";
    case QueryPhase::kTeardown: return "teardown";
  }
  return "unknown";
}

int64_t QueryProfile::PhaseSum() const {
  int64_t sum = 0;
  for (const PhaseSpan& span : phases) sum += span.wall_nanos;
  return sum;
}

std::string RenderProfile(const QueryProfile& profile, const TraceLog* trace) {
  std::string out;
  const double total_ms =
      static_cast<double>(profile.total_nanos) / 1e6;
  char line[160];
  for (int i = 0; i < kNumQueryPhases; ++i) {
    const PhaseSpan& span = profile.phases[i];
    const double pct =
        profile.total_nanos > 0
            ? 100.0 * static_cast<double>(span.wall_nanos) /
                  static_cast<double>(profile.total_nanos)
            : 0.0;
    std::snprintf(line, sizeof(line), "  %-14s %10.3f ms  %5.1f%%\n",
                  QueryPhaseName(static_cast<QueryPhase>(i)),
                  static_cast<double>(span.wall_nanos) / 1e6, pct);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "  %-14s %10.3f ms  (phase sum %.3f ms)\n", "total", total_ms,
                static_cast<double>(profile.PhaseSum()) / 1e6);
  out += line;
  if (profile.cache != CacheOutcome::kOff) {
    out += "  cache:         ";
    out += profile.cache == CacheOutcome::kHit ? "hit" : "miss";
    out.push_back('\n');
  }
  if (trace != nullptr) {
    // Cumulative compile time by rule/pass, insertion-ordered by first
    // firing. Only events that carry timing contribute (optimizer rules and
    // normalizer passes do; identity firings nest and are not re-timed).
    std::vector<std::pair<std::string, int64_t>> by_rule;
    for (const TraceEvent& event : trace->events()) {
      if (event.wall_nanos <= 0) continue;
      const std::string key =
          std::string(TraceStageName(event.stage)) + "/" + event.rule;
      bool found = false;
      for (auto& [name, nanos] : by_rule) {
        if (name == key) {
          nanos += event.wall_nanos;
          found = true;
          break;
        }
      }
      if (!found) by_rule.emplace_back(key, event.wall_nanos);
    }
    if (!by_rule.empty()) {
      out += "  rule time:\n";
      for (const auto& [name, nanos] : by_rule) {
        std::snprintf(line, sizeof(line), "    %-28s %10.3f ms\n",
                      name.c_str(), static_cast<double>(nanos) / 1e6);
        out += line;
      }
    }
  }
  return out;
}

std::string ProfileToJson(const QueryProfile& profile) {
  std::string out = "{\"total_nanos\":";
  out += std::to_string(profile.total_nanos);
  out += ",\"phases\":[";
  for (int i = 0; i < kNumQueryPhases; ++i) {
    if (i > 0) out.push_back(',');
    out += "{\"phase\":";
    AppendJsonString(QueryPhaseName(static_cast<QueryPhase>(i)), &out);
    out += ",\"wall_nanos\":";
    out += std::to_string(profile.phases[i].wall_nanos);
    out += ",\"start_nanos\":";
    out += std::to_string(profile.phases[i].start_nanos);
    out.push_back('}');
  }
  out += "]}";
  return out;
}

}  // namespace orq
