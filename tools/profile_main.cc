// Query-lifecycle profiler: runs one query against a generated TPC-H
// catalog with full instrumentation and writes a Chrome-trace-event JSON
// file (load it at https://ui.perfetto.dev or chrome://tracing). Console
// output shows the phase-time breakdown and engine metrics.
//
// Usage:
//   orq_profile --tpch Q2 [--sf 0.01] [--config full] [--out trace.json]
//   orq_profile --sql "SELECT ..." [--sf 0.01] [--out trace.json]
//   orq_profile --tpch Q2 --overhead   # instrumented-vs-plain timing
//
// Configs: full | correlated_only | no_groupby_opts | no_segment_apply
// (the named engine configurations of EXPERIMENTS.md).
//
// --overhead runs the query repeatedly through both Execute (instrumentation
// off: one null-check per operator call) and ExecuteAnalyzed (stats +
// metrics + spans) and reports both wall times — the number quoted in
// EXPERIMENTS.md's overhead section.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "engine/engine.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/spans.h"
#include "obs/stats.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: orq_profile (--tpch QID | --sql SQL) [--sf X]\n"
               "                   [--config full|correlated_only|"
               "no_groupby_opts|no_segment_apply]\n"
               "                   [--out trace.json] [--overhead]\n");
  return 2;
}

bool PickConfig(const char* name, orq::EngineOptions* out) {
  if (std::strcmp(name, "full") == 0) {
    *out = orq::EngineOptions::Full();
  } else if (std::strcmp(name, "correlated_only") == 0) {
    *out = orq::EngineOptions::CorrelatedOnly();
  } else if (std::strcmp(name, "no_groupby_opts") == 0) {
    *out = orq::EngineOptions::NoGroupByOptimizations();
  } else if (std::strcmp(name, "no_segment_apply") == 0) {
    *out = orq::EngineOptions::NoSegmentApply();
  } else {
    return false;
  }
  return true;
}

/// Instrumented-vs-plain comparison: alternates the two paths so cache and
/// frequency effects hit both equally; reports best-of-N per path.
int RunOverhead(orq::QueryEngine* engine, const std::string& sql) {
  constexpr int kRounds = 9;
  double plain_best_ms = 0.0;
  double analyzed_best_ms = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    int64_t start = orq::ObsNowNanos();
    orq::Result<orq::QueryResult> plain = engine->Execute(sql);
    double plain_ms = (orq::ObsNowNanos() - start) / 1e6;
    if (!plain.ok()) {
      std::fprintf(stderr, "orq_profile: %s\n",
                   plain.status().ToString().c_str());
      return 1;
    }
    orq::SpanRecorder spans;
    orq::ExecControl control;
    control.spans = &spans;
    start = orq::ObsNowNanos();
    orq::Result<orq::AnalyzedQuery> analyzed =
        engine->ExecuteAnalyzed(sql, control);
    double analyzed_ms = (orq::ObsNowNanos() - start) / 1e6;
    if (!analyzed.ok()) {
      std::fprintf(stderr, "orq_profile: %s\n",
                   analyzed.status().ToString().c_str());
      return 1;
    }
    if (round == 0 || plain_ms < plain_best_ms) plain_best_ms = plain_ms;
    if (round == 0 || analyzed_ms < analyzed_best_ms) {
      analyzed_best_ms = analyzed_ms;
    }
  }
  std::printf("plain Execute:      %10.3f ms (best of %d)\n", plain_best_ms,
              kRounds);
  std::printf("ExecuteAnalyzed:    %10.3f ms (best of %d)\n",
              analyzed_best_ms, kRounds);
  std::printf("overhead:           %10.1f %%\n",
              plain_best_ms > 0
                  ? 100.0 * (analyzed_best_ms - plain_best_ms) / plain_best_ms
                  : 0.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string sql;
  std::string label = "adhoc";
  double scale_factor = 0.01;
  std::string out_path = "trace.json";
  orq::EngineOptions options = orq::EngineOptions::Full();
  std::string config_name = "full";
  bool overhead = false;

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--tpch") == 0) {
      label = next("--tpch");
      sql = orq::GetTpchQuery(label).sql;
    } else if (std::strcmp(argv[i], "--sql") == 0) {
      sql = next("--sql");
    } else if (std::strcmp(argv[i], "--sf") == 0) {
      scale_factor = std::atof(next("--sf"));
    } else if (std::strcmp(argv[i], "--config") == 0) {
      config_name = next("--config");
      if (!PickConfig(config_name.c_str(), &options)) {
        std::fprintf(stderr, "unknown config %s\n", config_name.c_str());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out_path = next("--out");
    } else if (std::strcmp(argv[i], "--overhead") == 0) {
      overhead = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", argv[i]);
      return Usage();
    }
  }
  if (sql.empty()) return Usage();
  if (scale_factor <= 0) {
    std::fprintf(stderr, "--sf must be positive\n");
    return 2;
  }

  orq::Catalog catalog;
  orq::TpchGenOptions gen;
  gen.scale_factor = scale_factor;
  orq::Status gen_status = orq::GenerateTpch(&catalog, gen);
  if (!gen_status.ok()) {
    std::fprintf(stderr, "TPC-H generation failed: %s\n",
                 gen_status.ToString().c_str());
    return 2;
  }
  orq::QueryEngine engine(&catalog, options);

  if (overhead) return RunOverhead(&engine, sql);

  orq::SpanRecorder spans;
  orq::ExecControl control;
  control.spans = &spans;
  orq::Result<orq::AnalyzedQuery> analyzed =
      engine.ExecuteAnalyzed(sql, control);
  if (!analyzed.ok()) {
    std::fprintf(stderr, "orq_profile: %s\n",
                 analyzed.status().ToString().c_str());
    return 1;
  }

  std::printf("%s @ SF %g, config %s: %lld row(s)\n\n", label.c_str(),
              scale_factor, config_name.c_str(),
              static_cast<long long>(analyzed->result.rows.size()));
  std::printf("== Phase times ==\n%s",
              orq::RenderProfile(analyzed->profile, &analyzed->trace).c_str());
  if (!analyzed->metrics.empty()) {
    std::printf("\n== Engine metrics ==\n%s",
                orq::RenderMetrics(analyzed->metrics).c_str());
  }

  const std::string trace_json =
      orq::ChromeTraceJson(&analyzed->profile, spans);
  std::FILE* file = std::fopen(out_path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "orq_profile: cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(file, "%s\n", trace_json.c_str());
  std::fclose(file);
  std::printf("\nwrote %s (%zu bytes, %zu span(s)) — load in "
              "https://ui.perfetto.dev\n",
              out_path.c_str(), trace_json.size(),
              spans.spans().size());
  return 0;
}
