// The traced run: the workload's queries pushed through each layer's public
// function in turn (parse, bind, Apply introduction, normalize, optimize,
// physical build, execute, canonical text, wire encode/decode), timed per
// call and recorded as spans in memory. Per-operator costs per exec mode
// and q-errors come from ExecuteAnalyzed; catalog costs from cold stats and
// chunk builds. Every hand-driven query is checked against
// QueryEngine::Execute (result bytes) and QueryEngine::Explain (plan text).
#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>

#include "common.h"
#include "difftest/oracle.h"
#include "exec/exec.h"
#include "normalize/normalizer.h"
#include "obs/report.h"
#include "opt/optimizer.h"
#include "opt/physical.h"
#include "server/client.h"
#include "sql/apply_intro.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace perfbench {

namespace {

/// Repetitions of the plain and traced pipelines per query (alternated;
/// per-phase figures are the median over them).
constexpr int kReps = 3;
/// adhoc_mix queries in the traced run.
constexpr size_t kAdhocTracedQueries = 1000;

enum Phase {
  kParse, kBind, kApplyIntro, kNormalize, kOptimize, kPhysicalBuild,
  kExecute, kCanonical, kEncode, kDecode, kNumPhases
};
constexpr const char* kPhaseLayer[kNumPhases] = {
    "sql.parse", "sql.bind", "sql.apply_intro", "normalize", "opt.optimize",
    "opt.physical_build", "exec.execute", "server.canonical",
    "server.encode", "server.decode"};

const char* const kModes[] = {"row", "batch", "columnar", "columnar_auto"};
const char* const kOps[] = {
    "TableScan", "IndexSeek", "Filter", "Compute", "HashJoin",
    "NestedLoopsJoin", "Apply", "SegmentApply", "HashAggregate",
    "ScalarAggregate", "Sort"};

struct Span {
  std::string layer;
  std::string query;
  int64_t start = 0;
  int64_t end = 0;
  int id = 0;
  int parent = -1;
};

/// In-memory span log; written out once, after the run.
class SpanLog {
 public:
  int Reserve() { return next_id_++; }
  void Add(int id, const std::string& layer, const std::string& query,
           int64_t start, int64_t end, int parent) {
    spans_.push_back({layer, query, start, end, id, parent});
  }
  void Write(const std::string& path) const {
    if (path.empty()) return;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "perfbench: cannot write spans to %s\n",
                   path.c_str());
      return;
    }
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"id\":%d,\"parent\":%d,\"layer\":\"%s\",\"query\":\"%s\","
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   s.id, s.parent, s.layer.c_str(), s.query.c_str(),
                   static_cast<long long>(s.start),
                   static_cast<long long>(s.end));
    }
    std::fclose(f);
  }

 private:
  std::vector<Span> spans_;
  int next_id_ = 0;
};

/// One pass of the hand-driven pipeline over one query.
struct Traced {
  orq::Status status = orq::Status::OK();
  int64_t nanos[kNumPhases] = {};
  bool reached[kNumPhases] = {};
  std::string plan_text;
  std::vector<std::string> columns;
  std::vector<std::string> rows;
  int64_t rows_produced = 0;
  size_t encoded_bytes = 0;
};

/// Times one call as a span under `parent`; with no span log it only makes
/// the call (the plain pipeline that trace_overhead_pct compares against).
class PhaseClock {
 public:
  PhaseClock(Traced* out, SpanLog* spans, const std::string& query,
             int parent)
      : out_(out), spans_(spans), query_(query), parent_(parent) {}
  template <typename F>
  auto Time(Phase phase, F&& f) {
    out_->reached[phase] = true;
    if (spans_ == nullptr) return f();
    const int64_t start = NowNanos();
    auto result = f();
    const int64_t end = NowNanos();
    out_->nanos[phase] = end - start;
    spans_->Add(spans_->Reserve(), kPhaseLayer[phase], query_, start, end,
                parent_);
    return result;
  }

 private:
  Traced* out_;
  SpanLog* spans_;
  const std::string& query_;
  int parent_;
};

/// ExecuteToVector plus the projection onto the query's output columns, as
/// the engine does it (plans may carry extra columns).
orq::Result<std::vector<orq::Row>> RunAndProject(
    orq::PhysicalOp* plan, const std::vector<orq::ColumnId>& output_cols,
    orq::ExecContext* ctx) {
  ORQ_ASSIGN_OR_RETURN(std::vector<orq::Row> raw,
                       orq::ExecuteToVector(plan, ctx));
  const std::vector<orq::ColumnId>& layout = plan->layout();
  std::vector<size_t> slots;
  for (orq::ColumnId id : output_cols) {
    auto it = std::find(layout.begin(), layout.end(), id);
    if (it == layout.end()) return orq::Status::Internal("output column lost");
    slots.push_back(static_cast<size_t>(it - layout.begin()));
  }
  std::vector<orq::Row> projected;
  projected.reserve(raw.size());
  for (orq::Row& row : raw) {
    orq::Row out;
    out.reserve(slots.size());
    for (size_t slot : slots) out.push_back(std::move(row[slot]));
    projected.push_back(std::move(out));
  }
  return projected;
}

#define PB_ASSIGN(lhs, expr)               \
  auto lhs##_result = (expr);              \
  if (!lhs##_result.ok()) {                \
    out.status = lhs##_result.status();    \
    return out;                            \
  }                                        \
  auto lhs = std::move(lhs##_result).value()

/// Mirrors QueryEngine's plain Execute path call for call. With a span
/// log, each call is timed and recorded under a per-query root span.
Traced RunPipeline(orq::Catalog* catalog, const orq::EngineOptions& options,
                   const std::string& sql, const std::string& query,
                   SpanLog* spans) {
  Traced out;
  struct RootSpan {
    SpanLog* spans;
    const std::string& query;
    int id = spans == nullptr ? -1 : spans->Reserve();
    int64_t start = spans == nullptr ? 0 : NowNanos();
    ~RootSpan() {
      if (spans != nullptr) {
        spans->Add(id, "query", query, start, NowNanos(), -1);
      }
    }
  } root{spans, query};
  PhaseClock clock(&out, spans, query, root.id);

  auto columns = std::make_shared<orq::ColumnManager>();
  PB_ASSIGN(ast, clock.Time(kParse, [&] { return orq::ParseSql(sql); }));
  orq::Binder binder(catalog, columns);
  PB_ASSIGN(bound, clock.Time(kBind, [&] { return binder.Bind(*ast); }));
  if (!bound.param_types.empty()) {
    out.status = orq::Status::InvalidArgument("unexpected parameters");
    return out;
  }
  PB_ASSIGN(applied, clock.Time(kApplyIntro, [&] {
              return orq::IntroduceApplies(bound.root, columns.get());
            }));
  PB_ASSIGN(normalized, clock.Time(kNormalize, [&] {
              return orq::Normalize(applied, columns.get(),
                                    options.normalizer);
            }));
  PB_ASSIGN(optimized, clock.Time(kOptimize, [&] {
              return orq::OptimizeTree(normalized, catalog, columns.get(),
                                       options.optimizer);
            }));
  orq::PhysicalBuildOptions physical = options.physical;
  physical.num_threads = options.exec.num_threads;
  PB_ASSIGN(plan, clock.Time(kPhysicalBuild, [&] {
              return orq::BuildPhysicalPlan(optimized, *columns, physical);
            }));
  out.plan_text = orq::PrintPhysicalPlan(*plan, columns.get());

  orq::ExecContext ctx;
  ctx.batched = options.exec.batched;
  ctx.columnar = options.exec.columnar;
  ctx.table_encoding = options.exec.table_encoding;
  ctx.batch_size = options.exec.batch_size;
  ctx.morsel_rows = options.exec.morsel_rows;
  PB_ASSIGN(rows, clock.Time(kExecute, [&] {
              return RunAndProject(plan.get(), bound.output_cols, &ctx);
            }));
  out.rows_produced = ctx.rows_produced;
  out.columns = bound.output_names;

  orq::WireResult wire;
  wire.columns = bound.output_names;
  wire.rows_produced = ctx.rows_produced;
  clock.Time(kCanonical, [&] {
    wire.rows.reserve(rows.size());
    for (const orq::Row& row : rows) {
      wire.rows.push_back(orq::CanonicalRow(row));
    }
    return 0;
  });
  const std::string payload =
      clock.Time(kEncode, [&] { return orq::EncodeResult(wire); });
  out.encoded_bytes = payload.size();
  PB_ASSIGN(decoded, clock.Time(kDecode, [&] {
              return orq::DecodeResult(payload);
            }));
  out.rows = std::move(decoded.rows);
  return out;
}

#undef PB_ASSIGN

std::string PhysicalSection(const std::string& explain) {
  static const std::string kMarker = "== Physical plan ==\n";
  const size_t pos = explain.rfind(kMarker);
  return pos == std::string::npos ? "" : explain.substr(pos + kMarker.size());
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

}  // namespace

int RunTraced(const Options& options) {
  const Workload workload = options.workload;
  std::unique_ptr<Host> host = StartHost(workload, options.seed);
  orq::Catalog* catalog = host->catalog.get();

  // Catalog layer, cold: statistics, then plain and auto-encoded chunks.
  const std::vector<std::string> tables = catalog->TableNames();
  int64_t t0 = NowNanos();
  for (const std::string& name : tables) {
    catalog->GetStats(*catalog->FindTable(name));
  }
  const double stats_ms = static_cast<double>(NowNanos() - t0) / 1e6;
  double chunk_ms[2] = {};
  double chunk_mb[2] = {};
  const orq::TableEncoding encodings[2] = {orq::TableEncoding::kPlain,
                                           orq::TableEncoding::kAuto};
  for (int e = 0; e < 2; ++e) {
    t0 = NowNanos();
    size_t bytes = 0;
    for (const std::string& name : tables) {
      for (const orq::Table::ColumnChunk& chunk :
           catalog->FindTable(name)->ColumnarChunks(encodings[e])) {
        bytes += chunk.encoded_bytes;
      }
    }
    chunk_ms[e] = static_cast<double>(NowNanos() - t0) / 1e6;
    chunk_mb[e] = static_cast<double>(bytes) / 1e6;
  }

  const std::vector<std::string> queries =
      WorkloadQueries(workload, *catalog, options.seed, kAdhocTracedQueries);
  const size_t n = queries.size();
  const orq::EngineOptions defaults;
  orq::QueryEngine engine(catalog, defaults);
  SpanLog spans;

  // Fidelity reference and warm-up: QueryEngine::Execute and Explain.
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<orq::Result<orq::QueryResult>> engine_result;
  std::vector<std::string> engine_plan;
  for (const std::string& sql : queries) {
    engine_result.push_back(engine.Execute(sql));
    orq::Result<std::string> explain = engine.Explain(sql);
    engine_plan.push_back(explain.ok() ? PhysicalSection(*explain) : "");
  }

  // Alternate the plain and the traced pipeline, kReps times each, timing
  // each call whole. The order flips every repetition so neither side
  // always runs warm.
  std::vector<std::vector<double>> plain_ns(n);
  std::vector<std::vector<double>> traced_ns(n);
  std::vector<std::vector<Traced>> traced(n);
  for (int rep = 0; rep < kReps; ++rep) {
    for (size_t q = 0; q < n; ++q) {
      auto plain = [&] {
        const int64_t start = NowNanos();
        (void)RunPipeline(catalog, defaults, queries[q], "", nullptr);
        plain_ns[q].push_back(static_cast<double>(NowNanos() - start));
      };
      if (rep % 2 == 0) plain();
      const int64_t start = NowNanos();
      const std::string id = std::string(WorkloadName(workload)) + "/q" +
                             std::to_string(q) + "/r" + std::to_string(rep);
      traced[q].push_back(
          RunPipeline(catalog, defaults, queries[q], id, &spans));
      traced_ns[q].push_back(static_cast<double>(NowNanos() - start));
      if (rep % 2 == 1) plain();
    }
  }

  // Fidelity: same status, plan text and canonical result bytes as the
  // engine, on every repetition.
  for (size_t q = 0; q < n; ++q) {
    const orq::Result<orq::QueryResult>& want = engine_result[q];
    for (const Traced& t : traced[q]) {
      ++attempted;
      bool same = t.status.code() == want.status().code() &&
                  t.status.message() == want.status().message();
      if (same && want.ok()) {
        std::vector<std::string> rows;
        for (const orq::Row& row : want->rows) {
          rows.push_back(orq::CanonicalRow(row));
        }
        same = t.plan_text == engine_plan[q] &&
               t.columns == want->column_names && t.rows == rows;
      }
      if (!same) {
        ++failed;
        std::fprintf(stderr, "perfbench: traced pipeline diverges on: %s\n",
                     queries[q].c_str());
      }
    }
  }

  // Per-phase medians over the repetitions, then means over queries.
  std::vector<double> phase_us[kNumPhases];
  double traced_total = 0.0;
  double plain_total = 0.0;
  double exec_ns = 0.0;
  double canonical_ns = 0.0;
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  double rows_produced = 0.0;
  double result_rows = 0.0;
  double encoded_bytes = 0.0;
  for (size_t q = 0; q < n; ++q) {
    const Traced& first = traced[q].front();
    double med[kNumPhases] = {};
    for (int p = 0; p < kNumPhases; ++p) {
      if (!first.reached[p]) continue;
      std::vector<double> v;
      for (const Traced& t : traced[q]) {
        v.push_back(static_cast<double>(t.nanos[p]));
      }
      med[p] = Quantile(v, 0.5);
      phase_us[p].push_back(med[p] / 1e3);
    }
    traced_total += Quantile(traced_ns[q], 0.5);
    plain_total += Quantile(plain_ns[q], 0.5);
    if (!first.status.ok()) continue;
    exec_ns += med[kExecute];
    canonical_ns += med[kCanonical];
    encode_ns += med[kEncode];
    decode_ns += med[kDecode];
    rows_produced += static_cast<double>(first.rows_produced);
    result_rows += static_cast<double>(first.rows.size());
    encoded_bytes += static_cast<double>(first.encoded_bytes);
  }

  // Per-operator self time per exec mode; q-error and normalizer rule
  // firings from the batch-mode runs (the session default).
  std::map<std::string, std::pair<double, double>> op_cost;  // ns, rows
  std::vector<double> qerrors;
  std::vector<double> firings;
  for (int m = 0; m < 4; ++m) {
    orq::EngineOptions mode = defaults;
    mode.exec.batched = m != 0;
    mode.exec.columnar = m >= 2;
    mode.exec.table_encoding =
        m == 3 ? orq::TableEncoding::kAuto : orq::TableEncoding::kPlain;
    orq::QueryEngine analyzer(catalog, mode);
    for (const std::string& sql : queries) {
      orq::Result<orq::AnalyzedQuery> a = analyzer.ExecuteAnalyzed(sql);
      if (!a.ok()) continue;
      if (m == 1) {
        firings.push_back(static_cast<double>(
            a->trace.RuleFirings(orq::TraceEvent::Stage::kNormalize).size()));
      }
      std::vector<const orq::PlanStatsNode*> stack = {&a->plan};
      while (!stack.empty()) {
        const orq::PlanStatsNode* node = stack.back();
        stack.pop_back();
        for (const orq::PlanStatsNode& child : node->children) {
          stack.push_back(&child);
        }
        std::string op = node->name.substr(0, node->name.find('('));
        if (op == "TopSort") op = "Sort";  // a Sort with a LIMIT
        auto& cost = op_cost[std::string(kModes[m]) + "." + op];
        cost.first += static_cast<double>(node->self_wall_nanos);
        cost.second += static_cast<double>(node->stats.rows_out);
        if (m == 1 && node->est_rows >= 0.0) {
          const double est = std::max(node->est_rows, 1.0);
          const double opens = static_cast<double>(
              std::max<int64_t>(node->stats.open_calls, 1));
          const double act = std::max(
              static_cast<double>(node->stats.rows_out) / opens, 1.0);
          qerrors.push_back(std::max(est / act, act / est));
        }
      }
    }
  }

  // Server layer: client-observed latency over TCP minus in-process
  // Execute, measured back to back so both see the same host conditions.
  std::vector<double> overhead_us;
  {
    orq::Result<orq::Client> client =
        orq::Client::Connect("127.0.0.1", host->server->port());
    for (size_t q = 0; client.ok() && q < n; ++q) {
      if (OutcomeOf(engine_result[q]).over_frame_cap()) continue;
      std::vector<double> diffs;
      for (int rep = 0; rep < kReps; ++rep) {
        const int64_t t0 = NowNanos();
        (void)engine.Execute(queries[q]);
        const int64_t t1 = NowNanos();
        (void)client->Query(queries[q]);
        const int64_t t2 = NowNanos();
        diffs.push_back(static_cast<double>((t2 - t1) - (t1 - t0)) / 1e3);
      }
      overhead_us.push_back(Quantile(diffs, 0.5));
    }
  }
  host.reset();
  spans.Write(options.spans_path);

  const double mb = std::max(encoded_bytes, 1.0) / 1e6;
  const double rows = std::max(result_rows, 1.0);
  std::vector<Metric> metrics = {
      {"sql.parse_us", Mean(phase_us[kParse]), "us"},
      {"sql.bind_us", Mean(phase_us[kBind]), "us"},
      {"sql.apply_intro_us", Mean(phase_us[kApplyIntro]), "us"},
      {"normalize.us", Mean(phase_us[kNormalize]), "us"},
      {"normalize.rule_firings", Mean(firings), "count"},
      {"opt.optimize_us", Mean(phase_us[kOptimize]), "us"},
      {"opt.physical_build_us", Mean(phase_us[kPhysicalBuild]), "us"},
      {"opt.qerror_p50", Quantile(qerrors, 0.5), "ratio"},
      {"opt.qerror_max", Quantile(qerrors, 1.0), "ratio"},
      {"catalog.stats_build_ms", stats_ms, "ms"},
      {"catalog.chunk_build_ms.plain", chunk_ms[0], "ms"},
      {"catalog.chunk_build_ms.auto", chunk_ms[1], "ms"},
      {"catalog.chunk_mb.plain", chunk_mb[0], "MB"},
      {"catalog.chunk_mb.auto", chunk_mb[1], "MB"},
      {"exec.execute_ms", Mean(phase_us[kExecute]) / 1e3, "ms"},
      {"exec.ns_per_row", exec_ns / std::max(rows_produced, 1.0), "ns"},
      {"exec.rows_per_result_row", rows_produced / rows, "ratio"},
  };
  // An operator that did not run on the workload reads 0; one that ran but
  // has no metric of its own is named on stdout.
  for (const char* mode : kModes) {
    for (const char* op : kOps) {
      const std::string key = std::string(mode) + "." + op;
      auto it = op_cost.find(key);
      const double v =
          it == op_cost.end()
              ? 0.0
              : it->second.first / std::max(it->second.second, 1.0);
      metrics.push_back({"exec." + key + ".self_ns_per_row", v, "ns"});
      if (it != op_cost.end()) op_cost.erase(it);
    }
  }
  for (const auto& [key, cost] : op_cost) {
    std::printf("operator without a metric: %s self_ms=%.3f rows=%.0f\n",
                key.c_str(), cost.first / 1e6, cost.second);
  }
  metrics.push_back({"server.canonical_ns_per_row", canonical_ns / rows, "ns"});
  metrics.push_back({"server.encode_us_per_mb", encode_ns / 1e3 / mb, "us/MB"});
  metrics.push_back({"server.decode_us_per_mb", decode_ns / 1e3 / mb, "us/MB"});
  metrics.push_back({"server.bytes_per_row", encoded_bytes / rows, "bytes"});
  metrics.push_back({"server.overhead_us", Quantile(overhead_us, 0.5), "us"});
  metrics.push_back({"obs.trace_overhead_pct",
                     100.0 * (traced_total - plain_total) /
                         std::max(plain_total, 1.0),
                     "%"});

  const bool correct = failed == 0;
  PrintReport((std::string(WorkloadName(workload)) + " (traced)").c_str(),
              correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace perfbench
