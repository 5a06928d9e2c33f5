#include "engine/engine.h"

#include <algorithm>
#include <atomic>
#include <cstdio>

#include "algebra/printer.h"
#include "exec/exec.h"
#include "exec/task_pool.h"
#include "normalize/subquery_class.h"
#include "obs/json.h"
#include "obs/query_store.h"
#include "opt/cost.h"
#include "sql/apply_intro.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace orq {

namespace {

/// Runs `plan` and projects the query's output columns (plans may carry
/// extra columns).
Result<QueryResult> RunAndProject(PhysicalOp* plan,
                                  const QueryEngine::Compiled& compiled,
                                  ExecContext* ctx) {
  ORQ_ASSIGN_OR_RETURN(std::vector<Row> raw, ExecuteToVector(plan, ctx));
  const std::vector<ColumnId>& layout = plan->layout();
  std::vector<int> slots;
  for (ColumnId id : compiled.output_cols) {
    auto it = std::find(layout.begin(), layout.end(), id);
    if (it == layout.end()) {
      return Status::Internal("output column lost during optimization: #" +
                              std::to_string(id));
    }
    slots.push_back(static_cast<int>(it - layout.begin()));
  }
  QueryResult result;
  result.column_names = compiled.output_names;
  result.rows_produced = ctx->rows_produced;
  result.rows.reserve(raw.size());
  for (Row& row : raw) {
    Row out;
    out.reserve(slots.size());
    for (int slot : slots) out.push_back(std::move(row[slot]));
    result.rows.push_back(std::move(out));
  }
  return result;
}

}  // namespace

std::string AnalyzedQuery::ToJson(const std::string& label) const {
  return AnalyzedToJson(label, sql, static_cast<int64_t>(result.rows.size()),
                        result.rows_produced, plan, trace, &profile,
                        &metrics, profile.query_id);
}

QueryEngine::~QueryEngine() = default;

void QueryEngine::set_options(EngineOptions options) {
  std::lock_guard<std::mutex> lock(mu_);
  options_ = std::move(options);
  // Drop our reference; queries started under the old configuration hold
  // their own shared reference, so the pool dies only when the last of
  // them finishes. A pool for the new thread count builds lazily.
  pool_.reset();
}

PhysicalBuildOptions QueryEngine::EffectivePhysicalOptions(
    const EngineOptions& options) {
  PhysicalBuildOptions physical = options.physical;
  physical.num_threads = options.exec.num_threads;
  return physical;
}

std::shared_ptr<TaskPool> QueryEngine::SharedTaskPool(int num_threads) {
  if (num_threads <= 0) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  if (pool_ == nullptr || pool_->num_threads() < num_threads) {
    pool_ = std::make_shared<TaskPool>(num_threads);
  }
  return pool_;
}

EngineOptions EngineOptions::Full() { return EngineOptions(); }

EngineOptions EngineOptions::CorrelatedOnly() {
  EngineOptions options;
  options.normalizer.remove_correlations = false;
  options.normalizer.simplify_outerjoins = false;
  options.optimizer.enable = false;
  return options;
}

EngineOptions EngineOptions::NoGroupByOptimizations() {
  EngineOptions options;
  options.optimizer.reorder_groupby = false;
  options.optimizer.reorder_groupby_outerjoin = false;
  options.optimizer.local_aggregates = false;
  options.optimizer.segment_apply = false;
  return options;
}

EngineOptions EngineOptions::NoSegmentApply() {
  EngineOptions options;
  options.optimizer.segment_apply = false;
  return options;
}

Result<QueryEngine::Compiled> QueryEngine::ParseAndBind(
    const std::string& sql, QueryProfile* profile) {
  Compiled compiled;
  compiled.columns = std::make_shared<ColumnManager>();

  SelectStmtPtr ast;
  {
    PhaseTimer timer(profile, QueryPhase::kParse);
    ORQ_ASSIGN_OR_RETURN(ast, ParseSql(sql));
  }
  {
    PhaseTimer timer(profile, QueryPhase::kBind);
    Binder binder(catalog_, compiled.columns);
    ORQ_ASSIGN_OR_RETURN(BoundQuery bound, binder.Bind(*ast));
    compiled.bound = bound.root;
    compiled.output_cols = bound.output_cols;
    compiled.output_names = bound.output_names;
    compiled.param_types = bound.param_types;
  }
  return compiled;
}

Result<QueryEngine::Compiled> QueryEngine::FinishCompile(
    Compiled compiled, const EngineOptions& options, QueryProfile* profile,
    const CancelToken* cancel) {
  {
    PhaseTimer timer(profile, QueryPhase::kApplyIntro);
    ORQ_ASSIGN_OR_RETURN(
        compiled.applied,
        IntroduceApplies(compiled.bound, compiled.columns.get()));
  }
  // Compile phases are not interruptible internally, but a deadline that
  // fires during compilation stops the query before the (much more
  // expensive) optimization and execution phases start.
  if (cancel != nullptr) ORQ_RETURN_IF_ERROR(cancel->Check());
  {
    PhaseTimer timer(profile, QueryPhase::kNormalize);
    ORQ_ASSIGN_OR_RETURN(
        compiled.normalized,
        Normalize(compiled.applied, compiled.columns.get(),
                  options.normalizer));
  }
  {
    PhaseTimer timer(profile, QueryPhase::kOptimize);
    ORQ_ASSIGN_OR_RETURN(
        compiled.optimized,
        OptimizeTree(compiled.normalized, catalog_, compiled.columns.get(),
                     options.optimizer));
  }
  if (cancel != nullptr) ORQ_RETURN_IF_ERROR(cancel->Check());
  return compiled;
}

Result<QueryEngine::Compiled> QueryEngine::CompileWith(
    const std::string& sql, const EngineOptions& options,
    QueryProfile* profile, const CancelToken* cancel) {
  ORQ_ASSIGN_OR_RETURN(Compiled compiled, ParseAndBind(sql, profile));
  return FinishCompile(std::move(compiled), options, profile, cancel);
}

Result<QueryEngine::Compiled> QueryEngine::Compile(const std::string& sql) {
  return CompileWith(sql, options());
}

namespace {

/// The plan-relevant slice of the engine configuration, serialized into
/// the cache key. Only normalizer/optimizer flags shape the cached
/// optimized tree; physical/exec options are applied per execution, and
/// trace sinks do not alter rewrites.
std::string PlanOptionsKey(const EngineOptions& options) {
  const NormalizerOptions& n = options.normalizer;
  const OptimizerOptions& o = options.optimizer;
  const bool flags[] = {
      n.remove_correlations, n.decorrelate_class2, n.simplify_outerjoins,
      n.pushdown_predicates, o.enable, o.reorder_groupby,
      o.reorder_groupby_outerjoin, o.local_aggregates, o.segment_apply,
      o.correlated_reintroduction, o.join_commute,
  };
  std::string key;
  key.reserve(sizeof(flags) + 4);
  for (bool flag : flags) key.push_back(flag ? '1' : '0');
  key += std::to_string(o.max_depth);
  return key;
}

/// Two trees that differ only in aliases (`... AS x` vs `... AS y`) are
/// structurally identical, so the output signature must be part of the
/// fingerprint or a hot query would inherit the cold spelling's names.
void AppendOutputSignature(const std::vector<ColumnId>& output_cols,
                           const std::vector<std::string>& output_names,
                           std::string* canonical) {
  canonical->push_back('|');
  for (ColumnId id : output_cols) {
    *canonical += std::to_string(id);
    canonical->push_back(',');
  }
  canonical->push_back('|');
  for (const std::string& name : output_names) {
    *canonical += std::to_string(name.size());
    canonical->push_back(':');
    *canonical += name;
  }
}

Status MissingParamsError(size_t num_params) {
  return Status::InvalidArgument(
      "statement has " + std::to_string(num_params) +
      " parameter(s); supply values via ExecuteParams / EXECUTE");
}

}  // namespace

PlanCache* QueryEngine::EnsurePlanCache(const PlanCacheOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (plan_cache_ == nullptr) {
    plan_cache_ = std::make_unique<PlanCache>(options.capacity);
  }
  return plan_cache_.get();
}

int64_t QueryEngine::plan_cache_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plan_cache_ != nullptr ? plan_cache_->hits() : 0;
}

int64_t QueryEngine::plan_cache_misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plan_cache_ != nullptr ? plan_cache_->misses() : 0;
}

int64_t QueryEngine::plan_cache_evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plan_cache_ != nullptr ? plan_cache_->evictions() : 0;
}

Result<QueryEngine::PlannedQuery> QueryEngine::PlanWithCache(
    const std::string& sql, const EngineOptions& options,
    QueryProfile* profile, const CancelToken* cancel,
    MetricsRegistry* metrics) {
  PlanCache* cache = EnsurePlanCache(options.plan_cache);
  const std::string options_key = PlanOptionsKey(options);
  // Version is read once, before compilation: if the catalog moves while
  // we compile, the entry is stored under the old version and the next
  // lookup discards it instead of serving a possibly stale plan.
  const int64_t catalog_version = catalog_->version();

  PlannedQuery planned;
  if (std::shared_ptr<const CachedPlan> plan = cache->LookupText(
          sql, options_key, catalog_version, &planned.auto_values, metrics)) {
    planned.plan = std::move(plan);
    planned.from_cache = true;
    cache->CountHit();
    if (metrics != nullptr) metrics->Add(MetricCounter::kPlanCacheHits, 1);
    return planned;
  }

  ORQ_ASSIGN_OR_RETURN(Compiled compiled, ParseAndBind(sql, profile));
  const size_t num_explicit = compiled.param_types.size();
  ParameterizedTree param =
      ParameterizeLiterals(compiled.bound, static_cast<int>(num_explicit));
  std::string canonical = CanonicalizeTree(*param.root);
  AppendOutputSignature(compiled.output_cols, compiled.output_names,
                        &canonical);
  // The explicit-parameter count is part of the template's identity: an
  // explicit `?` and an auto-parameterized literal serialize to the same
  // kParam node, but only the former demands values from the caller.
  canonical += "#" + std::to_string(num_explicit);

  if (std::shared_ptr<const CachedPlan> plan = cache->LookupCanonical(
          canonical, options_key, catalog_version, metrics)) {
    // Same shape under a new spelling: register this text so the next
    // occurrence takes the level-1 path.
    cache->Insert(sql, options_key, plan, param.values, metrics);
    planned.plan = std::move(plan);
    planned.auto_values = std::move(param.values);
    planned.from_cache = true;
    cache->CountHit();
    if (metrics != nullptr) metrics->Add(MetricCounter::kPlanCacheHits, 1);
    return planned;
  }

  cache->CountMiss();
  if (metrics != nullptr) metrics->Add(MetricCounter::kPlanCacheMisses, 1);

  // Cold: compile the parameterized template. Both the cold and every
  // future hot execution then run the identical template with identical
  // substitution — result equivalence is structural, not incidental.
  compiled.bound = param.root;
  ORQ_ASSIGN_OR_RETURN(
      compiled, FinishCompile(std::move(compiled), options, profile, cancel));

  auto entry = std::make_shared<CachedPlan>();
  entry->columns = compiled.columns;
  entry->optimized = compiled.optimized;
  entry->output_cols = compiled.output_cols;
  entry->output_names = compiled.output_names;
  entry->param_types = compiled.param_types;
  entry->param_types.insert(entry->param_types.end(), param.types.begin(),
                            param.types.end());
  entry->num_explicit_params = num_explicit;
  entry->canonical = std::move(canonical);
  entry->catalog_version = catalog_version;
  cache->Insert(sql, options_key, entry, param.values, metrics);

  planned.plan = std::move(entry);
  planned.auto_values = std::move(param.values);
  planned.from_cache = false;
  return planned;
}

namespace {

/// The observed window of one execute call: stamps the profile's start on
/// entry (unless the caller already did) and its total on every exit, so a
/// query that fails before execution still books PhaseSum() <= total_nanos.
/// Without an observer it reads no clock.
class ObservedWindow {
 public:
  explicit ObservedWindow(const ExecControl& control)
      : profile_(control.observe != nullptr ? &control.observe->profile
                                            : nullptr) {
    if (profile_ == nullptr) return;
    if (profile_->start_nanos == 0) profile_->start_nanos = ObsNowNanos();
    if (profile_->query_id.empty()) profile_->query_id = control.query_id;
  }
  ~ObservedWindow() {
    if (profile_ != nullptr) {
      profile_->total_nanos = ObsNowNanos() - profile_->start_nanos;
    }
  }
  ObservedWindow(const ObservedWindow&) = delete;
  ObservedWindow& operator=(const ObservedWindow&) = delete;

 private:
  QueryProfile* profile_;
};

/// Preorder registration of the operator tree for span export: ids are
/// assigned parent-before-child and names are formatted once, up front, so
/// span emission at Close touches no virtual calls.
void RegisterOpTree(SpanRecorder* spans, const PhysicalOp& op,
                    int parent_id) {
  const int id = spans->RegisterOp(&op, op.name(), parent_id);
  for (const PhysicalOp* child : op.children()) {
    RegisterOpTree(spans, *child, id);
  }
}

}  // namespace

Result<QueryEngine::Compiled> QueryEngine::PlanQuery(
    const std::string& sql, const std::vector<Value>* params,
    const EngineOptions& options, const ExecControl& control) {
  QueryObservation* observe = control.observe;
  QueryProfile* profile = observe != nullptr ? &observe->profile : nullptr;
  Compiled compiled;
  PlannedQuery planned;
  if (options.plan_cache.enable) {
    ORQ_ASSIGN_OR_RETURN(planned, PlanWithCache(sql, options, profile,
                                                control.cancel,
                                                control.metrics));
    const CachedPlan& plan = *planned.plan;
    if (profile != nullptr) {
      profile->cache =
          planned.from_cache ? CacheOutcome::kHit : CacheOutcome::kMiss;
    }
    if (observe != nullptr) {
      observe->fingerprint = FingerprintHex(plan.canonical);
    }
    compiled.columns = plan.columns;
    compiled.optimized = plan.optimized;
    compiled.output_cols = plan.output_cols;
    compiled.output_names = plan.output_names;
    compiled.param_types.assign(
        plan.param_types.begin(),
        plan.param_types.begin() +
            static_cast<long>(plan.num_explicit_params));
  } else {
    ORQ_ASSIGN_OR_RETURN(compiled,
                         CompileWith(sql, options, profile, control.cancel));
  }
  if (params == nullptr) return compiled;

  const size_t num_explicit = compiled.param_types.size();
  if (params->size() != num_explicit) {
    if (params->empty()) return MissingParamsError(num_explicit);
    return Status::InvalidArgument(
        "statement expects " + std::to_string(num_explicit) +
        " parameter(s), got " + std::to_string(params->size()));
  }
  // Explicit `?` values first, then the literals the cache stripped out;
  // the cached template's types cover both.
  std::vector<Value> values = *params;
  values.insert(values.end(), planned.auto_values.begin(),
                planned.auto_values.end());
  if (!values.empty()) {
    ORQ_ASSIGN_OR_RETURN(
        compiled.optimized,
        SubstituteParams(compiled.optimized, values,
                         planned.plan != nullptr ? planned.plan->param_types
                                                 : compiled.param_types));
    compiled.param_types.clear();
  }
  if (observe != nullptr && planned.plan == nullptr) {
    // No cache lane: fingerprint the optimized tree directly. Literals are
    // still embedded here, so unlike the cache-lane fingerprint this one
    // distinguishes literal variants of a shape.
    observe->fingerprint =
        FingerprintHex(CanonicalizeTree(*compiled.optimized));
  }
  return compiled;
}

Result<QueryResult> QueryEngine::RunPlan(const Compiled& compiled,
                                         const EngineOptions& options,
                                         const ExecControl& control) {
  QueryObservation* observe = control.observe;
  QueryProfile* profile = observe != nullptr ? &observe->profile : nullptr;
  PhysicalOpPtr plan;
  {
    PhaseTimer timer(profile, QueryPhase::kPhysicalBuild);
    // Cost estimates ride along when observing, so the stats tree carries
    // est-vs-actual rows per operator; plan choice happened during
    // optimization, the model only annotates here.
    CostModel cost(catalog_);
    ORQ_ASSIGN_OR_RETURN(
        plan, BuildPhysicalPlan(compiled.optimized, *compiled.columns,
                                EffectivePhysicalOptions(options),
                                observe != nullptr ? &cost : nullptr));
    if (control.spans != nullptr) {
      RegisterOpTree(control.spans, *plan, /*parent_id=*/-1);
    }
  }
  // The pool reference is held across execution so a concurrent
  // set_options cannot destroy threads a running exchange depends on.
  std::shared_ptr<TaskPool> pool =
      SharedTaskPool(options.exec.num_threads);
  // ctx after plan: it is destroyed first, so an Exchange's producers are
  // still wound down by the plan destructor before members vanish.
  ExecContext ctx;
  ORQ_RETURN_IF_ERROR(ctx.Configure(options.exec));
  ctx.pool = pool.get();
  ctx.cancel = control.cancel;
  ctx.progress_rows = control.progress_rows;
  StatsCollector collector;
  ExecInstruments instruments;
  instruments.metrics = control.metrics;
  instruments.spans = control.spans;
  if (observe != nullptr) instruments.stats = &collector;
  if (instruments.metrics != nullptr || instruments.stats != nullptr ||
      instruments.spans != nullptr) {
    ctx.instruments = &instruments;
  }
  Result<QueryResult> result = Status::Internal("query did not run");
  {
    PhaseTimer timer(profile, QueryPhase::kExecute);
    const int64_t start = observe != nullptr ? ObsNowNanos() : 0;
    result = RunAndProject(plan.get(), compiled, &ctx);
    if (observe != nullptr) {
      observe->exec_wall_nanos = ObsNowNanos() - start;
    }
  }
  if (observe == nullptr) return result;

  // Observed: snapshot the stats tree whether the query succeeded or failed
  // (a cancelled query still reports the rows its operators produced).
  // TotalRowsOut(plan) == rows_produced is a tested invariant, and the
  // difftest harness cross-checks it on every execution mode.
  observe->plan = BuildPlanStats(*plan, collector, compiled.columns.get());
  observe->has_plan = true;
  {
    // Freeing the operator tree and its hash state is part of the query's
    // wall time, so it is booked before the observed window closes.
    PhaseTimer timer(profile, QueryPhase::kTeardown);
    plan.reset();
  }
  if (control.progress_rows != nullptr) {
    control.progress_rows->store(ctx.rows_produced,
                                 std::memory_order_relaxed);
  }
  return result;
}

Result<QueryResult> QueryEngine::ExecuteWith(const std::string& sql,
                                             const std::vector<Value>& params,
                                             const EngineOptions& options,
                                             const ExecControl& control) {
  ObservedWindow window(control);
  ORQ_ASSIGN_OR_RETURN(Compiled compiled,
                       PlanQuery(sql, &params, options, control));
  return RunPlan(compiled, options, control);
}

Result<QueryEngine::PreparedInfo> QueryEngine::Prepare(
    const std::string& sql) {
  ORQ_ASSIGN_OR_RETURN(
      Compiled compiled,
      PlanQuery(sql, /*params=*/nullptr, options(), ExecControl{}));
  PreparedInfo info;
  info.param_types = std::move(compiled.param_types);
  info.output_names = std::move(compiled.output_names);
  return info;
}

Result<QueryResult> QueryEngine::Execute(const std::string& sql,
                                         const ExecControl& control) {
  return ExecuteWith(sql, {}, options(), control);
}

Result<QueryResult> QueryEngine::ExecuteParams(
    const std::string& sql, const std::vector<Value>& params,
    const ExecControl& control) {
  return ExecuteWith(sql, params, options(), control);
}

Result<QueryResult> QueryEngine::ExecuteCompiled(const Compiled& compiled,
                                                 const ExecControl& control) {
  ObservedWindow window(control);
  return RunPlan(compiled, options(), control);
}

Result<AnalyzedQuery> QueryEngine::ExecuteAnalyzed(
    const std::string& sql, const ExecControl& control) {
  AnalyzedQuery analyzed;
  analyzed.sql = sql;
  QueryObservation observe;
  ExecControl lane = control;
  lane.observe = &observe;
  lane.metrics = &analyzed.metrics;
  if (lane.query_id.empty()) {
    // Engine-local ids for analyzed runs outside the server's minting
    // (difftest, bench, orq_profile): "q<n>", monotonic per process.
    static std::atomic<int64_t> next_analyzed_id{0};
    lane.query_id =
        "q" + std::to_string(next_analyzed_id.fetch_add(1) + 1);
  }
  EngineOptions options = this->options();
  options.normalizer.trace = &analyzed.trace;
  options.optimizer.trace = &analyzed.trace;
  ORQ_ASSIGN_OR_RETURN(analyzed.result, ExecuteWith(sql, {}, options, lane));
  analyzed.plan = std::move(observe.plan);
  analyzed.profile = std::move(observe.profile);
  analyzed.exec_wall_nanos = observe.exec_wall_nanos;
  return analyzed;
}

Result<std::string> QueryEngine::ExplainAnalyze(const std::string& sql) {
  ORQ_ASSIGN_OR_RETURN(AnalyzedQuery analyzed, ExecuteAnalyzed(sql));
  std::string out;
  out += "== Query " + analyzed.profile.query_id + " ==\n";
  out += "== Phase times ==\n";
  out += RenderProfile(analyzed.profile, &analyzed.trace);
  out += "\n== Physical plan (actual vs estimated) ==\n";
  out += RenderPlanStats(analyzed.plan);
  out += "\n== Rewrite trace (" + std::to_string(analyzed.trace.size()) +
         " events) ==\n";
  out += RenderTrace(analyzed.trace);
  if (!analyzed.metrics.empty()) {
    out += "\n== Engine metrics ==\n";
    out += RenderMetrics(analyzed.metrics);
  }
  char line[160];
  std::snprintf(line, sizeof(line),
                "\n== Totals ==\nresult rows=%zu rows_produced=%lld "
                "exec time=%.3f ms\n",
                analyzed.result.rows.size(),
                static_cast<long long>(analyzed.result.rows_produced),
                static_cast<double>(analyzed.exec_wall_nanos) / 1e6);
  out += line;
  return out;
}

Result<std::string> QueryEngine::Explain(const std::string& sql) {
  ORQ_ASSIGN_OR_RETURN(Compiled compiled, Compile(sql));
  std::string out;
  const ColumnManager* columns = compiled.columns.get();
  out += "== Bound (mutual recursion, section 2.1) ==\n";
  out += PrintRelTree(*compiled.bound, columns);
  out += "\n== After Apply introduction (section 2.2) ==\n";
  out += PrintRelTree(*compiled.applied, columns);
  // Subquery classification (section 2.5) on the Apply form.
  std::vector<ClassifiedApply> classes =
      ClassifySubqueries(compiled.applied);
  if (!classes.empty()) {
    out += "\n== Subquery classes (section 2.5) ==\n";
    for (const ClassifiedApply& entry : classes) {
      out += "  " + ApplyKindName(entry.apply->apply_kind) + ": " +
             SubqueryClassName(entry.cls) + "\n";
    }
  }
  out += "\n== Normalized (correlations removed, section 2.3) ==\n";
  out += PrintRelTree(*compiled.normalized, columns);
  out += "\n== Optimized (cost-based, section 3) ==\n";
  out += PrintRelTree(*compiled.optimized, columns);
  ORQ_ASSIGN_OR_RETURN(
      PhysicalOpPtr plan,
      BuildPhysicalPlan(compiled.optimized, *compiled.columns,
                        EffectivePhysicalOptions(options())));
  out += "\n== Physical plan ==\n";
  out += PrintPhysicalPlan(*plan, columns);
  return out;
}

}  // namespace orq
