#ifndef ORQ_EXEC_EXEC_H_
#define ORQ_EXEC_EXEC_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/column.h"
#include "catalog/table.h"
#include "common/result.h"
#include "common/status.h"
#include "common/value.h"
#include "exec/cancel.h"
#include "exec/column_batch.h"
#include "obs/stats.h"

namespace orq {

/// Rows moved between operators per NextBatch call. Large enough to
/// amortize the virtual call and the per-batch bookkeeping, small enough
/// that a batch of rows stays cache-resident.
inline constexpr int kDefaultBatchRows = 1024;

/// Upper bound on batch_size. Selection vectors and join gather lists
/// index rows with uint32, and per-batch scratch is O(batch_size); 64k
/// rows is far past the cache-residency sweet spot already.
inline constexpr int kMaxBatchRows = 64 * 1024;

/// The single batch-size validity check, shared by SET batch_size and the
/// engine's option intake so neither silently clamps.
inline Status ValidateBatchSize(int batch_size) {
  if (batch_size < 1 || batch_size > kMaxBatchRows) {
    return Status::InvalidArgument(
        "batch_size must be in [1, " + std::to_string(kMaxBatchRows) +
        "], got " + std::to_string(batch_size));
  }
  return Status::OK();
}

/// Execution-mode knobs, threaded from EngineOptions into ExecContext.
/// The default is columnar; `batched = false` selects the row engine and
/// takes precedence over `columnar` (ExecContext::Configure).
struct ExecOptions {
  /// When false, every operator runs row at a time through NextImpl — the
  /// classic Volcano engine, kept as the difftest reference configuration
  /// — whatever `columnar` says.
  bool batched = true;
  /// Columnar (SoA) execution: converted operators exchange ColumnBatches
  /// (exec/column_batch.h) and run type-specialized kernels; unconverted
  /// operators keep their row/batch paths behind transpose adapters.
  /// False with `batched` true selects the row-batch engine.
  bool columnar = true;
  int batch_size = kDefaultBatchRows;
  /// Storage encoding columnar table scans request from the catalog
  /// (`SET table_encoding plain|dict|rle|auto`). Plain by default; kAuto
  /// lets each column chunk pick dictionary/RLE by heuristic. Row and
  /// batch modes ignore it (they read the row store directly).
  TableEncoding table_encoding = TableEncoding::kPlain;
  /// Morsel-driven parallel execution. 0 keeps the classic single-threaded
  /// engine (no thread pool, plans unchanged); N >= 1 builds N instances of
  /// each eligible subtree under an exchange operator and runs them on an
  /// N-thread work-stealing pool — num_threads == 1 exists to measure the
  /// parallel mode's fixed overhead. Workers run in the query's exec mode.
  int num_threads = 0;
  /// Rows per morsel claim for parallel table scans (see exec/parallel.h).
  int morsel_rows = 4096;
};

/// Names for TableEncoding, shared by SET, difftest flags, and EXPLAIN.
inline const char* TableEncodingName(TableEncoding mode) {
  switch (mode) {
    case TableEncoding::kPlain: return "plain";
    case TableEncoding::kDict: return "dict";
    case TableEncoding::kRle: return "rle";
    case TableEncoding::kAuto: return "auto";
  }
  return "plain";
}
inline std::optional<TableEncoding> ParseTableEncoding(
    std::string_view name) {
  if (name == "plain") return TableEncoding::kPlain;
  if (name == "dict") return TableEncoding::kDict;
  if (name == "rle") return TableEncoding::kRle;
  if (name == "auto") return TableEncoding::kAuto;
  return std::nullopt;
}

/// A fixed-capacity buffer of rows passed between operators. Row storage
/// is reused across refills: Clear() resets the logical size but keeps
/// every row's Value vector (and the string payloads inside) allocated, so
/// steady-state batch traffic does not allocate. Slots are created on
/// first use, so a batch that is never filled (an adapter or scratch batch
/// of a path the plan does not run) costs nothing, and a short stream pays
/// only for the rows it moves. Row addresses are stable — the slot array
/// is reserved to full capacity on the first PushRow and never
/// reallocates — which lets operators hold a pointer to a row across calls
/// while composing output.
class RowBatch {
 public:
  explicit RowBatch(int capacity = kDefaultBatchRows)
      : capacity_(capacity > 0 ? static_cast<size_t>(capacity) : 1) {}

  size_t capacity() const { return capacity_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == capacity_; }

  Row& row(size_t i) { return rows_[i]; }
  const Row& row(size_t i) const { return rows_[i]; }

  /// Exposes the next free slot and grows the logical size. The slot may
  /// hold a stale row from a previous refill; callers overwrite it.
  Row& PushRow() {
    if (size_ == rows_.size()) {
      if (rows_.empty()) rows_.reserve(capacity_);
      rows_.emplace_back();
    }
    return rows_[size_++];
  }
  /// Retracts the most recent PushRow (e.g. a row a predicate rejected).
  void PopRow() { --size_; }
  void Clear() { size_ = 0; }

 private:
  size_t capacity_;
  std::vector<Row> rows_;
  size_t size_ = 0;
};

class MetricsRegistry;
class SpanRecorder;
class TaskPool;

/// Optional instrumentation sinks for one execution, bundled so the
/// operator shells test a single pointer: per-operator stats (EXPLAIN
/// ANALYZE), the engine metrics registry, and the span recorder. Any
/// member may be null; a null bundle is the plain Execute path.
struct ExecInstruments {
  StatsCollector* stats = nullptr;
  MetricsRegistry* metrics = nullptr;
  SpanRecorder* spans = nullptr;
};

/// Run-time context shared by an operator tree. Correlated execution (Apply,
/// index lookup) communicates outer-row values through `params`; segmented
/// execution (SegmentApply) communicates the current segment through
/// `segment_stack`.
struct ExecContext {
  /// Current values of correlated parameters, keyed by column id.
  std::unordered_map<ColumnId, Value> params;
  /// Innermost current segment for SegmentScan leaves (rows share the
  /// segmenting operator's input layout).
  std::vector<const std::vector<Row>*> segment_stack;
  /// Number of rows produced by all operators (a cheap work metric used by
  /// tests and benchmarks to compare strategies). Maintained by the
  /// PhysicalOp::Next / NextBatch shells — the single accounting sites —
  /// whether or not instrumentation is attached.
  int64_t rows_produced = 0;
  /// Optional instrumentation (stats / metrics / spans). Null keeps the
  /// Volcano hot path at one extra branch per call.
  const ExecInstruments* instruments = nullptr;
  /// Batch-at-a-time execution toggle and batch sizing (ExecOptions).
  bool batched = true;
  /// Columnar execution toggle; only ever true together with `batched`
  /// when set through Configure. Operator shells route NextBatch through
  /// the columnar path for columnar-capable operators when set.
  bool columnar = false;
  int batch_size = kDefaultBatchRows;
  /// Storage encoding columnar table scans request from the catalog
  /// (ExecOptions::table_encoding).
  TableEncoding table_encoding = TableEncoding::kPlain;
  /// Worker pool for exchange operators, or nullptr on single-threaded
  /// executions. Owned by the engine; a parallel plan executed without a
  /// pool fails at Open rather than silently serializing.
  TaskPool* pool = nullptr;
  /// Rows per parallel-scan morsel claim (ExecOptions::morsel_rows).
  int morsel_rows = 4096;
  /// Cooperative cancellation/deadline token, or nullptr when the caller
  /// set no bound. Polled by the operator shells (every batch pull, every
  /// Open, and a throttled fraction of row-mode pulls), so a firing token
  /// surfaces as Cancelled/DeadlineExceeded within one batch of work.
  const CancelToken* cancel = nullptr;
  /// Row-mode poll throttle: the per-row Next shell consults the token
  /// only every 64th call, keeping the clock read off the per-row path.
  uint32_t cancel_tick = 0;
  /// Optional live-progress feed: when set, the shells publish
  /// rows_produced here (relaxed store) at every batch pull and every
  /// throttled row-mode poll, so `\queries` can show rows produced so far
  /// without touching the executor. Parallel workers run private contexts
  /// that leave this null, so the published figure is a lower bound under
  /// parallel execution (the consumer side still publishes).
  std::atomic<int64_t>* progress_rows = nullptr;

  /// Token poll shared by the shells; OK when no token is attached.
  Status CheckCancel() const {
    return cancel != nullptr ? cancel->Check() : Status::OK();
  }

  /// The one place ExecOptions become execution-mode fields. Row
  /// precedence: `batched = false` always means the pure row engine, so
  /// `columnar` only takes effect together with `batched`. Fails, rather
  /// than clamping, on an out-of-range batch size.
  Status Configure(const ExecOptions& exec) {
    ORQ_RETURN_IF_ERROR(ValidateBatchSize(exec.batch_size));
    batched = exec.batched;
    columnar = exec.batched && exec.columnar;
    batch_size = exec.batch_size;
    table_encoding = exec.table_encoding;
    morsel_rows = exec.morsel_rows;
    return Status::OK();
  }

  /// The context a parallel worker runs its subtree under: the same
  /// parameters, exec mode and cancel token, without this context's
  /// per-run state (row count, instruments, pool, progress feed, segment
  /// stack). Copying the whole context keeps every mode field inherited.
  ExecContext ForWorker() const {
    ExecContext worker = *this;
    worker.segment_stack.clear();
    worker.rows_produced = 0;
    worker.instruments = nullptr;
    worker.pool = nullptr;
    worker.cancel_tick = 0;
    worker.progress_rows = nullptr;
    return worker;
  }
};

/// Volcano-style iterator with an optional batched pull path. Operators are
/// single-use: Open, drain via Next or NextBatch (one interface per Open,
/// never interleaved), Close. Re-Open after Close restarts the operator
/// (correlated inners are re-opened per outer row with fresh parameters).
///
/// Open/Next/NextBatch/Close are non-virtual shells around the OpenImpl/
/// NextImpl/NextBatchImpl/CloseImpl hooks so the base class can account rows
/// and, when the context carries a StatsCollector, per-operator call counts
/// and wall time. NextBatchImpl defaults to an adapter that loops NextImpl;
/// hot operators (scan, filter, project, hash join/aggregate, uncorrelated
/// nested loops) override it with tight loops over whole batches.
class PhysicalOp {
 public:
  virtual ~PhysicalOp() = default;

  /// Output layout: row slot i holds the value of column layout()[i].
  const std::vector<ColumnId>& layout() const { return layout_; }

  Status Open(ExecContext* ctx) {
    // Correlated Apply re-opens its inner once per outer row, and an Open
    // may drain a whole child (hash build, sort, spool) — poll here so a
    // fired token stops the re-open storm at its source.
    ORQ_RETURN_IF_ERROR(ctx->CheckCancel());
    if (ctx->instruments == nullptr) {
      instrumented_ = false;
      stats_ = nullptr;
      metrics_ = nullptr;
      spans_ = nullptr;
      return OpenImpl(ctx);
    }
    return OpenInstrumented(ctx);
  }

  /// Fills `row` and returns true, or returns false at end of stream.
  Result<bool> Next(ExecContext* ctx, Row* row) {
    if ((ctx->cancel != nullptr || ctx->progress_rows != nullptr) &&
        (++ctx->cancel_tick & 63u) == 0u) {
      if (ctx->progress_rows != nullptr) {
        ctx->progress_rows->store(ctx->rows_produced,
                                  std::memory_order_relaxed);
      }
      Status cancelled = ctx->CheckCancel();
      if (!cancelled.ok()) return cancelled;
    }
    if (stats_ == nullptr) {
      Result<bool> more = NextImpl(ctx, row);
      if (more.ok() && *more) ++ctx->rows_produced;
      return more;
    }
    return NextInstrumented(ctx, row);
  }

  /// Clears `batch` and refills it with up to batch->capacity() rows. An
  /// empty batch on return signals end of stream — implementations never
  /// return an empty batch while rows remain. With a StatsCollector
  /// attached, next_calls counts batch pulls while rows_out counts rows,
  /// so the two diverge by roughly the batch size on this path.
  Status NextBatch(ExecContext* ctx, RowBatch* batch) {
    batch->Clear();
    if (ctx->progress_rows != nullptr) {
      ctx->progress_rows->store(ctx->rows_produced, std::memory_order_relaxed);
    }
    ORQ_RETURN_IF_ERROR(ctx->CheckCancel());
    if (!instrumented_) {
      Status status = ctx->columnar && columnar_capable_
                          ? FillFromColumnsImpl(ctx, batch)
                          : ctx->batched ? NextBatchImpl(ctx, batch)
                                         : FillFromNextImpl(ctx, batch);
      if (status.ok()) ctx->rows_produced += batch->size();
      return status;
    }
    return NextBatchInstrumented(ctx, batch);
  }

  /// Columnar pull: clears `batch` and refills it with up to capacity
  /// physical rows plus a selection vector over the live ones. An empty
  /// batch (selected() == 0) signals end of stream — implementations
  /// loop internally past all-filtered input rather than returning an
  /// empty non-terminal batch. Operators without a columnar path are
  /// adapted transparently: their row/batch output is transposed into
  /// columns, so a columnar parent can always pull NextColumns.
  Status NextColumns(ExecContext* ctx, ColumnBatch* batch) {
    batch->Clear();
    if (ctx->progress_rows != nullptr) {
      ctx->progress_rows->store(ctx->rows_produced, std::memory_order_relaxed);
    }
    ORQ_RETURN_IF_ERROR(ctx->CheckCancel());
    if (!instrumented_) {
      Status status = columnar_capable_ ? NextColumnsImpl(ctx, batch)
                                        : FillColumnsFromRows(ctx, batch);
      if (status.ok()) ctx->rows_produced += batch->selected();
      return status;
    }
    return NextColumnsInstrumented(ctx, batch);
  }

  void Close() {
    if (!instrumented_) {
      CloseImpl();
      return;
    }
    CloseInstrumented();
  }

  virtual std::string name() const = 0;

  /// True when the operator has a native columnar path (NextColumnsImpl).
  bool columnar_capable() const { return columnar_capable_; }

  const std::vector<PhysicalOp*>& children() const {
    if (child_view_.size() != children_.size()) {
      child_view_.clear();
      child_view_.reserve(children_.size());
      for (const auto& child : children_) child_view_.push_back(child.get());
    }
    return child_view_;
  }

  /// Cost-model estimates for the logical node this operator implements;
  /// negative when the plan was built without a cost model (plain Execute)
  /// or the operator is an auxiliary op with no logical counterpart.
  double est_rows() const { return est_rows_; }
  double est_cost() const { return est_cost_; }
  void set_estimates(double rows, double cost) {
    est_rows_ = rows;
    est_cost_ = cost;
  }

 protected:
  virtual Status OpenImpl(ExecContext* ctx) = 0;
  virtual Result<bool> NextImpl(ExecContext* ctx, Row* row) = 0;
  /// Batched pull hook; the default adapts NextImpl row by row. Overrides
  /// must honor the shell's contract: fill into `batch` (already cleared)
  /// and treat an empty result as end of stream.
  virtual Status NextBatchImpl(ExecContext* ctx, RowBatch* batch) {
    return FillFromNextImpl(ctx, batch);
  }
  /// Columnar pull hook. Only dispatched to when the operator declared
  /// itself columnar-capable (set columnar_capable_ = true in the
  /// constructor alongside the override); everyone else is served by the
  /// FillColumnsFromRows transpose adapter.
  virtual Status NextColumnsImpl(ExecContext* ctx, ColumnBatch* batch) {
    return FillColumnsFromRows(ctx, batch);
  }
  virtual void CloseImpl() = 0;

  /// Row-at-a-time adapter: loops NextImpl into batch slots. Calls the Impl
  /// (not the Next shell) so rows are accounted exactly once, by the
  /// NextBatch shell.
  Status FillFromNextImpl(ExecContext* ctx, RowBatch* batch) {
    while (!batch->full()) {
      Row& slot = batch->PushRow();
      Result<bool> more = NextImpl(ctx, &slot);
      if (!more.ok()) return more.status();
      if (!*more) {
        batch->PopRow();
        break;
      }
    }
    return Status::OK();
  }

  /// Stateful operators report the size of their materialized state (hash
  /// table, sort buffer, spool, segment map) after building it. No-op when
  /// collection is disabled.
  void RecordPeak(int64_t cardinality) {
    if (stats_ != nullptr && cardinality > stats_->peak_cardinality) {
      stats_->peak_cardinality = cardinality;
    }
  }

  /// Engine metrics sink cached at Open, or nullptr when metrics are off.
  /// Operators guard each recording site on this (the RecordPeak pattern):
  /// `if (MetricsRegistry* m = metrics()) m->Add(...)`.
  MetricsRegistry* metrics() const { return metrics_; }

  /// Table scans report the encodings of the column chunks they serve
  /// (once per Open) so EXPLAIN ANALYZE can print the per-scan
  /// `encoding= bytes=` line. No-op when collection is disabled.
  void RecordScanEncoding(int64_t dict_cols, int64_t rle_cols,
                          int64_t plain_cols, int64_t bytes) {
    if (stats_ != nullptr) {
      stats_->enc_dict_cols += dict_cols;
      stats_->enc_rle_cols += rle_cols;
      stats_->enc_plain_cols += plain_cols;
      stats_->enc_bytes += bytes;
    }
  }

  /// Row -> column adapter: pulls this operator's own row path (NextBatchImpl
  /// or the NextImpl loop, per ctx->batched) into scratch and transposes the
  /// rows into typed columns. Column types follow the first row's value tags;
  /// later tag mismatches degrade that column to boxed values.
  Status FillColumnsFromRows(ExecContext* ctx, ColumnBatch* batch);

  std::vector<ColumnId> layout_;
  std::vector<std::unique_ptr<PhysicalOp>> children_;
  /// Set (in the constructor) by operators overriding NextColumnsImpl.
  /// Consulted by both shells: NextColumns dispatches to the override, and
  /// NextBatch in columnar mode routes through FillFromColumnsImpl so the
  /// operator still runs its columnar path under a row-consuming parent.
  bool columnar_capable_ = false;

 private:
  /// Out-of-line instrumented halves of the shells, so the header-inlined
  /// fast paths stay one branch each.
  Status OpenInstrumented(ExecContext* ctx);
  Result<bool> NextInstrumented(ExecContext* ctx, Row* row);
  Status NextBatchInstrumented(ExecContext* ctx, RowBatch* batch);
  Status NextColumnsInstrumented(ExecContext* ctx, ColumnBatch* batch);
  void CloseInstrumented();

  /// Column -> row adapter: pulls this operator's NextColumnsImpl into
  /// scratch and decodes the selected rows into `batch`. Capacities match
  /// (both sized ctx->batch_size), so one column batch fits one row batch.
  Status FillFromColumnsImpl(ExecContext* ctx, RowBatch* batch);

  /// Lazily allocated adapter scratch (most operators never adapt).
  std::unique_ptr<RowBatch> adapter_rows_;
  std::unique_ptr<ColumnBatch> adapter_cols_;

  bool instrumented_ = false;
  OpStats* stats_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  SpanRecorder* spans_ = nullptr;
  /// Open-entry timestamp of the current Open→Close lifetime (span start).
  int64_t open_start_nanos_ = 0;
  double est_rows_ = -1.0;
  double est_cost_ = -1.0;
  mutable std::vector<PhysicalOp*> child_view_;
};

using PhysicalOpPtr = std::unique_ptr<PhysicalOp>;

/// Runs a plan to completion, collecting all rows. The root is pulled
/// through the context's own protocol: Next in row mode, NextBatch in
/// batch mode, NextColumns in columnar mode (when the root has a columnar
/// path).
Result<std::vector<Row>> ExecuteToVector(PhysicalOp* plan, ExecContext* ctx);

/// Indented physical-plan rendering for EXPLAIN.
std::string PrintPhysicalPlan(const PhysicalOp& plan,
                              const ColumnManager* columns);

}  // namespace orq

#endif  // ORQ_EXEC_EXEC_H_
