#include "exec/exec.h"

#include "obs/metrics.h"
#include "obs/spans.h"

namespace orq {

Status PhysicalOp::OpenInstrumented(ExecContext* ctx) {
  const ExecInstruments& instruments = *ctx->instruments;
  instrumented_ = true;
  stats_ = instruments.stats != nullptr ? instruments.stats->StatsFor(this)
                                        : nullptr;
  metrics_ = instruments.metrics;
  spans_ = instruments.spans;
  open_start_nanos_ = ObsNowNanos();
  Status status = OpenImpl(ctx);
  if (stats_ != nullptr) {
    ++stats_->open_calls;
    stats_->wall_nanos += ObsNowNanos() - open_start_nanos_;
  }
  return status;
}

Result<bool> PhysicalOp::NextInstrumented(ExecContext* ctx, Row* row) {
  const int64_t start = ObsNowNanos();
  Result<bool> more = NextImpl(ctx, row);
  stats_->wall_nanos += ObsNowNanos() - start;
  ++stats_->next_calls;
  if (more.ok() && *more) {
    ++stats_->rows_out;
    ++ctx->rows_produced;
  }
  return more;
}

Status PhysicalOp::NextBatchInstrumented(ExecContext* ctx, RowBatch* batch) {
  const int64_t start = ObsNowNanos();
  Status status = ctx->columnar && columnar_capable_
                      ? FillFromColumnsImpl(ctx, batch)
                      : ctx->batched ? NextBatchImpl(ctx, batch)
                                     : FillFromNextImpl(ctx, batch);
  if (stats_ != nullptr) {
    stats_->wall_nanos += ObsNowNanos() - start;
    ++stats_->next_calls;
  }
  if (status.ok()) {
    const int64_t rows = static_cast<int64_t>(batch->size());
    ctx->rows_produced += rows;
    if (stats_ != nullptr) stats_->rows_out += rows;
    // Row mode drains through this shell too (FillFromNextImpl) but runs
    // row at a time, so only the batched engines report batch fill. The
    // terminal empty pull is excluded: every stream ends with one, so
    // counting it only dilutes the signal.
    if (rows > 0 && ctx->batched) {
      const int64_t slots = static_cast<int64_t>(batch->capacity());
      if (stats_ != nullptr) stats_->batch_slots += slots;
      if (metrics_ != nullptr && slots > 0) {
        metrics_->Observe(MetricHistogram::kBatchFillPercent,
                          100 * rows / slots);
      }
    }
  }
  return status;
}

Status PhysicalOp::NextColumnsInstrumented(ExecContext* ctx,
                                           ColumnBatch* batch) {
  const int64_t start = ObsNowNanos();
  Status status = columnar_capable_ ? NextColumnsImpl(ctx, batch)
                                    : FillColumnsFromRows(ctx, batch);
  if (stats_ != nullptr) {
    stats_->wall_nanos += ObsNowNanos() - start;
    ++stats_->next_calls;
  }
  if (status.ok()) {
    const int64_t rows = static_cast<int64_t>(batch->selected());
    ctx->rows_produced += rows;
    if (rows > 0) {
      const int64_t slots = static_cast<int64_t>(batch->capacity());
      if (stats_ != nullptr) {
        stats_->rows_out += rows;
        stats_->batch_slots += slots;
        ++stats_->column_batches;
      }
      if (metrics_ != nullptr && slots > 0) {
        metrics_->Add(MetricCounter::kColumnBatches, 1);
        // batch_slots counts capacity while rows counts selected, so this
        // is the selection-vector density, not physical fill.
        metrics_->Observe(MetricHistogram::kSelVectorSelectivity,
                          100 * rows / slots);
      }
    }
  }
  return status;
}

Status PhysicalOp::FillColumnsFromRows(ExecContext* ctx, ColumnBatch* batch) {
  if (adapter_rows_ == nullptr) {
    adapter_rows_ = std::make_unique<RowBatch>(batch->capacity());
  }
  adapter_rows_->Clear();
  ORQ_RETURN_IF_ERROR(ctx->batched ? NextBatchImpl(ctx, adapter_rows_.get())
                                   : FillFromNextImpl(ctx, adapter_rows_.get()));
  const RowBatch& rows = *adapter_rows_;
  const uint32_t n = static_cast<uint32_t>(rows.size());
  batch->ResizeCols(layout_.size());
  for (size_t c = 0; c < layout_.size(); ++c) {
    ColumnVec& col = batch->col(c);
    // Pick the declared type from the first row's tag (the engine is
    // dynamically typed); AppendValue degrades to boxed on a later
    // mismatch, so a wrong guess costs performance, never correctness.
    DataType type = n > 0 ? rows.row(0)[c].type() : DataType::kInt64;
    col.StartBuild(type, n);
    for (uint32_t i = 0; i < n; ++i) col.AppendValue(rows.row(i)[c]);
    col.Seal();
  }
  batch->set_num_rows(n);
  return Status::OK();
}

Status PhysicalOp::FillFromColumnsImpl(ExecContext* ctx, RowBatch* batch) {
  if (adapter_cols_ == nullptr) {
    adapter_cols_ = std::make_unique<ColumnBatch>(
        static_cast<int>(batch->capacity()));
  }
  ColumnBatch& cols = *adapter_cols_;
  cols.Clear();
  ORQ_RETURN_IF_ERROR(NextColumnsImpl(ctx, &cols));
  const uint32_t m = cols.selected();
  if (m > 0 && stats_ != nullptr) ++stats_->column_batches;
  for (uint32_t j = 0; j < m; ++j) {
    cols.DecodeRow(cols.RowAt(j), &batch->PushRow());
  }
  return Status::OK();
}

void PhysicalOp::CloseInstrumented() {
  const int64_t start = ObsNowNanos();
  CloseImpl();
  const int64_t end = ObsNowNanos();
  if (stats_ != nullptr) {
    ++stats_->close_calls;
    stats_->wall_nanos += end - start;
  }
  if (spans_ != nullptr) spans_->AddOpSpan(this, open_start_nanos_, end);
}

namespace {

Status DrainRows(PhysicalOp* plan, ExecContext* ctx, std::vector<Row>* rows) {
  Row row;
  while (true) {
    ORQ_ASSIGN_OR_RETURN(bool more, plan->Next(ctx, &row));
    if (!more) return Status::OK();
    rows->push_back(std::move(row));
  }
}

Status DrainBatches(PhysicalOp* plan, ExecContext* ctx,
                    std::vector<Row>* rows) {
  RowBatch batch(ctx->batch_size);
  while (true) {
    ORQ_RETURN_IF_ERROR(plan->NextBatch(ctx, &batch));
    if (batch.empty()) return Status::OK();
    for (size_t i = 0; i < batch.size(); ++i) {
      rows->push_back(std::move(batch.row(i)));
    }
  }
}

Status DrainColumns(PhysicalOp* plan, ExecContext* ctx,
                    std::vector<Row>* rows) {
  ColumnBatch batch(ctx->batch_size);
  while (true) {
    ORQ_RETURN_IF_ERROR(plan->NextColumns(ctx, &batch));
    const uint32_t m = batch.selected();
    if (m == 0) return Status::OK();
    for (uint32_t j = 0; j < m; ++j) {
      rows->emplace_back();
      batch.DecodeRow(batch.RowAt(j), &rows->back());
    }
  }
}

}  // namespace

Result<std::vector<Row>> ExecuteToVector(PhysicalOp* plan, ExecContext* ctx) {
  std::vector<Row> rows;
  ORQ_RETURN_IF_ERROR(plan->Open(ctx));
  Status status = ctx->columnar && plan->columnar_capable()
                      ? DrainColumns(plan, ctx, &rows)
                  : ctx->batched ? DrainBatches(plan, ctx, &rows)
                                 : DrainRows(plan, ctx, &rows);
  plan->Close();
  if (!status.ok()) return status;
  return rows;
}

namespace {

void PrintRec(const PhysicalOp& op, const ColumnManager* columns, int indent,
              std::string* out) {
  out->append(indent * 2, ' ');
  out->append(op.name());
  out->append(" [");
  const std::vector<ColumnId>& layout = op.layout();
  for (size_t i = 0; i < layout.size(); ++i) {
    if (i > 0) out->append(", ");
    if (columns != nullptr) {
      out->append(columns->name(layout[i]));
      out->push_back('#');
    }
    out->append(std::to_string(layout[i]));
  }
  out->append("]\n");
  for (const PhysicalOp* child : op.children()) {
    PrintRec(*child, columns, indent + 1, out);
  }
}

}  // namespace

std::string PrintPhysicalPlan(const PhysicalOp& plan,
                              const ColumnManager* columns) {
  std::string out;
  PrintRec(plan, columns, 0, &out);
  return out;
}

}  // namespace orq
