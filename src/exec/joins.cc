#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "algebra/expr_util.h"
#include "exec/evaluator.h"
#include "exec/ops.h"
#include "exec/packed_key.h"
#include "exec/parallel.h"
#include "exec/vector_kernels.h"
#include "obs/metrics.h"

namespace orq {

namespace {

std::vector<ColumnId> CombinedLayout(const PhysicalOp& left,
                                     const PhysicalOp& right,
                                     PhysJoinKind kind) {
  std::vector<ColumnId> layout = left.layout();
  if (kind == PhysJoinKind::kInner || kind == PhysJoinKind::kLeftOuter) {
    layout.insert(layout.end(), right.layout().begin(),
                  right.layout().end());
  }
  return layout;
}

/// NULL-pad types for the non-preserved side of a left outer join. The plan
/// builder passes the right layout's declared column types; direct
/// construction (tests) may omit them, falling back to kInt64.
std::vector<DataType> ResolvePadTypes(std::vector<DataType> right_types,
                                      size_t right_width) {
  if (right_types.size() != right_width) {
    right_types.assign(right_width, DataType::kInt64);
  }
  return right_types;
}

/// Nested-loops join; doubles as the Apply operator when `rebind_inner` is
/// set (per-outer-row parameter binding + inner re-open).
class NLJoinOp : public PhysicalOp {
 public:
  NLJoinOp(PhysJoinKind kind, PhysicalOpPtr left, PhysicalOpPtr right,
           ScalarExprPtr predicate, bool rebind_inner,
           std::vector<DataType> right_types, bool cache_inner)
      : kind_(kind),
        rebind_inner_(rebind_inner),
        cache_inner_(cache_inner && !rebind_inner),
        pad_types_(
            ResolvePadTypes(std::move(right_types), right->layout().size())) {
    layout_ = CombinedLayout(*left, *right, kind);
    std::vector<ColumnId> pred_layout = left->layout();
    pred_layout.insert(pred_layout.end(), right->layout().begin(),
                       right->layout().end());
    // The columnar path evaluates the predicate over batches of (left,
    // inner) pairs, which is exact only when no element can error: with a
    // vectorizable predicate it may evaluate pairs the row engine skips
    // (past a semi/anti match). Correlated Apply stays row at a time.
    pred_vec_.Compile(predicate, pred_layout);
    columnar_capable_ = !rebind_inner_ && pred_vec_.vectorizable();
    if (columnar_capable_) {
      ColumnSet refs;
      CollectColumnRefsDeep(predicate, &refs);
      for (ColumnId id : pred_layout) pred_slots_.push_back(refs.Contains(id));
    }
    predicate_ = Evaluator(std::move(predicate), pred_layout);
    children_.push_back(std::move(left));
    children_.push_back(std::move(right));
  }

  Status OpenImpl(ExecContext* ctx) override {
    ORQ_RETURN_IF_ERROR(children_[0]->Open(ctx));
    have_left_ = false;
    inner_open_ = false;
    // The outer batch is kept across re-opens (no per-open allocation).
    if (probe_.capacity() != static_cast<size_t>(ctx->batch_size)) {
      probe_ = RowBatch(ctx->batch_size);
    }
    probe_.Clear();
    probe_pos_ = 0;
    if (!rebind_inner_) {
      if (cache_inner_ && inner_cached_) {
        // Uncorrelated inner re-opened (e.g. under an outer Apply or a
        // SegmentApply): replay the spool instead of re-executing the
        // subtree — its result cannot have changed.
        if (MetricsRegistry* m = metrics()) {
          m->Add(MetricCounter::kInnerCacheReplays, 1);
        }
      } else {
        // Uncorrelated: materialize the inner once.
        ORQ_RETURN_IF_ERROR(children_[1]->Open(ctx));
        inner_rows_.clear();
        RowBatch batch(ctx->batch_size);
        while (true) {
          ORQ_RETURN_IF_ERROR(children_[1]->NextBatch(ctx, &batch));
          if (batch.empty()) break;
          for (size_t i = 0; i < batch.size(); ++i) {
            inner_rows_.push_back(std::move(batch.row(i)));
          }
        }
        children_[1]->Close();
        RecordPeak(static_cast<int64_t>(inner_rows_.size()));
        if (MetricsRegistry* m = metrics()) {
          m->Add(MetricCounter::kSpoolRows,
                 static_cast<int64_t>(inner_rows_.size()));
        }
        inner_cached_ = cache_inner_;
        inner_cols_ready_ = false;
      }
      cj_ = 0;
      ck_ = 0;
      out_left_.clear();
      out_right_.clear();
      out_pos_ = 0;
      if (cin_ != nullptr) cin_->Clear();
    }
    return Status::OK();
  }

  Result<bool> NextImpl(ExecContext* ctx, Row* row) override {
    const size_t right_width = children_[1]->layout().size();
    while (true) {
      if (!have_left_) {
        ORQ_ASSIGN_OR_RETURN(bool more, NextLeft(ctx));
        if (!more) return false;
        have_left_ = true;
        matched_ = false;
        inner_pos_ = 0;
        if (rebind_inner_) {
          const std::vector<ColumnId>& lcols = children_[0]->layout();
          for (size_t i = 0; i < lcols.size(); ++i) {
            ctx->params[lcols[i]] = left_row_[i];
          }
          if (inner_open_) children_[1]->Close();
          ORQ_RETURN_IF_ERROR(children_[1]->Open(ctx));
          inner_open_ = true;
          if (MetricsRegistry* m = metrics()) {
            m->Add(MetricCounter::kApplyInnerOpens, 1);
          }
        }
      }
      // Fetch next inner row.
      Row inner;
      bool inner_more = false;
      if (rebind_inner_) {
        ORQ_ASSIGN_OR_RETURN(inner_more, children_[1]->Next(ctx, &inner));
      } else if (inner_pos_ < inner_rows_.size()) {
        inner = inner_rows_[inner_pos_++];
        inner_more = true;
      }
      if (!inner_more) {
        bool emit_unmatched = !matched_ && (kind_ == PhysJoinKind::kLeftOuter ||
                                            kind_ == PhysJoinKind::kLeftAnti);
        have_left_ = false;
        if (emit_unmatched) {
          *row = left_row_;
          if (kind_ == PhysJoinKind::kLeftOuter) {
            for (size_t i = 0; i < right_width; ++i) {
              row->push_back(Value::Null(pad_types_[i]));
            }
          }
          return true;
        }
        continue;
      }
      // Evaluate the predicate on the combined row.
      Row combined = left_row_;
      combined.insert(combined.end(), inner.begin(), inner.end());
      ORQ_ASSIGN_OR_RETURN(bool keep, predicate_.EvalPredicate(combined, ctx));
      if (!keep) continue;
      matched_ = true;
      switch (kind_) {
        case PhysJoinKind::kInner:
        case PhysJoinKind::kLeftOuter:
          *row = std::move(combined);
          return true;
        case PhysJoinKind::kLeftSemi:
          *row = left_row_;
          have_left_ = false;  // one match suffices
          return true;
        case PhysJoinKind::kLeftAnti:
          have_left_ = false;  // disqualified
          continue;
      }
    }
  }

  Status NextBatchImpl(ExecContext* ctx, RowBatch* out) override {
    // Correlated Apply stays row-at-a-time: the inner plan is re-opened
    // per outer row, so there is no batch of inner rows to loop over.
    if (rebind_inner_) return FillFromNextImpl(ctx, out);
    while (true) {
      if (!have_left_) {
        if (probe_pos_ >= probe_.size()) {
          ORQ_RETURN_IF_ERROR(children_[0]->NextBatch(ctx, &probe_));
          if (probe_.empty()) return Status::OK();
          probe_pos_ = 0;
        }
        left_ = &probe_.row(probe_pos_++);
        have_left_ = true;
        matched_ = false;
        inner_pos_ = 0;
      }
      const Row& left = *left_;
      while (have_left_ && inner_pos_ < inner_rows_.size()) {
        if (out->full()) return Status::OK();
        const Row& inner = inner_rows_[inner_pos_++];
        // Compose the combined row in place in the output slot; rejected
        // rows are retracted with PopRow.
        Row& slot = out->PushRow();
        slot.clear();
        slot.reserve(left.size() + inner.size());
        slot.insert(slot.end(), left.begin(), left.end());
        slot.insert(slot.end(), inner.begin(), inner.end());
        ORQ_ASSIGN_OR_RETURN(bool keep, predicate_.EvalPredicate(slot, ctx));
        if (!keep) {
          out->PopRow();
          continue;
        }
        matched_ = true;
        switch (kind_) {
          case PhysJoinKind::kInner:
          case PhysJoinKind::kLeftOuter:
            break;
          case PhysJoinKind::kLeftSemi:
            slot.resize(left.size());  // drop the inner half
            have_left_ = false;
            break;
          case PhysJoinKind::kLeftAnti:
            out->PopRow();
            have_left_ = false;
            break;
        }
      }
      if (have_left_ && inner_pos_ >= inner_rows_.size()) {
        if (!matched_ && (kind_ == PhysJoinKind::kLeftOuter ||
                          kind_ == PhysJoinKind::kLeftAnti)) {
          if (out->full()) return Status::OK();
          Row& slot = out->PushRow();
          slot = std::move(*left_);
          if (kind_ == PhysJoinKind::kLeftOuter) {
            for (DataType type : pad_types_) {
              slot.push_back(Value::Null(type));
            }
          }
        }
        have_left_ = false;
      }
    }
  }

  /// Columnar nested loops over an uncorrelated inner: the spool is
  /// transposed into columns once, (left, inner) pairs are enumerated in
  /// row-engine order into pair batches, the predicate runs over each
  /// pair batch through ColumnarEvaluator, and the surviving pairs (plus
  /// unmatched left rows for outer/anti) are gathered into output columns.
  /// Output order equals the row engine's.
  Status NextColumnsImpl(ExecContext* ctx, ColumnBatch* out) override {
    if (!inner_cols_ready_) {
      TransposeInner();
      inner_cols_ready_ = true;
    }
    if (cin_ == nullptr) cin_ = std::make_unique<ColumnBatch>(ctx->batch_size);
    const size_t cap = static_cast<size_t>(out->capacity());
    out_left_.erase(out_left_.begin(), out_left_.begin() + out_pos_);
    out_right_.erase(out_right_.begin(), out_right_.begin() + out_pos_);
    out_pos_ = 0;
    // Queue output until a full batch is ready; queued rows point into
    // cin_, so they are flushed before cin_ is refilled.
    while (out_left_.size() < cap) {
      if (cj_ >= cin_->selected()) {
        if (!out_left_.empty()) break;
        ORQ_RETURN_IF_ERROR(children_[0]->NextColumns(ctx, cin_.get()));
        if (cin_->selected() == 0) return Status::OK();  // end of stream
        cj_ = 0;
        ck_ = 0;
        matched_ = false;
      }
      ORQ_RETURN_IF_ERROR(JoinPairBatch(ctx, out->capacity()));
    }
    const uint32_t n =
        static_cast<uint32_t>(std::min(out_left_.size(), cap));
    const size_t left_width = children_[0]->layout().size();
    out->ResizeCols(layout_.size());
    for (size_t c = 0; c < left_width; ++c) {
      const ColumnVec& src = cin_->col(c);
      GatherColumn(src, src.type(), out_left_.data(), n, &out->col(c));
    }
    if (layout_.size() > left_width) {
      for (size_t k = 0; k < pad_types_.size(); ++k) {
        const ColumnVec& src = inner_cols_.col(k);
        GatherColumn(src, inner_size_ > 0 ? src.type() : pad_types_[k],
                     out_right_.data(), n, &out->col(left_width + k));
      }
    }
    out->set_num_rows(n);
    out_pos_ = n;
    return Status::OK();
  }

  void CloseImpl() override {
    children_[0]->Close();
    if (inner_open_) {
      children_[1]->Close();
      inner_open_ = false;
    }
    // A caching spool survives Close for replay on the next Open.
    if (!cache_inner_) {
      inner_rows_.clear();
      inner_cols_ready_ = false;
    }
  }

  std::string name() const override {
    std::string kind;
    switch (kind_) {
      case PhysJoinKind::kInner: kind = "inner"; break;
      case PhysJoinKind::kLeftOuter: kind = "leftouter"; break;
      case PhysJoinKind::kLeftSemi: kind = "semi"; break;
      case PhysJoinKind::kLeftAnti: kind = "anti"; break;
    }
    return (rebind_inner_ ? "Apply(" : "NestedLoopsJoin(") + kind + ")";
  }

 private:
  /// The next outer row into left_row_. In the batched engines a
  /// correlated Apply pulls its outer input a batch at a time, so the outer
  /// subtree runs its batch or columnar path; rows are copied out of the
  /// batch so both keep their capacity.
  Result<bool> NextLeft(ExecContext* ctx) {
    if (!rebind_inner_ || !ctx->batched) {
      return children_[0]->Next(ctx, &left_row_);
    }
    if (probe_pos_ >= probe_.size()) {
      ORQ_RETURN_IF_ERROR(children_[0]->NextBatch(ctx, &probe_));
      if (probe_.empty()) return false;
      probe_pos_ = 0;
    }
    left_row_ = probe_.row(probe_pos_++);
    return true;
  }

  /// Transposes the inner spool into owned columns (types from the first
  /// row's tags; a later mismatch degrades that column to boxed values).
  void TransposeInner() {
    const size_t width = children_[1]->layout().size();
    inner_size_ = static_cast<uint32_t>(inner_rows_.size());
    inner_cols_.ResizeCols(width);
    for (size_t c = 0; c < width; ++c) {
      ColumnVec& col = inner_cols_.col(c);
      col.StartBuild(
          inner_size_ > 0 ? inner_rows_[0][c].type() : pad_types_[c],
          inner_size_);
      for (const Row& row : inner_rows_) col.AppendValue(row[c]);
      col.Seal();
    }
  }

  /// Enumerates up to `cap` (left, inner) pairs from the cursor (cj_, ck_)
  /// in row-engine order, evaluates the predicate over them in one pass,
  /// and walks them in the same order, queueing output rows into
  /// out_left_/out_right_ and advancing the cursor. A left row whose pairs
  /// straddle two pair batches keeps `matched_` across them. Left rows of
  /// an empty inner produce no pairs and finish (unmatched) immediately.
  ///
  /// Semi and anti joins stop at a left row's first match, so pairs past
  /// it are wasted work. While the pairs wasted so far exceed the pairs
  /// needed, each left row starts with a window of kMinPairWindow pairs
  /// that grows eightfold per pair batch it spans, so an early match costs
  /// a few evaluations; otherwise rows take whole pair batches. A windowed
  /// row evaluates under eight times the pairs it needs (plus 8), so the
  /// join's predicate work stays within a small factor of the row engine's
  /// instead of up to a whole pair batch per left row.
  Status JoinPairBatch(ExecContext* ctx, int cap) {
    const uint32_t live = cin_->selected();
    const uint32_t ucap = static_cast<uint32_t>(cap);
    const bool windowed =
        kind_ == PhysJoinKind::kLeftSemi || kind_ == PhysJoinKind::kLeftAnti;
    pair_left_.clear();
    pair_right_.clear();
    for (uint32_t j = cj_, k = ck_;
         inner_size_ > 0 && j < live && pair_left_.size() < ucap;) {
      uint32_t window = ucap;
      if (windowed) {
        window = k > 0 ? row_window_
                       : pairs_wasted_ > pairs_needed_ ? kMinPairWindow : ucap;
      }
      const uint32_t take = std::min(
          {inner_size_ - k, ucap - static_cast<uint32_t>(pair_left_.size()),
           window});
      pair_left_.insert(pair_left_.end(), take, cin_->RowAt(j));
      for (uint32_t t = 0; t < take; ++t) pair_right_.push_back(k + t);
      k += take;
      if (k < inner_size_) {  // the row continues in the next pair batch
        row_window_ = window >= ucap / 8 ? ucap : window * 8;
        break;
      }
      ++j;
      k = 0;
    }
    const uint32_t npairs = static_cast<uint32_t>(pair_left_.size());
    const ColumnVec* keep = nullptr;
    if (npairs > 0) {
      const size_t left_width = children_[0]->layout().size();
      pairs_.Clear();
      pairs_.ResizeCols(pred_slots_.size());
      for (size_t s = 0; s < pred_slots_.size(); ++s) {
        if (!pred_slots_[s]) continue;  // the predicate never reads it
        const bool left = s < left_width;
        const ColumnVec& src =
            left ? cin_->col(s) : inner_cols_.col(s - left_width);
        GatherColumn(src, src.type(),
                     left ? pair_left_.data() : pair_right_.data(), npairs,
                     &pairs_.col(s));
      }
      pairs_.set_num_rows(npairs);
      ORQ_ASSIGN_OR_RETURN(keep, pred_vec_.Eval(pairs_, ctx));
    }
    const bool emit_right = kind_ == PhysJoinKind::kInner ||
                            kind_ == PhysJoinKind::kLeftOuter;
    uint32_t p = 0;
    while (cj_ < live) {
      const uint32_t left = cin_->RowAt(cj_);
      const uint32_t avail = std::min(inner_size_ - ck_, npairs - p);
      if (inner_size_ > 0 && avail == 0) break;  // pair batch used up
      bool decided = false;  // semi/anti: the first match settles the row
      uint32_t t = 0;
      for (; t < avail; ++t) {
        if (!PredKeepElem(*keep, p + t)) continue;
        matched_ = true;
        if (emit_right) {
          out_left_.push_back(left);
          out_right_.push_back(ck_ + t);
        } else {
          if (kind_ == PhysJoinKind::kLeftSemi) {
            out_left_.push_back(left);
            out_right_.push_back(kNoRow);
          }
          decided = true;
          break;
        }
      }
      p += avail;
      if (decided) {
        pairs_needed_ += t + 1;
        pairs_wasted_ += avail - t - 1;
        ck_ = inner_size_;
      } else {
        pairs_needed_ += avail;
        ck_ += avail;
        if (ck_ < inner_size_) break;  // row continues in the next batch
      }
      if (!matched_ && (kind_ == PhysJoinKind::kLeftOuter ||
                        kind_ == PhysJoinKind::kLeftAnti)) {
        out_left_.push_back(left);
        out_right_.push_back(kNoRow);
      }
      ++cj_;
      ck_ = 0;
      matched_ = false;
    }
    return Status::OK();
  }

  static constexpr uint32_t kMinPairWindow = 8;

  PhysJoinKind kind_;
  bool rebind_inner_;
  bool cache_inner_;
  std::vector<DataType> pad_types_;
  Evaluator predicate_;
  Row left_row_;               // row path: current outer row (copy)
  const Row* left_ = nullptr;  // batch path: current outer row, in probe_
  bool have_left_ = false;
  bool matched_ = false;
  bool inner_open_ = false;
  std::vector<Row> inner_rows_;  // uncorrelated inner materialization
  bool inner_cached_ = false;    // inner_rows_ valid across Open cycles
  size_t inner_pos_ = 0;
  RowBatch probe_{0};
  size_t probe_pos_ = 0;

  /// Columnar path (NextColumnsImpl); shares matched_ with the row paths,
  /// which never interleave with it.
  ColumnarEvaluator pred_vec_;
  std::vector<bool> pred_slots_;       // pair-layout slots the predicate reads
  ColumnBatch inner_cols_;             // inner_rows_, transposed
  bool inner_cols_ready_ = false;
  uint32_t inner_size_ = 0;
  std::unique_ptr<ColumnBatch> cin_;   // current left input batch
  uint32_t cj_ = 0;                    // selection cursor into cin_
  uint32_t ck_ = 0;                    // next inner row for left row cj_
  int64_t pairs_needed_ = 0;  // semi/anti: pairs up to each decision
  int64_t pairs_wasted_ = 0;  // semi/anti: pairs evaluated past a match
  uint32_t row_window_ = 0;   // semi/anti: window for the rest of row cj_
  ColumnBatch pairs_;                  // pair batch the predicate runs over
  std::vector<uint32_t> pair_left_, pair_right_;
  std::vector<uint32_t> out_left_, out_right_;  // queued output rows
  size_t out_pos_ = 0;  // queue prefix the last call emitted
};

/// A bucket's slice of the slots permutation. `filled` is the build-time
/// scatter cursor; unused after the build completes.
struct BucketRange {
  uint32_t begin = 0;
  uint32_t size = 0;
  uint32_t filled = 0;
};

/// A complete hash-join build product: rows in arrival order, the slots
/// permutation grouping them by key, and the key -> bucket-range index.
/// Serial builds own one; parallel builds probe the one merged inside
/// SharedJoinState.
struct BuildTable {
  std::vector<Row> arena;        // build rows, arrival order
  std::vector<uint32_t> slots;   // arena indices grouped by bucket
  std::unordered_map<PackedKey, BucketRange, PackedKeyHash, PackedKeyEq>
      table;

  void Clear() {
    arena.clear();
    slots.clear();
    table.clear();
  }
};

/// Assigns each bucket a contiguous slot range, then scatters arena
/// indices into their bucket's range in arrival order. `row_bucket[i]` is
/// the bucket of arena row i. Shared by the serial build and the parallel
/// merge.
void FinishScatter(BuildTable* t,
                   const std::vector<BucketRange*>& row_bucket) {
  uint32_t offset = 0;
  for (auto& entry : t->table) {
    entry.second.begin = offset;
    offset += entry.second.size;
  }
  t->slots.resize(t->arena.size());
  for (size_t i = 0; i < t->arena.size(); ++i) {
    BucketRange* bucket = row_bucket[i];
    t->slots[bucket->begin + bucket->filled++] =
        static_cast<uint32_t>(i);
  }
}

/// Build-side rendezvous of a parallel hash join. Every worker drains its
/// morsel share of the build input into a private (key, row) partial, then
/// deposits it here; the last depositor merges all partials into one
/// BuildTable which every worker then probes read-only. Deposits happen
/// unconditionally — a worker whose drain failed deposits the error — so
/// the barrier always completes and no gang member is left waiting.
class SharedJoinState final : public SharedRegionState {
 public:
  explicit SharedJoinState(int workers)
      : workers_(workers), partials_(static_cast<size_t>(workers)) {}

  void Reset() override {
    std::lock_guard<std::mutex> lock(mu_);
    deposited_ = 0;
    merge_done_ = false;
    status_ = Status::OK();
    for (auto& partial : partials_) {
      partial.clear();
      partial.shrink_to_fit();
    }
    table_.Clear();
  }

  /// Blocks until all workers deposited and the merge completed. Returns
  /// the shared table (same pointer for every worker) or the first
  /// deposited error. `*merged_here` is set for exactly one worker — the
  /// one that performed the merge — so table-wide stats are recorded once.
  Result<const BuildTable*> Deposit(
      int worker, const Status& drain,
      std::vector<std::pair<PackedKey, Row>> partial, bool* merged_here) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!drain.ok() && status_.ok()) status_ = drain;
    partials_[static_cast<size_t>(worker)] = std::move(partial);
    *merged_here = false;
    if (++deposited_ == workers_) {
      if (status_.ok()) {
        Merge();
        *merged_here = true;
      }
      merge_done_ = true;
      cv_.notify_all();
    } else {
      cv_.wait(lock, [this] { return merge_done_; });
    }
    if (!status_.ok()) return status_;
    return &table_;
  }

 private:
  /// Runs under mu_ on the last depositor's thread; after merge_done_ the
  /// table is read-only, so probes need no lock.
  void Merge() {
    size_t total = 0;
    for (const auto& partial : partials_) total += partial.size();
    table_.arena.reserve(total);
    std::vector<BucketRange*> row_bucket;
    row_bucket.reserve(total);
    for (auto& partial : partials_) {
      for (auto& [key, row] : partial) {
        auto it = table_.table.find(key);
        if (it == table_.table.end()) {
          it = table_.table.emplace(std::move(key), BucketRange{}).first;
        }
        ++it->second.size;
        row_bucket.push_back(&it->second);
        table_.arena.push_back(std::move(row));
      }
      partial.clear();
      partial.shrink_to_fit();
    }
    FinishScatter(&table_, row_bucket);
  }

  const int workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  int deposited_ = 0;
  bool merge_done_ = false;
  Status status_;
  std::vector<std::vector<std::pair<PackedKey, Row>>> partials_;
  BuildTable table_;
};

class HashJoinOp : public PhysicalOp {
 public:
  HashJoinOp(PhysJoinKind kind, PhysicalOpPtr left, PhysicalOpPtr right,
             std::vector<std::pair<ScalarExprPtr, ScalarExprPtr>> keys,
             ScalarExprPtr residual, std::vector<DataType> right_types,
             bool cache_build, SharedRegionStatePtr shared, int worker)
      : kind_(kind),
        cache_build_(cache_build && shared == nullptr),
        worker_(worker),
        shared_(std::static_pointer_cast<SharedJoinState>(shared)),
        pad_types_(
            ResolvePadTypes(std::move(right_types), right->layout().size())) {
    layout_ = CombinedLayout(*left, *right, kind);
    // Columnar probing needs each probe key to be a plain column of the
    // probe input — then key hashes vectorize and lookups never decode the
    // probe row. Computed expressions as keys fall back to the row probe.
    bool keys_are_slots = true;
    const std::vector<ColumnId>& lcols = left->layout();
    for (auto& [l, r] : keys) {
      int slot = -1;
      if (l->kind == ScalarKind::kColumnRef) {
        for (size_t i = 0; i < lcols.size(); ++i) {
          if (lcols[i] == l->column) {
            slot = static_cast<int>(i);
            break;
          }
        }
      }
      if (slot >= 0) {
        probe_slots_.push_back(slot);
      } else {
        keys_are_slots = false;
      }
      left_keys_.emplace_back(std::move(l), left->layout());
      right_keys_.emplace_back(std::move(r), right->layout());
    }
    columnar_capable_ = keys_are_slots;
    if (residual != nullptr) {
      std::vector<ColumnId> combined = left->layout();
      combined.insert(combined.end(), right->layout().begin(),
                      right->layout().end());
      residual_ = Evaluator(std::move(residual), combined);
      has_residual_ = true;
    }
    children_.push_back(std::move(left));
    children_.push_back(std::move(right));
  }

  Status OpenImpl(ExecContext* ctx) override {
    if (shared_ != nullptr) {
      // Parallel build: drain this worker's share of the build input into
      // (key, row) pairs and meet the gang at the merge barrier. The drain
      // status rides along so an error still completes the barrier.
      std::vector<std::pair<PackedKey, Row>> partial;
      Status drain = DrainBuildPartial(ctx, &partial);
      bool merged_here = false;
      Result<const BuildTable*> merged =
          shared_->Deposit(worker_, drain, std::move(partial), &merged_here);
      if (!merged.ok()) return merged.status();
      active_ = *merged;
      if (merged_here) RecordBuildStats();
    } else if (cache_build_ && built_) {
      // Uncorrelated build side re-opened: probe the retained table.
      if (MetricsRegistry* m = metrics()) {
        m->Add(MetricCounter::kInnerCacheReplays, 1);
      }
      active_ = &local_;
    } else {
      ORQ_RETURN_IF_ERROR(BuildLocal(ctx));
      built_ = true;
      active_ = &local_;
      RecordBuildStats();
    }
    ORQ_RETURN_IF_ERROR(children_[0]->Open(ctx));
    have_left_ = false;
    probe_ = RowBatch(ctx->batch_size);
    probe_pos_ = 0;
    cjpos_ = 0;
    if (cin_ != nullptr) cin_->Clear();
    return Status::OK();
  }

  Result<bool> NextImpl(ExecContext* ctx, Row* row) override {
    while (true) {
      if (!have_left_) {
        ORQ_ASSIGN_OR_RETURN(bool more, children_[0]->Next(ctx, &left_row_));
        if (!more) return false;
        have_left_ = true;
        matched_ = false;
        ORQ_RETURN_IF_ERROR(LookupBucket(left_row_, ctx));
      }
      while (bucket_pos_ < bucket_size_) {
        const Row& inner =
            active_->arena[active_->slots[bucket_begin_ + bucket_pos_++]];
        Row combined = left_row_;
        combined.insert(combined.end(), inner.begin(), inner.end());
        if (has_residual_) {
          ORQ_ASSIGN_OR_RETURN(bool keep,
                               residual_.EvalPredicate(combined, ctx));
          if (!keep) continue;
        }
        matched_ = true;
        switch (kind_) {
          case PhysJoinKind::kInner:
          case PhysJoinKind::kLeftOuter:
            *row = std::move(combined);
            return true;
          case PhysJoinKind::kLeftSemi:
            *row = left_row_;
            have_left_ = false;
            return true;
          case PhysJoinKind::kLeftAnti:
            have_left_ = false;
            break;
        }
        if (!have_left_) break;
      }
      if (!have_left_) continue;  // semi emitted via return; anti restarts
      // Bucket exhausted.
      bool emit_unmatched = !matched_ && (kind_ == PhysJoinKind::kLeftOuter ||
                                          kind_ == PhysJoinKind::kLeftAnti);
      have_left_ = false;
      if (emit_unmatched) {
        *row = left_row_;
        if (kind_ == PhysJoinKind::kLeftOuter) {
          for (DataType type : pad_types_) {
            row->push_back(Value::Null(type));
          }
        }
        return true;
      }
    }
  }

  Status NextBatchImpl(ExecContext* ctx, RowBatch* out) override {
    while (true) {
      if (!have_left_) {
        if (probe_pos_ >= probe_.size()) {
          ORQ_RETURN_IF_ERROR(children_[0]->NextBatch(ctx, &probe_));
          if (probe_.empty()) return Status::OK();
          probe_pos_ = 0;
        }
        left_ = &probe_.row(probe_pos_++);
        have_left_ = true;
        matched_ = false;
        ORQ_RETURN_IF_ERROR(LookupBucket(*left_, ctx));
      }
      const Row& left = *left_;
      while (have_left_ && bucket_pos_ < bucket_size_) {
        if (out->full()) return Status::OK();
        const Row& inner =
            active_->arena[active_->slots[bucket_begin_ + bucket_pos_++]];
        Row& slot = out->PushRow();
        slot.clear();
        slot.reserve(left.size() + inner.size());
        slot.insert(slot.end(), left.begin(), left.end());
        slot.insert(slot.end(), inner.begin(), inner.end());
        if (has_residual_) {
          ORQ_ASSIGN_OR_RETURN(bool keep, residual_.EvalPredicate(slot, ctx));
          if (!keep) {
            out->PopRow();
            continue;
          }
        }
        matched_ = true;
        switch (kind_) {
          case PhysJoinKind::kInner:
          case PhysJoinKind::kLeftOuter:
            break;
          case PhysJoinKind::kLeftSemi:
            slot.resize(left.size());  // drop the inner half
            have_left_ = false;
            break;
          case PhysJoinKind::kLeftAnti:
            out->PopRow();
            have_left_ = false;
            break;
        }
      }
      if (have_left_ && bucket_pos_ >= bucket_size_) {
        if (!matched_ && (kind_ == PhysJoinKind::kLeftOuter ||
                          kind_ == PhysJoinKind::kLeftAnti)) {
          if (out->full()) return Status::OK();
          Row& slot = out->PushRow();
          slot = std::move(*left_);
          if (kind_ == PhysJoinKind::kLeftOuter) {
            for (DataType type : pad_types_) {
              slot.push_back(Value::Null(type));
            }
          }
        }
        have_left_ = false;
      }
    }
  }

  /// Columnar probe: key hashes are computed column-wise for the whole
  /// probe batch, lookups go through ColumnKeyRef (no probe-row decode),
  /// and matches accumulate as (probe row, arena slot) pairs that are
  /// gathered into output columns in one pass. The build side is unchanged
  /// — its arena stays row-major and right output columns are appended
  /// from arena rows.
  Status NextColumnsImpl(ExecContext* ctx, ColumnBatch* out) override {
    const size_t left_width = children_[0]->layout().size();
    const bool emit_right = kind_ == PhysJoinKind::kInner ||
                            kind_ == PhysJoinKind::kLeftOuter;
    const uint32_t cap = static_cast<uint32_t>(out->capacity());
    if (cin_ == nullptr) {
      cin_ = std::make_unique<ColumnBatch>(ctx->batch_size);
    }
    cpair_left_.clear();
    cpair_right_.clear();
    while (true) {
      if (!have_left_) {
        if (cjpos_ >= cin_->selected()) {
          // Refilling invalidates the probe views the gathered pairs
          // reference; flush what we have first.
          if (!cpair_left_.empty()) break;
          ORQ_RETURN_IF_ERROR(children_[0]->NextColumns(ctx, cin_.get()));
          if (cin_->selected() == 0) break;  // probe input exhausted
          cjpos_ = 0;
          InitKeyHashes(*cin_, &chashes_);
          for (int slot : probe_slots_) {
            HashCombineColumn(*cin_, cin_->col(slot), &chashes_);
          }
          if (MetricsRegistry* m = metrics()) {
            m->Add(MetricCounter::kHashJoinProbes,
                   static_cast<int64_t>(cin_->selected()));
          }
        }
        cleft_ = cin_->RowAt(cjpos_);
        have_left_ = true;
        matched_ = false;
        cleft_decoded_ = false;
        LookupBucketColumnar(cjpos_);
        ++cjpos_;
      }
      while (have_left_ && bucket_pos_ < bucket_size_ &&
             cpair_left_.size() < cap) {
        const uint32_t slot = active_->slots[bucket_begin_ + bucket_pos_++];
        if (has_residual_) {
          bool keep = false;
          {
            ORQ_ASSIGN_OR_RETURN(keep, EvalResidualColumnar(slot, ctx));
          }
          if (!keep) continue;
        }
        matched_ = true;
        switch (kind_) {
          case PhysJoinKind::kInner:
          case PhysJoinKind::kLeftOuter:
            cpair_left_.push_back(cleft_);
            cpair_right_.push_back(slot);
            break;
          case PhysJoinKind::kLeftSemi:
            cpair_left_.push_back(cleft_);
            cpair_right_.push_back(kNoRow);
            have_left_ = false;
            break;
          case PhysJoinKind::kLeftAnti:
            have_left_ = false;
            break;
        }
      }
      if (have_left_ && bucket_pos_ >= bucket_size_) {
        if (!matched_ && (kind_ == PhysJoinKind::kLeftOuter ||
                          kind_ == PhysJoinKind::kLeftAnti)) {
          // No room for the pad/pass-through row: leave this probe row
          // current (bucket exhausted, unmatched) and resume here next call.
          if (cpair_left_.size() >= cap) break;
          cpair_left_.push_back(cleft_);
          cpair_right_.push_back(kNoRow);
        }
        have_left_ = false;
      }
      if (cpair_left_.size() >= cap) break;
    }
    const uint32_t n = static_cast<uint32_t>(cpair_left_.size());
    if (n == 0) return Status::OK();  // EOS
    out->ResizeCols(layout_.size());
    for (size_t c = 0; c < left_width; ++c) {
      const ColumnVec& src = cin_->col(c);
      GatherColumn(src, src.type(), cpair_left_.data(), n, &out->col(c));
    }
    if (emit_right) {
      for (size_t k = 0; k < pad_types_.size(); ++k) {
        ColumnVec& dst = out->col(left_width + k);
        dst.StartBuild(pad_types_[k], n);
        for (uint32_t slot : cpair_right_) {
          if (slot == kNoRow) {
            dst.AppendNull();
          } else {
            dst.AppendValue(active_->arena[slot][k]);
          }
        }
        dst.Seal();
      }
    }
    out->set_num_rows(n);
    return Status::OK();
  }

  void CloseImpl() override {
    children_[0]->Close();
    // The shared table is released by the exchange's Close (other workers
    // may still be probing it here); a caching build survives for replay.
    if (shared_ == nullptr && !cache_build_) local_.Clear();
    active_ = nullptr;
  }

  std::string name() const override {
    std::string kind;
    switch (kind_) {
      case PhysJoinKind::kInner: kind = "inner"; break;
      case PhysJoinKind::kLeftOuter: kind = "leftouter"; break;
      case PhysJoinKind::kLeftSemi: kind = "semi"; break;
      case PhysJoinKind::kLeftAnti: kind = "anti"; break;
    }
    return "HashJoin(" + kind + ")";
  }

 private:
  /// Serial build: drain the right child into local_, keyed by a packed
  /// key (hash precomputed once per distinct key). Buckets are ranges into
  /// a single slots permutation rather than one vector of row copies per
  /// key.
  Status BuildLocal(ExecContext* ctx) {
    local_.Clear();
    ORQ_RETURN_IF_ERROR(children_[1]->Open(ctx));
    std::vector<BucketRange*> row_bucket;
    RowBatch batch(ctx->batch_size);
    Row key(right_keys_.size());
    while (true) {
      Status status = children_[1]->NextBatch(ctx, &batch);
      if (!status.ok()) {
        children_[1]->Close();
        return status;
      }
      if (batch.empty()) break;
      for (size_t r = 0; r < batch.size(); ++r) {
        Row& row = batch.row(r);
        bool null_key = false;
        for (size_t i = 0; i < right_keys_.size(); ++i) {
          Result<Value> v = right_keys_[i].Eval(row, ctx);
          if (!v.ok()) {
            children_[1]->Close();
            return v.status();
          }
          if (v->is_null()) {
            null_key = true;
            break;
          }
          key[i] = std::move(*v);
        }
        if (null_key) continue;  // NULL keys never join
        auto it = local_.table.find(key);
        if (it == local_.table.end()) {
          it = local_.table.emplace(PackedKey(std::move(key)), BucketRange{})
                   .first;
          key = Row(right_keys_.size());
        }
        ++it->second.size;
        row_bucket.push_back(&it->second);
        local_.arena.push_back(std::move(row));
      }
    }
    children_[1]->Close();
    FinishScatter(&local_, row_bucket);
    return Status::OK();
  }

  /// Parallel build: drain the right child (a morsel share of the build
  /// input) into per-row (key, row) pairs for the shared merge. Closes the
  /// child on every path; the caller deposits whatever status results.
  Status DrainBuildPartial(ExecContext* ctx,
                           std::vector<std::pair<PackedKey, Row>>* partial) {
    ORQ_RETURN_IF_ERROR(children_[1]->Open(ctx));
    RowBatch batch(ctx->batch_size);
    while (true) {
      Status status = children_[1]->NextBatch(ctx, &batch);
      if (!status.ok()) {
        children_[1]->Close();
        return status;
      }
      if (batch.empty()) break;
      for (size_t r = 0; r < batch.size(); ++r) {
        Row& row = batch.row(r);
        Row key(right_keys_.size());
        bool null_key = false;
        for (size_t i = 0; i < right_keys_.size(); ++i) {
          Result<Value> v = right_keys_[i].Eval(row, ctx);
          if (!v.ok()) {
            children_[1]->Close();
            return v.status();
          }
          if (v->is_null()) {
            null_key = true;
            break;
          }
          key[i] = std::move(*v);
        }
        if (null_key) continue;
        partial->emplace_back(PackedKey(std::move(key)), std::move(row));
      }
    }
    children_[1]->Close();
    if (MetricsRegistry* m = metrics()) {
      m->Add(MetricCounter::kHashJoinBuildRows,
             static_cast<int64_t>(partial->size()));
    }
    return Status::OK();
  }

  /// Table-wide build statistics, recorded once per build: by the serial
  /// builder, or by the single worker that performed the parallel merge
  /// (into its shard; the exchange merges shards afterwards).
  void RecordBuildStats() {
    RecordPeak(static_cast<int64_t>(active_->table.size()));
    MetricsRegistry* m = metrics();
    if (m == nullptr) return;
    if (shared_ == nullptr) {
      // The parallel path counts build rows per worker in
      // DrainBuildPartial; count the serial drain here.
      m->Add(MetricCounter::kHashJoinBuildRows,
             static_cast<int64_t>(active_->arena.size()));
    }
    m->Add(MetricCounter::kHashJoinBuckets,
           static_cast<int64_t>(active_->table.size()));
    // Approximate resident footprint of the build side: row headers and
    // value storage in the arena, the slots permutation, and the packed
    // keys + bucket ranges in the table. String payloads are not walked.
    int64_t bytes =
        static_cast<int64_t>(active_->slots.size() * sizeof(uint32_t));
    for (const Row& row : active_->arena) {
      bytes += static_cast<int64_t>(sizeof(Row) +
                                    row.capacity() * sizeof(Value));
    }
    for (const auto& entry : active_->table) {
      bytes += static_cast<int64_t>(
          sizeof(PackedKey) + sizeof(BucketRange) +
          entry.first.values.capacity() * sizeof(Value));
      m->Observe(MetricHistogram::kHashJoinBucketRows, entry.second.size);
    }
    m->Add(MetricCounter::kHashJoinArenaBytes, bytes);
  }

  /// Columnar analogue of LookupBucket: positions the bucket cursor for
  /// the probe row at selection position `j` of cin_. Keys are column
  /// slots, so NULL detection and the hash are free of per-row expression
  /// evaluation; the heterogeneous find compares hash-first and only runs
  /// the per-key comparison on a hash hit.
  void LookupBucketColumnar(uint32_t j) {
    bucket_begin_ = 0;
    bucket_size_ = 0;
    bucket_pos_ = 0;
    const uint32_t r = cin_->RowAt(j);
    bool null_key = false;
    for (int slot : probe_slots_) {
      if (cin_->col(slot).IsNull(r)) {
        null_key = true;  // NULL keys never join
        break;
      }
    }
    if (!null_key) {
      ColumnKeyRef ref{cin_.get(), probe_slots_.data(), probe_slots_.size(),
                       r, chashes_[j]};
      auto it = active_->table.find(ref);
      if (it != active_->table.end()) {
        bucket_begin_ = it->second.begin;
        bucket_size_ = it->second.size;
      }
    }
    if (MetricsRegistry* m = metrics()) {
      m->Observe(MetricHistogram::kHashJoinChainLength, bucket_size_);
    }
  }

  /// Residual predicate for a (current probe row, arena slot) candidate:
  /// the probe half decodes lazily once per probe row, the combined row is
  /// assembled in a reused scratch, and evaluation goes through the same
  /// row Evaluator the row paths use.
  Result<bool> EvalResidualColumnar(uint32_t arena_slot, ExecContext* ctx) {
    if (!cleft_decoded_) {
      cin_->DecodeRow(cleft_, &cdecode_);
      cleft_decoded_ = true;
    }
    const Row& inner = active_->arena[arena_slot];
    ccombined_ = cdecode_;
    ccombined_.insert(ccombined_.end(), inner.begin(), inner.end());
    return residual_.EvalPredicate(ccombined_, ctx);
  }

  /// Evaluates the probe keys for `left` and positions the bucket cursor;
  /// a NULL key or an absent key yields an empty bucket.
  Status LookupBucket(const Row& left, ExecContext* ctx) {
    bucket_begin_ = 0;
    bucket_size_ = 0;
    bucket_pos_ = 0;
    probe_key_.resize(left_keys_.size());
    for (size_t i = 0; i < left_keys_.size(); ++i) {
      Result<Value> v = left_keys_[i].Eval(left, ctx);
      if (!v.ok()) return v.status();
      if (v->is_null()) return Status::OK();
      probe_key_[i] = std::move(*v);
    }
    auto it = active_->table.find(probe_key_);  // heterogeneous: no key copy
    if (it != active_->table.end()) {
      bucket_begin_ = it->second.begin;
      bucket_size_ = it->second.size;
    }
    if (MetricsRegistry* m = metrics()) {
      m->Add(MetricCounter::kHashJoinProbes, 1);
      m->Observe(MetricHistogram::kHashJoinChainLength, bucket_size_);
    }
    return Status::OK();
  }

  PhysJoinKind kind_;
  bool cache_build_;
  int worker_;
  std::shared_ptr<SharedJoinState> shared_;
  std::vector<DataType> pad_types_;
  std::vector<Evaluator> left_keys_, right_keys_;
  Evaluator residual_;
  bool has_residual_ = false;
  BuildTable local_;                      // serial/cached build product
  const BuildTable* active_ = nullptr;    // table being probed (local or shared)
  bool built_ = false;                    // local_ valid across Open cycles
  Row left_row_;               // row path: current probe row (copy)
  const Row* left_ = nullptr;  // batch path: current probe row, in probe_
  Row probe_key_;              // scratch for heterogeneous lookups
  bool have_left_ = false;
  bool matched_ = false;
  uint32_t bucket_begin_ = 0;
  uint32_t bucket_size_ = 0;
  uint32_t bucket_pos_ = 0;
  RowBatch probe_{0};
  size_t probe_pos_ = 0;

  /// Columnar-probe state (NextColumnsImpl). Active only when every probe
  /// key is a plain column ref (columnar_capable_); shares matched_ and
  /// the bucket cursor with the row paths, which never interleave with it.
  std::vector<int> probe_slots_;        // probe key columns in cin_
  std::unique_ptr<ColumnBatch> cin_;    // current probe input batch
  std::vector<size_t> chashes_;         // per-selection-position key hashes
  uint32_t cjpos_ = 0;                  // selection cursor into cin_
  uint32_t cleft_ = 0;                  // current probe row (physical)
  bool cleft_decoded_ = false;          // cdecode_ holds cleft_'s row
  /// Pairs gathered this call: physical probe row in cin_, and build
  /// arena slot or kNoRow (pad / probe-only pair).
  std::vector<uint32_t> cpair_left_, cpair_right_;
  Row cdecode_, ccombined_;             // residual-eval scratch
};

}  // namespace

PhysicalOpPtr MakeNLJoinOp(PhysJoinKind kind, PhysicalOpPtr left,
                           PhysicalOpPtr right, ScalarExprPtr predicate,
                           bool rebind_inner,
                           std::vector<DataType> right_types,
                           bool cache_inner) {
  return std::make_unique<NLJoinOp>(kind, std::move(left), std::move(right),
                                    std::move(predicate), rebind_inner,
                                    std::move(right_types), cache_inner);
}

PhysicalOpPtr MakeHashJoinOp(
    PhysJoinKind kind, PhysicalOpPtr left, PhysicalOpPtr right,
    std::vector<std::pair<ScalarExprPtr, ScalarExprPtr>> keys,
    ScalarExprPtr residual, std::vector<DataType> right_types,
    bool cache_build, SharedRegionStatePtr shared, int worker) {
  return std::make_unique<HashJoinOp>(kind, std::move(left), std::move(right),
                                      std::move(keys), std::move(residual),
                                      std::move(right_types), cache_build,
                                      std::move(shared), worker);
}

SharedRegionStatePtr MakeSharedJoinState(int workers) {
  return std::make_shared<SharedJoinState>(workers);
}

}  // namespace orq
