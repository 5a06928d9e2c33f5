#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <unordered_set>
#include <utility>

#include "exec/evaluator.h"
#include "exec/ops.h"
#include "exec/parallel.h"
#include "exec/vector_kernels.h"
#include "obs/metrics.h"

namespace orq {

namespace {

/// SUM over doubles accumulates as an unevaluated double-double so the
/// rounded double result is independent of summation order. `hi` is the
/// running double sum; `lo` collects every addition's exact rounding error
/// (TwoSum needs no branch and no FMA), so hi + lo carries ~106 bits. The
/// error left after N additions is ~N * 2^-106 relative — at 2^17 adds
/// still ~2^-36 of one double ulp — so serial, cached, and any morsel
/// partitioning of the same input round to the same double. Without this,
/// a query comparing one aggregate against a recomputation of itself
/// (TPC-H Q15's total_revenue = max(total_revenue)) silently loses rows
/// whenever the two plans associate the additions differently.
struct DoubleDouble {
  double hi = 0.0;
  double lo = 0.0;

  void Add(double x) {
    const double s = hi + x;
    const double b = s - hi;
    lo += (hi - (s - b)) + (x - b);
    hi = s;
  }
  /// Adds x * n with the product's rounding error recovered by FMA.
  void AddProduct(double x, double n) {
    const double p = x * n;
    Add(p);
    lo += std::fma(x, n, -p);
  }
  /// Adds an int64 exactly: both 32-bit halves are exact doubles.
  void AddInt(int64_t v) {
    Add(static_cast<double>(v >> 32) * 4294967296.0);
    Add(static_cast<double>(v & 0xffffffff));
  }
  void Merge(const DoubleDouble& other) {
    Add(other.hi);
    lo += other.lo;
  }
  /// The correctly rounded sum away from ties; an infinite or NaN `hi`
  /// (whose error terms are NaN) is the IEEE result as is.
  double Round() const { return std::isfinite(hi) ? hi + lo : hi; }
};

/// One accumulator per (group, aggregate), stored flat in a GroupTable.
/// DISTINCT inputs live in HashAggregateOp's side table instead.
struct Accumulator {
  int64_t count = 0;          // rows seen (count(*), Max1Row guard)
  int64_t non_null = 0;       // non-NULL inputs (count(x))
  int64_t sum_int = 0;        // wraps mod 2^64, like repeated addition
  DoubleDouble sum_double;
  bool sum_is_double = false;
  bool has_value = false;
  Value extreme;              // min/max/Max1Row value

  void AddInt(int64_t v) {
    sum_int = static_cast<int64_t>(static_cast<uint64_t>(sum_int) +
                                   static_cast<uint64_t>(v));
  }
  /// SUM of a non-NULL Value. A string adds nothing, as
  /// Value::int64_value() of a string is 0.
  void AddSum(const Value& v) {
    if (v.type() == DataType::kDouble) {
      sum_is_double = true;
      sum_double.Add(v.double_value());
    } else {
      AddInt(v.int64_value());
    }
  }
};

/// Folds a worker's partial accumulator into the merged one. Additive
/// counters add; min/max keep the better extreme. DISTINCT and Max1Row
/// aggregates never reach here — the plan builder excludes them from
/// parallel regions (their merge is not a simple fold).
void MergeAccumulator(const AggItem& agg, Accumulator* into,
                      Accumulator&& from) {
  into->count += from.count;
  into->non_null += from.non_null;
  into->AddInt(from.sum_int);
  into->sum_double.Merge(from.sum_double);
  into->sum_is_double = into->sum_is_double || from.sum_is_double;
  if (from.has_value) {
    bool take = !into->has_value;
    if (!take) {
      const int cmp = from.extreme.TotalCompare(into->extreme);
      take = (agg.func == AggFunc::kMin && cmp < 0) ||
             (agg.func == AggFunc::kMax && cmp > 0);
    }
    if (take) {
      into->extreme = std::move(from.extreme);
      into->has_value = true;
    }
  }
}

/// Flat open-addressed group table. Group ids are dense and assigned in
/// insertion order, which is also emission order. Per group id it keeps
/// the key hash, the key values (`nkeys` per group) and the accumulators
/// (`naggs` per group), each in one array; a power-of-two slot array of
/// group ids (linear probing, load <= 1/2) indexes them by hash. Clear
/// keeps every capacity, so re-opens under an Apply do not reallocate,
/// and freeing the table is a few vector frees. A table without key
/// columns (a scalar aggregate) has at most group 0 and no slot array.
class GroupTable {
 public:
  void Clear(size_t nkeys, size_t naggs) {
    std::fill(slots_.begin(), slots_.end(), kEmpty);
    hashes_.clear();
    keys_.clear();
    accs_.clear();
    nkeys_ = nkeys;
    naggs_ = naggs;
  }

  uint32_t size() const { return static_cast<uint32_t>(hashes_.size()); }
  size_t nkeys() const { return nkeys_; }
  size_t hash(uint32_t g) const { return hashes_[g]; }
  const Value* key(uint32_t g) const { return keys_.data() + g * nkeys_; }
  Value* mutable_key(uint32_t g) { return keys_.data() + g * nkeys_; }
  /// Group g's accumulators; valid until the next insertion.
  Accumulator* accs(uint32_t g) { return accs_.data() + g * naggs_; }
  const Accumulator* accs(uint32_t g) const {
    return accs_.data() + g * naggs_;
  }

  /// Group id of the key hashing to `hash` whose stored key values satisfy
  /// `eq(const Value*)`. On a miss, `append(std::vector<Value>*)` appends
  /// the new key's values and the group starts with fresh accumulators.
  template <typename Eq, typename Append>
  uint32_t FindOrInsert(size_t hash, const Eq& eq, const Append& append) {
    if (nkeys_ == 0) {
      if (hashes_.empty()) AddGroup(hash);
      return 0;
    }
    if ((hashes_.size() + 1) * 2 > slots_.size()) Grow();
    size_t s = Home(hash);
    for (uint32_t g = slots_[s]; g != kEmpty; g = slots_[s]) {
      if (hashes_[g] == hash && eq(key(g))) return g;
      s = (s + 1) & mask_;
    }
    const uint32_t g = size();
    slots_[s] = g;
    append(&keys_);
    AddGroup(hash);
    return g;
  }

  /// Appends a group (its key values already appended, if any).
  void AddGroup(size_t hash) {
    hashes_.push_back(hash);
    accs_.resize(accs_.size() + naggs_);
  }

  /// Records each group's probe length — slots walked from its home slot
  /// to reach it — as the hash_agg.bucket_chain histogram.
  void ObserveProbeLengths(MetricsRegistry* m) const {
    for (size_t s = 0; s < slots_.size(); ++s) {
      const uint32_t g = slots_[s];
      if (g == kEmpty) continue;
      const int64_t walked =
          static_cast<int64_t>((s - Home(hashes_[g])) & mask_) + 1;
      m->Observe(MetricHistogram::kHashAggBucketChain, walked);
    }
  }

 private:
  static constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();

  /// Fibonacci hashing: the top bits of hash * 2^64/phi, so keys whose
  /// hashes differ only in high bits still spread.
  size_t Home(size_t hash) const {
    return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ull) >> shift_);
  }
  void Grow() {
    const size_t n = std::max<size_t>(16, slots_.size() * 2);
    slots_.assign(n, kEmpty);
    mask_ = n - 1;
    shift_ = 64 - static_cast<unsigned>(__builtin_ctzll(n));
    for (uint32_t g = 0; g < size(); ++g) {
      size_t s = Home(hashes_[g]);
      while (slots_[s] != kEmpty) s = (s + 1) & mask_;
      slots_[s] = g;
    }
  }

  std::vector<uint32_t> slots_;
  size_t mask_ = 0;
  unsigned shift_ = 64;
  std::vector<size_t> hashes_;
  std::vector<Value> keys_;
  std::vector<Accumulator> accs_;
  size_t nkeys_ = 0;
  size_t naggs_ = 0;
};

/// End-of-input rendezvous of a parallel hash aggregation. Every worker
/// aggregates its morsel share into its own GroupTable and deposits a
/// pointer to it here; the last depositor merges the tables into one more
/// GroupTable while the others wait, so every partial stays untouched
/// until the merge is done. Worker 0's operator then emits the merged
/// result; the others emit nothing. Deposits happen even on drain errors
/// so the barrier always completes.
class SharedAggState final : public SharedRegionState {
 public:
  explicit SharedAggState(int workers)
      : workers_(workers), partials_(static_cast<size_t>(workers)) {}

  void Reset() override {
    std::lock_guard<std::mutex> lock(mu_);
    deposited_ = 0;
    merge_done_ = false;
    status_ = Status::OK();
    std::fill(partials_.begin(), partials_.end(), nullptr);
    merged_ = GroupTable{};
  }

  /// Blocks until all workers deposited and the merge completed; returns
  /// the first deposited error. The merge moves key values out of
  /// `partial`, which the caller clears afterwards. `aggs` describes the
  /// accumulator fold and is identical across workers.
  Status Deposit(int worker, const Status& drain, GroupTable* partial,
                 const std::vector<AggItem>& aggs) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!drain.ok() && status_.ok()) status_ = drain;
    partials_[static_cast<size_t>(worker)] = partial;
    if (++deposited_ == workers_) {
      if (status_.ok()) Merge(aggs);
      merge_done_ = true;
      cv_.notify_all();
    } else {
      cv_.wait(lock, [this] { return merge_done_; });
    }
    return status_;
  }

  /// Merged result, valid after Deposit returned OK; read-only thereafter.
  const GroupTable& merged() const { return merged_; }

 private:
  /// Runs under mu_ on the last depositor's thread. Worker order fixes the
  /// merged emission order deterministically (worker 0's groups first, in
  /// its insertion order, then worker 1's new groups, ...). Stored hashes
  /// are reused, so nothing is rehashed.
  void Merge(const std::vector<AggItem>& aggs) {
    const size_t nkeys = partials_[0]->nkeys();
    merged_.Clear(nkeys, aggs.size());
    for (GroupTable* partial : partials_) {
      for (uint32_t g = 0; g < partial->size(); ++g) {
        Value* key = partial->mutable_key(g);
        const uint32_t into = merged_.FindOrInsert(
            partial->hash(g),
            [&](const Value* k) {
              for (size_t i = 0; i < nkeys; ++i) {
                if (!k[i].GroupEquals(key[i])) return false;
              }
              return true;
            },
            [&](std::vector<Value>* keys) {
              for (size_t i = 0; i < nkeys; ++i) {
                keys->push_back(std::move(key[i]));
              }
            });
        Accumulator* to = merged_.accs(into);
        Accumulator* from = partial->accs(g);
        for (size_t i = 0; i < aggs.size(); ++i) {
          MergeAccumulator(aggs[i], &to[i], std::move(from[i]));
        }
      }
    }
  }

  const int workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  int deposited_ = 0;
  bool merge_done_ = false;
  Status status_;
  std::vector<GroupTable*> partials_;
  GroupTable merged_;
};

class HashAggregateOp : public PhysicalOp {
 public:
  HashAggregateOp(PhysicalOpPtr child, std::vector<ColumnId> group_cols,
                  std::vector<AggItem> aggs, bool scalar,
                  SharedRegionStatePtr shared, int worker)
      : aggs_(std::move(aggs)),
        scalar_(scalar),
        worker_(worker),
        shared_(std::static_pointer_cast<SharedAggState>(shared)) {
    const std::vector<ColumnId>& in = child->layout();
    for (ColumnId g : group_cols) {
      for (size_t i = 0; i < in.size(); ++i) {
        if (in[i] == g) {
          group_slots_.push_back(static_cast<int>(i));
          break;
        }
      }
      layout_.push_back(g);
    }
    fast_aggs_ = true;
    for (const AggItem& agg : aggs_) {
      layout_.push_back(agg.output);
      arg_evals_.emplace_back(
          agg.arg != nullptr ? Evaluator(agg.arg, in) : Evaluator());
      cargs_.emplace_back(nullptr);
      if (agg.arg != nullptr) {
        cargs_.back() = std::make_unique<ColumnarEvaluator>();
        cargs_.back()->Compile(agg.arg, in);
      }
      // Batch accumulation handles exactly the fold-style aggregates whose
      // per-row updates commute: COUNT/SUM/MIN/MAX without DISTINCT,
      // arguments fully vectorized (so no per-row evaluation errors can
      // reorder). Max1Row stays per-row for its cardinality check.
      const bool fast_func =
          agg.func == AggFunc::kCountStar || agg.func == AggFunc::kCount ||
          agg.func == AggFunc::kSum || agg.func == AggFunc::kMin ||
          agg.func == AggFunc::kMax;
      if (!fast_func || agg.distinct ||
          (agg.arg != nullptr && !cargs_.back()->vectorizable())) {
        fast_aggs_ = false;
      }
      if (agg.distinct) distinct_.resize(aggs_.size());
    }
    columnar_capable_ = true;
    children_.push_back(std::move(child));
  }

  Status OpenImpl(ExecContext* ctx) override {
    table_.Clear(group_slots_.size(), aggs_.size());
    // A scalar aggregate has its one group even over the empty input
    // (section 1.1), where fresh accumulators finalize to count = 0 and
    // NULL for the rest.
    if (scalar_) table_.AddGroup(0);
    for (auto& seen : distinct_) seen.clear();
    emit_pos_ = 0;
    emit_ = &table_;
    emitter_ = true;
    Status drain = DrainInput(ctx);
    if (shared_ == nullptr) {
      ORQ_RETURN_IF_ERROR(drain);
    } else {
      // Parallel: hand this worker's table to the merge barrier (errors
      // ride along so the gang never stalls). Worker 0 emits the merged
      // groups; the rest emit nothing.
      Status status = shared_->Deposit(worker_, drain, &table_, aggs_);
      table_.Clear(group_slots_.size(), aggs_.size());
      if (!status.ok()) return status;
      emitter_ = (worker_ == 0);
      emit_ = &shared_->merged();
    }
    if (emitter_) {
      RecordPeak(static_cast<int64_t>(emit_->size()));
      if (MetricsRegistry* m = metrics()) {
        m->Add(MetricCounter::kHashAggGroups,
               static_cast<int64_t>(emit_->size()));
      }
    }
    return Status::OK();
  }

  Result<bool> NextImpl(ExecContext*, Row* row) override {
    if (!emitter_ || emit_pos_ >= emit_->size()) return false;
    EmitRow(static_cast<uint32_t>(emit_pos_++), row);
    return true;
  }

  Status NextBatchImpl(ExecContext*, RowBatch* out) override {
    if (!emitter_) return Status::OK();
    while (emit_pos_ < emit_->size() && !out->full()) {
      EmitRow(static_cast<uint32_t>(emit_pos_++), &out->PushRow());
    }
    return Status::OK();
  }

  /// Columnar output: group keys and finalized aggregates are appended
  /// straight into owned columns, one capacity-sized window of groups per
  /// call, with no intermediate rows.
  Status NextColumnsImpl(ExecContext*, ColumnBatch* out) override {
    if (!emitter_) return Status::OK();
    const size_t nkeys = group_slots_.size();
    if (emit_pos_ >= emit_->size()) return Status::OK();
    const uint32_t n = static_cast<uint32_t>(std::min(
        emit_->size() - emit_pos_, static_cast<size_t>(out->capacity())));
    out->ResizeCols(layout_.size());
    std::vector<Value>& vals = emit_scratch_;
    for (size_t c = 0; c < layout_.size(); ++c) {
      vals.clear();
      for (uint32_t i = 0; i < n; ++i) {
        const uint32_t g = static_cast<uint32_t>(emit_pos_ + i);
        if (c < nkeys) {
          vals.push_back(emit_->key(g)[c]);
        } else {
          vals.push_back(
              Finalize(aggs_[c - nkeys], emit_->accs(g)[c - nkeys]));
        }
      }
      // Declare the first non-NULL value's type; a later tag mismatch
      // degrades the column to boxed values.
      DataType type = DataType::kInt64;
      for (const Value& v : vals) {
        if (!v.is_null()) {
          type = v.type();
          break;
        }
      }
      ColumnVec& col = out->col(c);
      col.StartBuild(type, n);
      for (const Value& v : vals) col.AppendValue(v);
      col.Seal();
    }
    out->set_num_rows(n);
    emit_pos_ += n;
    return Status::OK();
  }

  void CloseImpl() override {
    table_.Clear(group_slots_.size(), aggs_.size());
    for (auto& seen : distinct_) seen.clear();
    // Merged shared state is released by the exchange's Close; the emit
    // source is re-established on the next Open.
    emit_ = &table_;
  }

  std::string name() const override {
    if (scalar_) return "ScalarAggregate";
    return "HashAggregate";
  }

 private:
  /// One group-constant run of live rows [begin, end) of a column batch.
  struct Range {
    uint32_t begin;
    uint32_t end;
    uint32_t group;
  };

  void EmitRow(uint32_t g, Row* row) const {
    const Value* key = emit_->key(g);
    row->assign(key, key + group_slots_.size());
    const Accumulator* accs = emit_->accs(g);
    for (size_t i = 0; i < aggs_.size(); ++i) {
      row->push_back(Finalize(aggs_[i], accs[i]));
    }
  }

  /// Drains the child into the local group table, then records each
  /// group's probe length.
  Status DrainInput(ExecContext* ctx) {
    ORQ_RETURN_IF_ERROR(children_[0]->Open(ctx));
    Status status = ctx->columnar ? DrainColumnar(ctx) : DrainRows(ctx);
    children_[0]->Close();
    if (!status.ok()) return status;
    if (MetricsRegistry* m = metrics()) table_.ObserveProbeLengths(m);
    return Status::OK();
  }

  /// Batched row drain: the key hash is folded straight from the row's
  /// group slots (RowHash-compatible), and key values are copied only when
  /// a probe inserts.
  Status DrainRows(ExecContext* ctx) {
    RowBatch batch(ctx->batch_size);
    MetricsRegistry* m = metrics();
    const size_t nkeys = group_slots_.size();
    while (true) {
      ORQ_RETURN_IF_ERROR(children_[0]->NextBatch(ctx, &batch));
      if (batch.empty()) break;
      if (m != nullptr) {
        m->Add(MetricCounter::kHashAggInputRows,
               static_cast<int64_t>(batch.size()));
      }
      for (size_t r = 0; r < batch.size(); ++r) {
        const Row& row = batch.row(r);
        size_t hash = 0x9e3779b97f4a7c15ull;
        for (int slot : group_slots_) {
          hash = hash * 1099511628211ull + row[slot].Hash();
        }
        const uint32_t g = table_.FindOrInsert(
            hash,
            [&](const Value* key) {
              for (size_t k = 0; k < nkeys; ++k) {
                if (!key[k].GroupEquals(row[group_slots_[k]])) return false;
              }
              return true;
            },
            [&](std::vector<Value>* keys) {
              for (int slot : group_slots_) keys->push_back(row[slot]);
            });
        ORQ_RETURN_IF_ERROR(AccumulateRow(
            g, [&](size_t i) { return arg_evals_[i].Eval(row, ctx); }));
      }
    }
    return Status::OK();
  }

  /// Columnar drain: group-key hashes are computed column-wise for the
  /// whole batch, and the live rows are segmented into maximal
  /// group-constant ranges, each probed once (no key decode unless a probe
  /// inserts). Clustered inputs (sorted tables, RLE runs) collapse to a
  /// handful of probes per batch; a scalar aggregate is one range. When
  /// every aggregate is batch-foldable, each one then updates all ranges
  /// in one tight loop (AccumulateBatch); otherwise rows accumulate one at
  /// a time, decoding a row once for all non-vectorized arguments.
  Status DrainColumnar(ExecContext* ctx) {
    ColumnBatch batch(ctx->batch_size);
    arg_cols_.assign(aggs_.size(), nullptr);
    Row decode_row;
    MetricsRegistry* m = metrics();
    const size_t nkeys = group_slots_.size();
    while (true) {
      ORQ_RETURN_IF_ERROR(children_[0]->NextColumns(ctx, &batch));
      const uint32_t live = batch.selected();
      if (live == 0) break;
      if (m != nullptr) {
        m->Add(MetricCounter::kHashAggInputRows, static_cast<int64_t>(live));
      }
      for (size_t i = 0; i < aggs_.size(); ++i) {
        arg_cols_[i] = nullptr;
        if (cargs_[i] != nullptr && cargs_[i]->vectorizable()) {
          ORQ_ASSIGN_OR_RETURN(const ColumnVec* c,
                               cargs_[i]->Eval(batch, ctx));
          arg_cols_[i] = c;
        }
      }
      if (nkeys > 0) {
        InitKeyHashes(batch, &hashes_);
        for (int slot : group_slots_) {
          HashCombineColumn(batch, batch.col(slot), &hashes_);
        }
      }
      // The hash-equal prefilter is exact in one direction — group-equal
      // rows always hash equal — so ranges never split a group run.
      ranges_.clear();
      uint32_t j = 0;
      while (j < live) {
        uint32_t j_end = j + 1;
        size_t hash = 0;
        if (nkeys == 0) {
          j_end = live;
        } else {
          hash = hashes_[j];
          while (j_end < live && hashes_[j_end] == hash &&
                 SameGroup(batch, batch.RowAt(j), batch.RowAt(j_end))) {
            ++j_end;
          }
        }
        const uint32_t r = batch.RowAt(j);
        const uint32_t g = table_.FindOrInsert(
            hash,
            [&](const Value* key) {
              for (size_t k = 0; k < nkeys; ++k) {
                if (!GroupEqualsRefs(LoadValue(key[k]),
                                     LoadElem(batch.col(group_slots_[k]),
                                              r))) {
                  return false;
                }
              }
              return true;
            },
            [&](std::vector<Value>* keys) {
              for (int slot : group_slots_) {
                keys->push_back(batch.col(slot).GetValue(r));
              }
            });
        if (fast_aggs_) {
          ranges_.push_back(Range{j, j_end, g});
        } else {
          for (uint32_t jj = j; jj < j_end; ++jj) {
            // Vectorized arguments read their column; the rest share one
            // decode of the row.
            const uint32_t rr = batch.RowAt(jj);
            bool decoded = false;
            ORQ_RETURN_IF_ERROR(
                AccumulateRow(g, [&](size_t i) -> Result<Value> {
                  if (arg_cols_[i] != nullptr) {
                    return arg_cols_[i]->GetValue(rr);
                  }
                  if (!decoded) {
                    batch.DecodeRow(rr, &decode_row);
                    decoded = true;
                  }
                  return arg_evals_[i].Eval(decode_row, ctx);
                }));
          }
        }
        j = j_end;
      }
      if (fast_aggs_) AccumulateBatch(batch);
    }
    return Status::OK();
  }

  /// Group equality of two live rows, column-wise. Dictionary columns
  /// compare codes (entries are distinct by construction); everything else
  /// goes through the shared ref comparison, so NULLs and cross-rep
  /// numerics group exactly like Value::GroupEquals.
  bool SameGroup(const ColumnBatch& batch, uint32_t a, uint32_t b) const {
    for (int slot : group_slots_) {
      const ColumnVec& c = batch.col(slot);
      if (c.enc() == ColumnEnc::kDict) {
        const bool na = c.IsNull(a);
        if (na != c.IsNull(b)) return false;
        if (!na && c.codes()[a] != c.codes()[b]) return false;
        continue;
      }
      if (!GroupEqualsRefs(LoadElem(c, a), LoadElem(c, b))) return false;
    }
    return true;
  }

  /// Vectorized accumulation of one whole batch whose group ranges are in
  /// ranges_. Only runs when fast_aggs_ (COUNT/SUM/MIN/MAX, no DISTINCT,
  /// vectorized args), so no per-row error site is skipped. The ranges
  /// expand into per-row group ids, and each aggregate updates the batch
  /// in one loop on typed column reads; an RLE SUM instead adds one
  /// product per run and range. Summation stays order-compatible with the
  /// per-row path: int64 sums are associative mod 2^64, and double sums
  /// go through DoubleDouble, whose rounded result does not depend on the
  /// order.
  void AccumulateBatch(const ColumnBatch& batch) {
    const uint32_t live = batch.selected();
    gids_.resize(live);
    for (const Range& range : ranges_) {
      std::fill(gids_.begin() + range.begin, gids_.begin() + range.end,
                range.group);
    }
    const uint32_t* gid = gids_.data();
    const size_t stride = aggs_.size();
    for (size_t i = 0; i < aggs_.size(); ++i) {
      const AggItem& agg = aggs_[i];
      Accumulator* base = table_.accs(0) + i;
      auto acc = [&](uint32_t j) -> Accumulator& {
        return base[gid[j] * stride];
      };
      if (agg.func == AggFunc::kCountStar) {
        for (uint32_t j = 0; j < live; ++j) ++acc(j).count;
        continue;
      }
      const ColumnVec& col = *arg_cols_[i];
      switch (agg.func) {
        case AggFunc::kCount:
          for (uint32_t j = 0; j < live; ++j) {
            if (!col.has_nulls() || !col.IsNull(batch.RowAt(j))) {
              ++acc(j).non_null;
            }
          }
          break;
        case AggFunc::kSum:
          if (col.enc() == ColumnEnc::kRle && !batch.has_selection() &&
              (col.rep() == ColumnRep::kInts ||
               col.rep() == ColumnRep::kDoubles)) {
            for (const Range& range : ranges_) {
              AccumulateRleSum(&base[range.group * stride], col, range.begin,
                               range.end);
            }
          } else if (col.rep() == ColumnRep::kDoubles) {
            for (uint32_t j = 0; j < live; ++j) {
              const uint32_t r = batch.RowAt(j);
              if (col.IsNull(r)) continue;
              Accumulator& a = acc(j);
              a.sum_double.Add(col.DoubleAt(r));
              a.sum_is_double = true;
              ++a.non_null;
            }
          } else if (col.rep() == ColumnRep::kInts) {
            for (uint32_t j = 0; j < live; ++j) {
              const uint32_t r = batch.RowAt(j);
              if (col.IsNull(r)) continue;
              Accumulator& a = acc(j);
              a.AddInt(col.IntAt(r));
              ++a.non_null;
            }
          } else {
            // Boxed values and strings keep the row path's Value semantics.
            for (uint32_t j = 0; j < live; ++j) {
              const Value v = col.GetValue(batch.RowAt(j));
              if (v.is_null()) continue;
              Accumulator& a = acc(j);
              ++a.non_null;
              a.AddSum(v);
            }
          }
          break;
        case AggFunc::kMin:
        case AggFunc::kMax: {
          const int better = agg.func == AggFunc::kMin ? -1 : 1;
          for (uint32_t j = 0; j < live; ++j) {
            const uint32_t r = batch.RowAt(j);
            if (col.IsNull(r)) continue;
            Accumulator& a = acc(j);
            ++a.non_null;
            if (!a.has_value ||
                TotalCompareRefs(LoadElem(col, r), LoadValue(a.extreme)) *
                        better > 0) {
              a.extreme = col.GetValue(r);
              a.has_value = true;
            }
          }
          break;
        }
        default:
          break;
      }
    }
  }

  /// SUM over a contiguous row range of an RLE column: per overlapped run,
  /// one multiply replaces run-length additions. Both are exact — the int
  /// path reduces mod 2^64 like repeated addition, and the double product
  /// keeps its rounding error in the DoubleDouble's low word.
  static void AccumulateRleSum(Accumulator* acc, const ColumnVec& col,
                               uint32_t r0, uint32_t r1) {
    uint32_t r = r0;
    const bool ints = col.rep() == ColumnRep::kInts;
    while (r < r1) {
      const uint32_t run = col.RunOf(r);
      const uint32_t end = std::min(col.RunEndRow(run), r1);
      const uint32_t n = end - r;
      if (col.run_nulls() == nullptr || col.run_nulls()[run] == 0) {
        acc->non_null += n;
        if (ints) {
          acc->AddInt(static_cast<int64_t>(
              static_cast<uint64_t>(n) *
              static_cast<uint64_t>(col.ints()[run])));
        } else {
          acc->sum_is_double = true;
          acc->sum_double.AddProduct(col.doubles()[run],
                                     static_cast<double>(n));
        }
      }
      r = end;
    }
  }

  /// Per-row update of every aggregate of group g, the path that keeps
  /// the row engine's error order: the Max1Row cardinality check precedes
  /// evaluation, and `arg(i)` evaluates aggregate i's argument only when
  /// it is needed.
  template <typename ArgFn>
  Status AccumulateRow(uint32_t g, const ArgFn& arg) {
    for (size_t i = 0; i < aggs_.size(); ++i) {
      const AggItem& agg = aggs_[i];
      Accumulator& acc = table_.accs(g)[i];
      ++acc.count;
      if (agg.func == AggFunc::kMax1Row && acc.count > 1) {
        return Status::CardinalityViolation(
            "scalar subquery returned more than one row");
      }
      if (agg.func == AggFunc::kCountStar) continue;
      ORQ_ASSIGN_OR_RETURN(Value v, arg(i));
      if (agg.func == AggFunc::kMax1Row) {
        acc.extreme = std::move(v);
        acc.has_value = true;
        continue;
      }
      if (v.is_null()) continue;
      if (agg.distinct &&
          !distinct_[i].insert(Row{Value::Int64(g), v}).second) {
        continue;
      }
      ++acc.non_null;
      switch (agg.func) {
        case AggFunc::kCount:
          break;
        case AggFunc::kSum:
          acc.AddSum(v);
          break;
        case AggFunc::kMin:
          if (!acc.has_value || v.TotalCompare(acc.extreme) < 0) {
            acc.extreme = std::move(v);
            acc.has_value = true;
          }
          break;
        case AggFunc::kMax:
          if (!acc.has_value || v.TotalCompare(acc.extreme) > 0) {
            acc.extreme = std::move(v);
            acc.has_value = true;
          }
          break;
        default:
          break;
      }
    }
    return Status::OK();
  }

  static Value Finalize(const AggItem& agg, const Accumulator& acc) {
    switch (agg.func) {
      case AggFunc::kCountStar:
        return Value::Int64(acc.count);
      case AggFunc::kCount:
        return Value::Int64(acc.non_null);
      case AggFunc::kSum:
        if (acc.non_null == 0) return Value::Null();
        if (acc.sum_is_double) {
          DoubleDouble sum = acc.sum_double;
          sum.AddInt(acc.sum_int);
          return Value::Double(sum.Round());
        }
        return Value::Int64(acc.sum_int);
      case AggFunc::kMin:
      case AggFunc::kMax:
      case AggFunc::kMax1Row:
        return acc.has_value ? acc.extreme : Value::Null();
    }
    return Value::Null();
  }

  std::vector<AggItem> aggs_;
  bool scalar_;
  /// True when every aggregate is batch-foldable (see the constructor):
  /// the columnar drain then updates accumulators one aggregate at a time
  /// over whole batches instead of one row at a time.
  bool fast_aggs_ = false;
  int worker_;
  std::shared_ptr<SharedAggState> shared_;
  std::vector<int> group_slots_;
  std::vector<Evaluator> arg_evals_;
  /// Columnar argument evaluators, index-aligned with arg_evals_ (null for
  /// count(*)); consulted only on the columnar drain.
  std::vector<std::unique_ptr<ColumnarEvaluator>> cargs_;
  /// The local groups and their accumulators, in insertion order.
  GroupTable table_;
  /// DISTINCT side table, index-aligned with aggs_ and empty unless some
  /// aggregate is DISTINCT: the (group id, value) pairs seen so far.
  std::vector<std::unordered_set<Row, RowHash, RowGroupEq>> distinct_;
  /// Columnar drain scratch, kept across batches and re-opens: argument
  /// columns, key hashes, group ranges and per-row group ids of one batch.
  std::vector<const ColumnVec*> arg_cols_;
  std::vector<size_t> hashes_;
  std::vector<Range> ranges_;
  std::vector<uint32_t> gids_;
  /// Emission source: the local table (serial) or the shared merged table
  /// (parallel, worker 0). Non-emitters produce no rows.
  bool emitter_ = true;
  const GroupTable* emit_ = &table_;
  size_t emit_pos_ = 0;
  std::vector<Value> emit_scratch_;  // one output column (NextColumnsImpl)
};

}  // namespace

PhysicalOpPtr MakeHashAggregateOp(PhysicalOpPtr child,
                                  std::vector<ColumnId> group_cols,
                                  std::vector<AggItem> aggs, bool scalar,
                                  SharedRegionStatePtr shared, int worker) {
  return std::make_unique<HashAggregateOp>(std::move(child),
                                           std::move(group_cols),
                                           std::move(aggs), scalar,
                                           std::move(shared), worker);
}

SharedRegionStatePtr MakeSharedAggState(int workers) {
  return std::make_shared<SharedAggState>(workers);
}

}  // namespace orq
