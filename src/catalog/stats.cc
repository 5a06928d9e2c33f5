#include "catalog/stats.h"

#include <cstdint>

#include "catalog/table.h"

namespace orq {

namespace {

/// Set of Value::Hash results for distinct counting: open addressing with
/// linear probing over a flat power-of-two array kept at most half full.
/// Zero marks an empty slot, so a zero hash is tracked by a flag instead.
class HashCountSet {
 public:
  void Insert(size_t hash) {
    if (hash == 0) {
      has_zero_ = true;
      return;
    }
    if (2 * (used_ + 1) > slots_.size()) Grow();
    if (Place(hash)) ++used_;
  }

  size_t size() const { return used_ + (has_zero_ ? 1 : 0); }

 private:
  /// Value::Hash of an int64 is the integer itself under libstdc++, so
  /// slot positions come from a finalizer mix rather than the low bits.
  static size_t Mix(size_t h) {
    uint64_t x = h;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return static_cast<size_t>(x);
  }

  /// True when `hash` was not present yet.
  bool Place(size_t hash) {
    const size_t mask = slots_.size() - 1;
    for (size_t i = Mix(hash) & mask;; i = (i + 1) & mask) {
      if (slots_[i] == hash) return false;
      if (slots_[i] == 0) {
        slots_[i] = hash;
        return true;
      }
    }
  }

  void Grow() {
    std::vector<size_t> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : 2 * old.size(), 0);
    for (size_t hash : old) {
      if (hash != 0) Place(hash);
    }
  }

  std::vector<size_t> slots_;
  size_t used_ = 0;
  bool has_zero_ = false;
};

/// Running statistics of one column; min/max point into the table's rows
/// and are copied once at the end.
struct ColumnAccum {
  HashCountSet hashes;
  size_t nulls = 0;
  const Value* min = nullptr;
  const Value* max = nullptr;
};

}  // namespace

TableStats ComputeStats(const Table& table) {
  TableStats stats;
  const size_t width = table.num_columns();
  stats.row_count = static_cast<double>(table.num_rows());
  stats.columns.resize(width);
  // One row-major pass: every row is touched once, whatever the width.
  std::vector<ColumnAccum> accums(width);
  for (const Row& row : table.rows()) {
    for (size_t c = 0; c < width; ++c) {
      const Value& v = row[c];
      ColumnAccum& acc = accums[c];
      if (v.is_null()) {
        ++acc.nulls;
        continue;
      }
      acc.hashes.Insert(v.Hash());
      if (acc.min == nullptr) {
        acc.min = &v;
        acc.max = &v;
      } else {
        if (v.TotalCompare(*acc.min) < 0) acc.min = &v;
        if (v.TotalCompare(*acc.max) > 0) acc.max = &v;
      }
    }
  }
  for (size_t c = 0; c < width; ++c) {
    ColumnStats& cs = stats.columns[c];
    const ColumnAccum& acc = accums[c];
    if (acc.min != nullptr) {
      cs.min_value = *acc.min;
      cs.max_value = *acc.max;
    }
    const size_t distinct = acc.hashes.size();
    cs.distinct_count = distinct == 0 ? 1.0 : static_cast<double>(distinct);
    cs.null_fraction = table.num_rows() == 0
                           ? 0.0
                           : static_cast<double>(acc.nulls) / table.num_rows();
  }
  return stats;
}

}  // namespace orq
