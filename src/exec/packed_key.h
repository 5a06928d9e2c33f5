#ifndef ORQ_EXEC_PACKED_KEY_H_
#define ORQ_EXEC_PACKED_KEY_H_

#include <cstddef>
#include <utility>

#include "common/value.h"

namespace orq {

/// A hash-table key with its hash precomputed at insertion time. Buckets
/// are compared hash-first, so the common miss rehashes nothing and the
/// full Value-by-Value comparison only runs on hash collisions.
struct PackedKey {
  Row values;
  size_t hash;

  explicit PackedKey(Row v) : values(std::move(v)), hash(RowHash{}(values)) {}
};

class ColumnBatch;

/// A columnar probe key: one physical row of a ColumnBatch viewed through
/// `num_keys` column slots, with its RowHash-compatible hash precomputed
/// column-wise (see HashCombineColumn in exec/vector_kernels.h). Lets the
/// columnar join paths probe PackedKey tables without decoding the key
/// into a Row unless the probe actually inserts.
struct ColumnKeyRef {
  const ColumnBatch* batch;
  const int* slots;
  size_t num_keys;
  uint32_t row;
  size_t hash;
};

/// Transparent functors (C++20 heterogeneous lookup): probes pass a plain
/// scratch Row (or a ColumnKeyRef) to find(), so a lookup never constructs
/// a PackedKey — and therefore never copies key values — unless it
/// actually inserts.
struct PackedKeyHash {
  using is_transparent = void;
  size_t operator()(const PackedKey& k) const { return k.hash; }
  size_t operator()(const Row& r) const { return RowHash{}(r); }
  size_t operator()(const ColumnKeyRef& r) const { return r.hash; }
};

struct PackedKeyEq {
  using is_transparent = void;
  bool operator()(const PackedKey& a, const PackedKey& b) const {
    return a.hash == b.hash && RowGroupEq{}(a.values, b.values);
  }
  bool operator()(const PackedKey& a, const Row& b) const {
    return RowGroupEq{}(a.values, b);
  }
  bool operator()(const Row& a, const PackedKey& b) const {
    return RowGroupEq{}(a, b.values);
  }
  bool operator()(const PackedKey& a, const ColumnKeyRef& b) const;
  bool operator()(const ColumnKeyRef& a, const PackedKey& b) const {
    return operator()(b, a);
  }
};

}  // namespace orq

#endif  // ORQ_EXEC_PACKED_KEY_H_
