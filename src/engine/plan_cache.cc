#include "engine/plan_cache.h"

#include <cstring>
#include <unordered_map>

#include "catalog/table.h"

namespace orq {

namespace {

/// Literals worth stripping into parameters. Bool and NULL literals are
/// retained in the template: the normalizer folds them (TRUE predicates,
/// contradiction detection), so stripping them would both fragment the
/// cache key space by one bit and pessimize every cached plan.
bool CacheableLiteral(const ScalarExpr& node) {
  if (node.kind != ScalarKind::kLiteral) return false;
  if (node.literal.is_null()) return false;
  switch (node.type) {
    case DataType::kInt64:
    case DataType::kDouble:
    case DataType::kString:
    case DataType::kDate:
      return true;
    case DataType::kBool:
      return false;
  }
  return false;
}

/// Memoized copy-on-change walk that replaces every scalar node `leaf`
/// maps to a non-null expression; the rest of the tree is rebuilt only
/// where something below it changed. Pointer-memoized: a shared subtree
/// (e.g. BETWEEN's value expression, referenced by both rewritten
/// compares) is visited once and keeps its sharing in the output.
///
/// Payload fields are visited before children, each in declaration order.
/// The walk order *is* the parameter-ordinal order of ParameterizeLiterals,
/// so it must stay deterministic (any fixed order works; SubstituteParams
/// resolves ordinals, not positions).
template <typename Leaf>
class LeafRewriter {
 public:
  explicit LeafRewriter(Leaf leaf) : leaf_(std::move(leaf)) {}

  Result<ScalarExprPtr> Scalar(const ScalarExprPtr& expr) {
    if (expr == nullptr) return ScalarExprPtr(nullptr);
    auto it = scalar_memo_.find(expr.get());
    if (it != scalar_memo_.end()) return it->second;
    ORQ_ASSIGN_OR_RETURN(ScalarExprPtr result, leaf_(*expr));
    if (result == nullptr) {
      std::vector<ScalarExprPtr> children;
      children.reserve(expr->children.size());
      for (const ScalarExprPtr& child : expr->children) {
        ORQ_ASSIGN_OR_RETURN(ScalarExprPtr walked, Scalar(child));
        children.push_back(std::move(walked));
      }
      ORQ_ASSIGN_OR_RETURN(RelExprPtr rel, Rel(expr->rel));
      result = WithChildren(expr, std::move(children));
      if (rel != expr->rel) {
        auto node = std::make_shared<ScalarExpr>(*result);
        node->rel = std::move(rel);
        result = node;
      }
    }
    scalar_memo_.emplace(expr.get(), result);
    return result;
  }

  Result<RelExprPtr> Rel(const RelExprPtr& rel) {
    if (rel == nullptr) return RelExprPtr(nullptr);
    auto it = rel_memo_.find(rel.get());
    if (it != rel_memo_.end()) return it->second;
    RelExpr copy = *rel;
    bool changed = false;
    auto walk = [&](ScalarExprPtr* expr) -> Status {
      ORQ_ASSIGN_OR_RETURN(ScalarExprPtr walked, Scalar(*expr));
      changed = changed || walked != *expr;
      *expr = std::move(walked);
      return Status::OK();
    };
    ORQ_RETURN_IF_ERROR(walk(&copy.predicate));
    for (ProjectItem& item : copy.proj_items) {
      ORQ_RETURN_IF_ERROR(walk(&item.expr));
    }
    for (AggItem& agg : copy.aggs) ORQ_RETURN_IF_ERROR(walk(&agg.arg));
    for (SortKey& key : copy.sort_keys) ORQ_RETURN_IF_ERROR(walk(&key.expr));
    for (RelExprPtr& child : copy.children) {
      ORQ_ASSIGN_OR_RETURN(RelExprPtr walked, Rel(child));
      changed = changed || walked != child;
      child = std::move(walked);
    }
    RelExprPtr result =
        changed ? std::make_shared<RelExpr>(std::move(copy)) : rel;
    rel_memo_.emplace(rel.get(), result);
    return result;
  }

 private:
  Leaf leaf_;
  std::unordered_map<const ScalarExpr*, ScalarExprPtr> scalar_memo_;
  std::unordered_map<const RelExpr*, RelExprPtr> rel_memo_;
};

// ---- Canonical serialization ----
//
// Prefix encoding with explicit terminators; strings are length-prefixed,
// so no input can fake a structural boundary. Every payload field that
// affects compilation or output is written — the string is compared in
// full (not hashed), so the only correctness requirement is injectivity.

void PutInt(int64_t v, std::string* out) {
  *out += std::to_string(v);
  out->push_back(',');
}

void PutStr(const std::string& s, std::string* out) {
  PutInt(static_cast<int64_t>(s.size()), out);
  *out += s;
}

void PutValue(const Value& v, std::string* out) {
  PutInt(static_cast<int64_t>(v.type()), out);
  if (v.is_null()) {
    out->push_back('n');
    return;
  }
  switch (v.type()) {
    case DataType::kBool:
      PutInt(v.bool_value() ? 1 : 0, out);
      break;
    case DataType::kInt64:
      PutInt(v.int64_value(), out);
      break;
    case DataType::kDouble: {
      // Bit-exact: round-tripping through decimal could merge distinct
      // doubles into one key.
      uint64_t bits = 0;
      const double d = v.double_value();
      std::memcpy(&bits, &d, sizeof(bits));
      PutInt(static_cast<int64_t>(bits), out);
      break;
    }
    case DataType::kString:
      PutStr(v.string_value(), out);
      break;
    case DataType::kDate:
      PutInt(v.date_value(), out);
      break;
  }
}

void PutColumns(const std::vector<ColumnId>& cols, std::string* out) {
  PutInt(static_cast<int64_t>(cols.size()), out);
  for (ColumnId id : cols) PutInt(id, out);
}

void PutColumnSet(const ColumnSet& cols, std::string* out) {
  // ColumnSet iterates in sorted id order — deterministic.
  PutInt(static_cast<int64_t>(cols.size()), out);
  for (ColumnId id : cols) PutInt(id, out);
}

void PutRel(const RelExpr& node, std::string* out);

void PutScalar(const ScalarExpr& node, std::string* out) {
  out->push_back('s');
  PutInt(static_cast<int64_t>(node.kind), out);
  PutInt(static_cast<int64_t>(node.type), out);
  switch (node.kind) {
    case ScalarKind::kColumnRef:
    case ScalarKind::kParam:
      PutInt(node.column, out);
      break;
    case ScalarKind::kLiteral:
      PutValue(node.literal, out);
      break;
    case ScalarKind::kCompare:
      PutInt(static_cast<int64_t>(node.cmp), out);
      break;
    case ScalarKind::kArith:
      PutInt(static_cast<int64_t>(node.arith), out);
      break;
    case ScalarKind::kQuantifiedCompare:
      PutInt(static_cast<int64_t>(node.cmp), out);
      PutInt(static_cast<int64_t>(node.quantifier), out);
      break;
    case ScalarKind::kExistsSubquery:
    case ScalarKind::kInSubquery:
      PutInt(node.negated ? 1 : 0, out);
      break;
    default:
      break;
  }
  PutInt(static_cast<int64_t>(node.children.size()), out);
  for (const ScalarExprPtr& child : node.children) PutScalar(*child, out);
  if (node.rel != nullptr) {
    out->push_back('q');
    PutRel(*node.rel, out);
  } else {
    out->push_back('.');
  }
}

void PutOptScalar(const ScalarExprPtr& expr, std::string* out) {
  if (expr == nullptr) {
    out->push_back('.');
  } else {
    PutScalar(*expr, out);
  }
}

void PutRel(const RelExpr& node, std::string* out) {
  out->push_back('r');
  PutInt(static_cast<int64_t>(node.kind), out);
  PutStr(node.table != nullptr ? node.table->name() : std::string(), out);
  PutColumns(node.get_cols, out);
  PutInt(static_cast<int64_t>(node.get_ordinals.size()), out);
  for (int ordinal : node.get_ordinals) PutInt(ordinal, out);
  PutOptScalar(node.predicate, out);
  PutInt(static_cast<int64_t>(node.join_kind), out);
  PutInt(static_cast<int64_t>(node.apply_kind), out);
  PutInt(static_cast<int64_t>(node.proj_items.size()), out);
  for (const ProjectItem& item : node.proj_items) {
    PutInt(item.output, out);
    PutOptScalar(item.expr, out);
  }
  PutColumnSet(node.passthrough, out);
  PutColumnSet(node.group_cols, out);
  PutInt(static_cast<int64_t>(node.aggs.size()), out);
  for (const AggItem& agg : node.aggs) {
    PutInt(static_cast<int64_t>(agg.func), out);
    PutOptScalar(agg.arg, out);
    PutInt(agg.output, out);
    PutInt(agg.distinct ? 1 : 0, out);
  }
  PutInt(node.scalar_agg ? 1 : 0, out);
  PutColumnSet(node.segment_cols, out);
  PutColumns(node.segment_out_cols, out);
  PutColumns(node.out_cols, out);
  PutInt(static_cast<int64_t>(node.input_maps.size()), out);
  for (const std::vector<ColumnId>& map : node.input_maps) {
    PutColumns(map, out);
  }
  PutInt(static_cast<int64_t>(node.sort_keys.size()), out);
  for (const SortKey& key : node.sort_keys) {
    PutOptScalar(key.expr, out);
    PutInt(key.ascending ? 1 : 0, out);
  }
  PutInt(node.limit, out);
  PutInt(static_cast<int64_t>(node.children.size()), out);
  for (const RelExprPtr& child : node.children) PutRel(*child, out);
}

// ---- Parameter substitution ----

Result<Value> CoerceParam(const Value& value, DataType type, int ordinal) {
  if (value.is_null()) return Value::Null(type);
  if (value.type() == type) return value;
  if (value.type() == DataType::kInt64 && type == DataType::kDouble) {
    return Value::Double(static_cast<double>(value.int64_value()));
  }
  if (value.type() == DataType::kString && type == DataType::kDate) {
    std::optional<int32_t> days = ParseDate(value.string_value());
    if (!days.has_value()) {
      return Status::InvalidArgument(
          "parameter $" + std::to_string(ordinal) +
          ": cannot parse '" + value.string_value() + "' as a date");
    }
    return Value::Date(*days);
  }
  return Status::InvalidArgument(
      "parameter $" + std::to_string(ordinal) + " expects " +
      DataTypeName(type) + ", got " + DataTypeName(value.type()));
}

}  // namespace

ParameterizedTree ParameterizeLiterals(const RelExprPtr& root,
                                       int first_ordinal) {
  ParameterizedTree result;
  int next_ordinal = first_ordinal;
  LeafRewriter walker([&](const ScalarExpr& expr) -> Result<ScalarExprPtr> {
    if (!CacheableLiteral(expr)) return ScalarExprPtr(nullptr);
    result.values.push_back(expr.literal);
    result.types.push_back(expr.type);
    return MakeParam(next_ordinal++, expr.type);
  });
  result.root = *walker.Rel(root);
  return result;
}

std::string CanonicalizeTree(const RelExpr& root) {
  std::string out;
  out.reserve(512);
  PutRel(root, &out);
  return out;
}

Result<RelExprPtr> SubstituteParams(const RelExprPtr& root,
                                    const std::vector<Value>& values,
                                    const std::vector<DataType>& types) {
  LeafRewriter walker([&](const ScalarExpr& expr) -> Result<ScalarExprPtr> {
    if (expr.kind != ScalarKind::kParam) return ScalarExprPtr(nullptr);
    const int ordinal = expr.column;
    if (ordinal < 0 || static_cast<size_t>(ordinal) >= values.size()) {
      return Status::InvalidArgument(
          "parameter $" + std::to_string(ordinal) + " has no value (" +
          std::to_string(values.size()) + " provided)");
    }
    ORQ_ASSIGN_OR_RETURN(Value coerced,
                         CoerceParam(values[ordinal], types[ordinal], ordinal));
    return Lit(std::move(coerced));
  });
  return walker.Rel(root);
}

// ---- PlanCache ----

namespace {
std::string CacheKey(const std::string& options_key, const std::string& text) {
  std::string key;
  key.reserve(options_key.size() + 1 + text.size());
  key += options_key;
  key.push_back('\x01');
  key += text;
  return key;
}
}  // namespace

void PlanCache::CountEvictions(int64_t n, MetricsRegistry* metrics) {
  if (n <= 0) return;
  evictions_.fetch_add(n, std::memory_order_relaxed);
  if (metrics != nullptr) {
    metrics->Add(MetricCounter::kPlanCacheEvictions, n);
  }
}

std::shared_ptr<const CachedPlan> PlanCache::LookupText(
    const std::string& sql, const std::string& options_key,
    int64_t catalog_version, std::vector<Value>* auto_values,
    MetricsRegistry* metrics) {
  const std::string key = CacheKey(options_key, sql);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = text_.find(key);
  if (it == text_.end()) return nullptr;
  if (it->second.plan->catalog_version != catalog_version) {
    text_lru_.erase(it->second.lru);
    text_.erase(it);
    CountEvictions(1, metrics);
    return nullptr;
  }
  text_lru_.splice(text_lru_.begin(), text_lru_, it->second.lru);
  if (auto_values != nullptr) *auto_values = it->second.auto_values;
  return it->second.plan;
}

std::shared_ptr<const CachedPlan> PlanCache::LookupCanonical(
    const std::string& canonical, const std::string& options_key,
    int64_t catalog_version, MetricsRegistry* metrics) {
  const std::string key = CacheKey(options_key, canonical);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = canonical_.find(key);
  if (it == canonical_.end()) return nullptr;
  if (it->second.plan->catalog_version != catalog_version) {
    canonical_lru_.erase(it->second.lru);
    canonical_.erase(it);
    CountEvictions(1, metrics);
    return nullptr;
  }
  canonical_lru_.splice(canonical_lru_.begin(), canonical_lru_,
                        it->second.lru);
  return it->second.plan;
}

void PlanCache::Insert(const std::string& sql, const std::string& options_key,
                       std::shared_ptr<const CachedPlan> plan,
                       std::vector<Value> auto_values,
                       MetricsRegistry* metrics) {
  const std::string text_key = CacheKey(options_key, sql);
  const std::string canonical_key = CacheKey(options_key, plan->canonical);
  int64_t evicted = 0;
  std::lock_guard<std::mutex> lock(mu_);
  auto text_it = text_.find(text_key);
  if (text_it != text_.end()) {
    // Racing compile of the same statement, or re-registration after a
    // level-2 hit: refresh in place (the newer plan may carry a newer
    // catalog version).
    text_lru_.splice(text_lru_.begin(), text_lru_, text_it->second.lru);
    text_it->second.plan = plan;
    text_it->second.auto_values = std::move(auto_values);
  } else {
    text_lru_.push_front(text_key);
    text_.emplace(text_key, TextEntry{plan, std::move(auto_values),
                                      text_lru_.begin()});
    while (text_.size() > capacity_) {
      text_.erase(text_lru_.back());
      text_lru_.pop_back();
      ++evicted;
    }
  }
  auto canon_it = canonical_.find(canonical_key);
  if (canon_it != canonical_.end()) {
    canonical_lru_.splice(canonical_lru_.begin(), canonical_lru_,
                          canon_it->second.lru);
    canon_it->second.plan = std::move(plan);
  } else {
    canonical_lru_.push_front(canonical_key);
    canonical_.emplace(canonical_key,
                       CanonicalEntry{std::move(plan),
                                      canonical_lru_.begin()});
    while (canonical_.size() > capacity_) {
      canonical_.erase(canonical_lru_.back());
      canonical_lru_.pop_back();
      ++evicted;
    }
  }
  CountEvictions(evicted, metrics);
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  text_.clear();
  canonical_.clear();
  text_lru_.clear();
  canonical_lru_.clear();
}

size_t PlanCache::text_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return text_.size();
}

size_t PlanCache::canonical_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return canonical_.size();
}

}  // namespace orq
