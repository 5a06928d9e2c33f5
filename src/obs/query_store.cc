#include "obs/query_store.h"

#include <algorithm>
#include <utility>

#include "obs/json.h"

namespace orq {

const char* QueryOutcomeName(QueryOutcome outcome) {
  switch (outcome) {
    case QueryOutcome::kOk: return "ok";
    case QueryOutcome::kError: return "error";
    case QueryOutcome::kCancelled: return "cancelled";
    case QueryOutcome::kDeadline: return "deadline";
    case QueryOutcome::kRejected: return "rejected";
  }
  return "unknown";
}

QueryOutcome OutcomeForStatus(const Status& status) {
  if (status.ok()) return QueryOutcome::kOk;
  switch (status.code()) {
    case StatusCode::kCancelled: return QueryOutcome::kCancelled;
    case StatusCode::kDeadlineExceeded: return QueryOutcome::kDeadline;
    case StatusCode::kUnavailable: return QueryOutcome::kRejected;
    default: return QueryOutcome::kError;
  }
}

QueryStore::QueryStore(size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1) {
  ring_.reserve(capacity_);
}

void QueryStore::Record(QueryRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
  } else {
    ring_[next_] = std::move(record);
  }
  next_ = (next_ + 1) % capacity_;
  ++total_;
}

std::vector<QueryRecord> QueryStore::Tail(size_t limit) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t count = std::min(limit, ring_.size());
  std::vector<QueryRecord> out;
  out.reserve(count);
  // `next_` is one past the most recent record (mod size while filling).
  size_t slot = ring_.size() < capacity_ ? ring_.size() : next_;
  for (size_t i = 0; i < count; ++i) {
    slot = (slot + ring_.size() - 1) % ring_.size();
    out.push_back(ring_[slot]);
  }
  return out;
}

size_t QueryStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

int64_t QueryStore::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

namespace {

const char* CacheOutcomeName(CacheOutcome cache) {
  switch (cache) {
    case CacheOutcome::kOff: return "off";
    case CacheOutcome::kMiss: return "miss";
    case CacheOutcome::kHit: return "hit";
  }
  return "unknown";
}

}  // namespace

std::string QueryRecordJson(const QueryRecord& record) {
  std::string out = "{";
  bool first = true;
  auto string_field = [&](const char* key, const std::string& value) {
    AppendField(key, &out, &first);
    AppendJsonString(value, &out);
  };
  auto int_field = [&](const char* key, int64_t value) {
    AppendField(key, &out, &first);
    out += std::to_string(value);
  };
  string_field("query_id", record.query_id);
  int_field("session", record.session_id);
  string_field("sql", record.sql);
  string_field("fingerprint", record.fingerprint);
  string_field("exec_mode", record.exec_mode);
  string_field("cache", CacheOutcomeName(record.profile.cache));
  string_field("outcome", QueryOutcomeName(record.outcome));
  if (!record.error_message.empty()) {
    string_field("error", record.error_message);
  }
  int_field("submit_nanos", record.submit_nanos);
  int_field("wall_micros", record.wall_micros);
  int_field("result_rows", record.result_rows);
  int_field("rows_produced", record.rows_produced);
  int_field("peak_cardinality", record.peak_cardinality);
  AppendField("profile", &out, &first);
  out += ProfileToJson(record.profile);
  if (record.has_plan) {
    AppendField("plan", &out, &first);
    out += PlanStatsToJson(record.plan);
  }
  if (!record.slow_explain.empty()) {
    string_field("slow_explain", record.slow_explain);
  }
  out.push_back('}');
  return out;
}

std::string QueryHistoryJson(const std::vector<QueryRecord>& records,
                             int64_t total_recorded, size_t capacity) {
  std::string out = "{";
  bool first = true;
  AppendField("total_recorded", &out, &first);
  out += std::to_string(total_recorded);
  AppendField("capacity", &out, &first);
  out += std::to_string(capacity);
  AppendField("returned", &out, &first);
  out += std::to_string(records.size());
  AppendField("queries", &out, &first);
  out.push_back('[');
  for (size_t i = 0; i < records.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += QueryRecordJson(records[i]);
  }
  out += "]}";
  return out;
}

int64_t MaxPeakCardinality(const PlanStatsNode& node) {
  int64_t peak = node.stats.peak_cardinality;
  for (const PlanStatsNode& child : node.children) {
    peak = std::max(peak, MaxPeakCardinality(child));
  }
  return peak;
}

std::string FingerprintHex(const std::string& data) {
  uint64_t hash = 14695981039346656037ull;  // FNV-1a 64 offset basis
  for (unsigned char c : data) {
    hash ^= c;
    hash *= 1099511628211ull;  // FNV-1a 64 prime
  }
  static const char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kHex[hash & 0xf];
    hash >>= 4;
  }
  return out;
}

}  // namespace orq
