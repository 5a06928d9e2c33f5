#ifndef ORQ_OBS_JSON_H_
#define ORQ_OBS_JSON_H_

#include <string>
#include <utility>
#include <vector>

#include "obs/report.h"
#include "obs/trace.h"

namespace orq {

struct QueryProfile;
class MetricsRegistry;

/// Appends `text` as a JSON string literal (quotes + escapes) to `out`.
void AppendJsonString(const std::string& text, std::string* out);

/// Appends an object member's `"key":` to `out`, preceded by a comma
/// unless it is the object's first member (`*first` tracks that). The
/// caller appends the value. The one field writer of every JSON emitter.
void AppendField(const char* key, std::string* out, bool* first);

/// Machine-readable forms of the observability artifacts. Schema documented
/// in DESIGN.md ("Observability" section); stable field names so external
/// tooling (benchmark result pipelines) can rely on them.
std::string PlanStatsToJson(const PlanStatsNode& root);
std::string TraceToJson(const TraceLog& trace);

/// One self-contained object combining both, plus query identification —
/// the per-benchmark record bench/bench_util.h emits as a JSON line. When
/// non-null, `profile` and `metrics` add "profile" and "metrics" fields
/// (ProfileToJson / MetricsToJson schemas).
std::string AnalyzedToJson(const std::string& label, const std::string& sql,
                           int64_t result_rows, int64_t rows_produced,
                           const PlanStatsNode& plan, const TraceLog& trace,
                           const QueryProfile* profile = nullptr,
                           const MetricsRegistry* metrics = nullptr,
                           const std::string& query_id = "");

/// Strict JSON well-formedness check (objects, arrays, strings, numbers,
/// literals; rejects trailing garbage). Powers the bench_smoke ctest that
/// keeps the metrics pipeline honest, and needs no third-party dependency.
bool ValidateJson(const std::string& text, std::string* error);

/// Parsed JSON document. Numbers are doubles (integral fields round-trip
/// exactly up to 2^53, far beyond anything the emitters produce); object
/// members keep insertion order. \u escapes decode to UTF-8 (BMP only —
/// surrogate pairs are not combined, which none of our emitters produce).
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool bool_value = false;
  double number = 0.0;
  std::string string_value;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return type == Type::kNull; }
  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_string() const { return type == Type::kString; }
  bool is_number() const { return type == Type::kNumber; }

  /// First member named `key`, or nullptr (also for non-objects).
  const JsonValue* Find(const std::string& key) const;
  /// Find + number extraction; `fallback` for missing/non-number members.
  double NumberOr(const std::string& key, double fallback) const;
  /// Find + string extraction; `fallback` for missing/non-string members.
  std::string StringOr(const std::string& key,
                       const std::string& fallback) const;
};

/// Parses `text` into a DOM, with the same grammar (and error strings) as
/// ValidateJson. Returns false and sets `error` on malformed input.
bool ParseJson(const std::string& text, JsonValue* out, std::string* error);

}  // namespace orq

#endif  // ORQ_OBS_JSON_H_
