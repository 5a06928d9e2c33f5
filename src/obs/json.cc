#include "obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "obs/metrics.h"
#include "obs/profile.h"

namespace orq {

void AppendJsonString(const std::string& text, std::string* out) {
  out->push_back('"');
  for (char c : text) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendField(const char* key, std::string* out, bool* first) {
  if (!*first) out->push_back(',');
  *first = false;
  AppendJsonString(key, out);
  out->push_back(':');
}

namespace {

void AppendNumber(double v, std::string* out) {
  if (!std::isfinite(v)) {
    out->append("null");
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out->append(buf);
}

void PlanStatsRec(const PlanStatsNode& node, std::string* out) {
  out->push_back('{');
  bool first = true;
  AppendField("op", out, &first);
  AppendJsonString(node.name, out);
  AppendField("columns", out, &first);
  AppendJsonString(node.columns, out);
  AppendField("actual_rows", out, &first);
  out->append(std::to_string(node.stats.rows_out));
  AppendField("est_rows", out, &first);
  AppendNumber(node.est_rows, out);
  AppendField("est_cost", out, &first);
  AppendNumber(node.est_cost, out);
  AppendField("open_calls", out, &first);
  out->append(std::to_string(node.stats.open_calls));
  AppendField("next_calls", out, &first);
  out->append(std::to_string(node.stats.next_calls));
  AppendField("close_calls", out, &first);
  out->append(std::to_string(node.stats.close_calls));
  AppendField("wall_nanos", out, &first);
  out->append(std::to_string(node.stats.wall_nanos));
  AppendField("self_wall_nanos", out, &first);
  out->append(std::to_string(node.self_wall_nanos));
  AppendField("peak_cardinality", out, &first);
  out->append(std::to_string(node.stats.peak_cardinality));
  AppendField("batch_slots", out, &first);
  out->append(std::to_string(node.stats.batch_slots));
  AppendField("column_batches", out, &first);
  out->append(std::to_string(node.stats.column_batches));
  AppendField("children", out, &first);
  out->push_back('[');
  for (size_t i = 0; i < node.children.size(); ++i) {
    if (i > 0) out->push_back(',');
    PlanStatsRec(node.children[i], out);
  }
  out->push_back(']');
  out->push_back('}');
}

void TraceRec(const TraceLog& trace, std::string* out) {
  out->push_back('[');
  for (size_t i = 0; i < trace.events().size(); ++i) {
    const TraceEvent& event = trace.events()[i];
    if (i > 0) out->push_back(',');
    out->push_back('{');
    bool first = true;
    AppendField("stage", out, &first);
    AppendJsonString(TraceStageName(event.stage), out);
    AppendField("kind", out, &first);
    AppendJsonString(TraceKindName(event.kind), out);
    AppendField("rule", out, &first);
    AppendJsonString(event.rule, out);
    AppendField("nodes_before", out, &first);
    out->append(std::to_string(event.nodes_before));
    AppendField("nodes_after", out, &first);
    out->append(std::to_string(event.nodes_after));
    AppendField("cost_before", out, &first);
    AppendNumber(event.cost_before, out);
    AppendField("cost_after", out, &first);
    AppendNumber(event.cost_after, out);
    AppendField("wall_nanos", out, &first);
    out->append(std::to_string(event.wall_nanos));
    out->push_back('}');
  }
  out->push_back(']');
}

}  // namespace

std::string PlanStatsToJson(const PlanStatsNode& root) {
  std::string out;
  PlanStatsRec(root, &out);
  return out;
}

std::string TraceToJson(const TraceLog& trace) {
  std::string out;
  TraceRec(trace, &out);
  return out;
}

std::string AnalyzedToJson(const std::string& label, const std::string& sql,
                           int64_t result_rows, int64_t rows_produced,
                           const PlanStatsNode& plan, const TraceLog& trace,
                           const QueryProfile* profile,
                           const MetricsRegistry* metrics,
                           const std::string& query_id) {
  std::string out;
  out.push_back('{');
  bool first = true;
  AppendField("label", &out, &first);
  AppendJsonString(label, &out);
  if (!query_id.empty()) {
    AppendField("query_id", &out, &first);
    AppendJsonString(query_id, &out);
  }
  AppendField("sql", &out, &first);
  AppendJsonString(sql, &out);
  AppendField("result_rows", &out, &first);
  out.append(std::to_string(result_rows));
  AppendField("rows_produced", &out, &first);
  out.append(std::to_string(rows_produced));
  if (profile != nullptr) {
    AppendField("profile", &out, &first);
    out.append(ProfileToJson(*profile));
  }
  if (metrics != nullptr) {
    AppendField("metrics", &out, &first);
    out.append(MetricsToJson(*metrics));
  }
  AppendField("plan", &out, &first);
  PlanStatsRec(plan, &out);
  AppendField("trace", &out, &first);
  TraceRec(trace, &out);
  out.push_back('}');
  return out;
}

namespace {

/// Recursive-descent JSON parser. With a null destination it only checks
/// well-formedness (ValidateJson); with a JsonValue it builds the DOM —
/// one grammar, so the two entry points cannot drift apart.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* dest, std::string* error) {
    SkipSpace();
    if (!ParseValue(dest, error)) return false;
    SkipSpace();
    if (pos_ != text_.size()) {
      *error = "trailing characters at offset " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  bool Fail(const std::string& what, std::string* error) {
    *error = what + " at offset " + std::to_string(pos_);
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(const char* word, std::string* error) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= text_.size() || text_[pos_] != *p) {
        return Fail("invalid literal", error);
      }
    }
    return true;
  }

  bool ParseValue(JsonValue* dest, std::string* error) {
    if (pos_ >= text_.size()) return Fail("unexpected end", error);
    switch (text_[pos_]) {
      case '{': return ParseObject(dest, error);
      case '[': return ParseArray(dest, error);
      case '"': {
        std::string decoded;
        if (!ParseString(dest != nullptr ? &decoded : nullptr, error)) {
          return false;
        }
        if (dest != nullptr) {
          dest->type = JsonValue::Type::kString;
          dest->string_value = std::move(decoded);
        }
        return true;
      }
      case 't':
        if (!Literal("true", error)) return false;
        if (dest != nullptr) {
          dest->type = JsonValue::Type::kBool;
          dest->bool_value = true;
        }
        return true;
      case 'f':
        if (!Literal("false", error)) return false;
        if (dest != nullptr) {
          dest->type = JsonValue::Type::kBool;
          dest->bool_value = false;
        }
        return true;
      case 'n':
        if (!Literal("null", error)) return false;
        if (dest != nullptr) dest->type = JsonValue::Type::kNull;
        return true;
      default: return ParseNumber(dest, error);
    }
  }

  bool ParseObject(JsonValue* dest, std::string* error) {
    if (dest != nullptr) dest->type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key", error);
      }
      std::string key;
      if (!ParseString(dest != nullptr ? &key : nullptr, error)) return false;
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':'", error);
      }
      ++pos_;
      SkipSpace();
      JsonValue* member = nullptr;
      if (dest != nullptr) {
        dest->object.emplace_back(std::move(key), JsonValue());
        member = &dest->object.back().second;
      }
      if (!ParseValue(member, error)) return false;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}'", error);
    }
  }

  bool ParseArray(JsonValue* dest, std::string* error) {
    if (dest != nullptr) dest->type = JsonValue::Type::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      JsonValue* element = nullptr;
      if (dest != nullptr) {
        dest->array.emplace_back();
        element = &dest->array.back();
      }
      if (!ParseValue(element, error)) return false;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']'", error);
    }
  }

  static void AppendUtf8(unsigned cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool ParseString(std::string* dest, std::string* error) {
    ++pos_;  // '"'
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character", error);
      }
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return Fail("dangling escape", error);
        char esc = text_[pos_];
        if (esc == 'u') {
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return Fail("invalid \\u escape", error);
            }
            const char h = text_[pos_];
            cp = cp * 16 +
                 static_cast<unsigned>(
                     h <= '9' ? h - '0'
                              : (h | 0x20) - 'a' + 10);
          }
          if (dest != nullptr) AppendUtf8(cp, dest);
        } else if (esc == '"' || esc == '\\' || esc == '/') {
          if (dest != nullptr) dest->push_back(esc);
        } else if (esc == 'b') {
          if (dest != nullptr) dest->push_back('\b');
        } else if (esc == 'f') {
          if (dest != nullptr) dest->push_back('\f');
        } else if (esc == 'n') {
          if (dest != nullptr) dest->push_back('\n');
        } else if (esc == 'r') {
          if (dest != nullptr) dest->push_back('\r');
        } else if (esc == 't') {
          if (dest != nullptr) dest->push_back('\t');
        } else {
          return Fail("invalid escape", error);
        }
      } else if (dest != nullptr) {
        dest->push_back(c);
      }
      ++pos_;
    }
    return Fail("unterminated string", error);
  }

  bool ParseNumber(JsonValue* dest, std::string* error) {
    const size_t begin = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() ||
        !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      return Fail("invalid number", error);
    }
    // The integer part is a single 0 or starts with a nonzero digit.
    const bool leading_zero = text_[pos_] == '0';
    ++pos_;
    if (!leading_zero) {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    } else if (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      return Fail("leading zero in number", error);
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Fail("invalid fraction", error);
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Fail("invalid exponent", error);
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (dest != nullptr) {
      dest->type = JsonValue::Type::kNumber;
      dest->number = std::strtod(text_.substr(begin, pos_ - begin).c_str(),
                                 nullptr);
    }
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

double JsonValue::NumberOr(const std::string& key, double fallback) const {
  const JsonValue* value = Find(key);
  return value != nullptr && value->is_number() ? value->number : fallback;
}

std::string JsonValue::StringOr(const std::string& key,
                                const std::string& fallback) const {
  const JsonValue* value = Find(key);
  return value != nullptr && value->is_string() ? value->string_value
                                                : fallback;
}

bool ValidateJson(const std::string& text, std::string* error) {
  std::string local;
  JsonParser parser(text);
  return parser.Parse(nullptr, error != nullptr ? error : &local);
}

bool ParseJson(const std::string& text, JsonValue* out, std::string* error) {
  std::string local;
  *out = JsonValue();
  JsonParser parser(text);
  return parser.Parse(out, error != nullptr ? error : &local);
}

}  // namespace orq
