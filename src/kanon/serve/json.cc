#include "kanon/serve/json.h"

#include <cmath>
#include <cstring>

#include "kanon/common/json_text.h"

namespace kanon {
namespace serve {
namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Result<Json> Run() {
    SkipWs();
    Json value;
    KANON_RETURN_NOT_OK(ParseValue(&value, 0));
    SkipWs();
    if (pos_ != s_.size()) {
      return Fail("trailing bytes after JSON document");
    }
    return value;
  }

 private:
  Status Fail(const std::string& what) const {
    return Status::InvalidArgument("json: " + what + " at byte " +
                                   std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  Status ParseValue(Json* out, size_t depth) {
    if (depth > Json::kMaxDepth) return Fail("nesting too deep");
    if (pos_ >= s_.size()) return Fail("unexpected end of input");
    switch (s_[pos_]) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string str;
        KANON_RETURN_NOT_OK(ParseString(&str));
        *out = Json::Str(std::move(str));
        return Status::OK();
      }
      case 't':
        KANON_RETURN_NOT_OK(Literal("true"));
        *out = Json::Bool(true);
        return Status::OK();
      case 'f':
        KANON_RETURN_NOT_OK(Literal("false"));
        *out = Json::Bool(false);
        return Status::OK();
      case 'n':
        KANON_RETURN_NOT_OK(Literal("null"));
        *out = Json::Null();
        return Status::OK();
      default:
        return ParseNumber(out);
    }
  }

  Status Literal(const char* word) {
    const size_t len = std::strlen(word);
    if (s_.compare(pos_, len, word) != 0) return Fail("bad literal");
    pos_ += len;
    return Status::OK();
  }

  Status ParseObject(Json* out, size_t depth) {
    ++pos_;  // '{'
    *out = Json::Object();
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return Status::OK();
    }
    for (;;) {
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_] != '"') {
        return Fail("expected object key");
      }
      std::string key;
      KANON_RETURN_NOT_OK(ParseString(&key));
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_] != ':') return Fail("expected ':'");
      ++pos_;
      SkipWs();
      Json value;
      KANON_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      out->Set(key, std::move(value));
      SkipWs();
      if (pos_ >= s_.size()) return Fail("unterminated object");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return Status::OK();
      }
      return Fail("expected ',' or '}'");
    }
  }

  Status ParseArray(Json* out, size_t depth) {
    ++pos_;  // '['
    *out = Json::Array();
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return Status::OK();
    }
    for (;;) {
      SkipWs();
      Json value;
      KANON_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      out->Push(std::move(value));
      SkipWs();
      if (pos_ >= s_.size()) return Fail("unterminated array");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return Status::OK();
      }
      return Fail("expected ',' or ']'");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (pos_ < s_.size()) {
      const unsigned char c = static_cast<unsigned char>(s_[pos_]);
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return Fail("unterminated escape");
        switch (s_[pos_]) {
          case '"':
            out->push_back('"');
            break;
          case '\\':
            out->push_back('\\');
            break;
          case '/':
            out->push_back('/');
            break;
          case 'b':
            out->push_back('\b');
            break;
          case 'f':
            out->push_back('\f');
            break;
          case 'n':
            out->push_back('\n');
            break;
          case 'r':
            out->push_back('\r');
            break;
          case 't':
            out->push_back('\t');
            break;
          case 'u': {
            unsigned code = 0;
            KANON_RETURN_NOT_OK(ParseHex4(&code));
            // Surrogate pair: a high surrogate must be followed by \uDC00..
            if (code >= 0xD800 && code <= 0xDBFF) {
              if (pos_ + 6 >= s_.size() || s_[pos_ + 1] != '\\' ||
                  s_[pos_ + 2] != 'u') {
                return Fail("unpaired surrogate");
              }
              pos_ += 2;
              unsigned low = 0;
              KANON_RETURN_NOT_OK(ParseHex4(&low));
              if (low < 0xDC00 || low > 0xDFFF) {
                return Fail("bad low surrogate");
              }
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            } else if (code >= 0xDC00 && code <= 0xDFFF) {
              return Fail("unpaired surrogate");
            }
            AppendUtf8(code, out);
            break;
          }
          default:
            return Fail("bad escape");
        }
        ++pos_;
        continue;
      }
      if (c < 0x20) return Fail("raw control character in string");
      out->push_back(static_cast<char>(c));
      ++pos_;
    }
    return Fail("unterminated string");
  }

  /// Reads the 4 hex digits after "\u"; pos_ ends on the last digit.
  Status ParseHex4(unsigned* out) {
    if (pos_ + 4 >= s_.size()) return Fail("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = s_[pos_ + 1 + i];
      value <<= 4;
      if (h >= '0' && h <= '9') {
        value |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        value |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        value |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        return Fail("bad hex digit in \\u escape");
      }
    }
    pos_ += 4;
    *out = value;
    return Status::OK();
  }

  static void AppendUtf8(unsigned code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Status ParseNumber(Json* out) {
    const size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           ((s_[pos_] >= '0' && s_[pos_] <= '9') || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' ||
            s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected a value");
    const std::string text = s_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || !std::isfinite(value)) {
      return Status::InvalidArgument("json: bad number '" + text + "'");
    }
    *out = Json::Number(value);
    return Status::OK();
  }

  const std::string& s_;
  size_t pos_ = 0;
};

}  // namespace

Result<Json> Json::Parse(const std::string& text) {
  return Parser(text).Run();
}

const Json* Json::Find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string Json::GetString(const std::string& key,
                            const std::string& default_value) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->string_value() : default_value;
}

int64_t Json::GetInt(const std::string& key, int64_t default_value) const {
  const Json* v = Find(key);
  if (v == nullptr || !v->is_number()) return default_value;
  // Clamped, never read as missing: a default such as submit's k=5 is
  // valid, so `"k": 1e300` must not quietly become it. The cast is only
  // defined on [-2^63, 2^63).
  const double d = v->number_value();
  if (std::isnan(d)) return default_value;
  if (d < -9223372036854775808.0) return INT64_MIN;
  if (d >= 9223372036854775808.0) return INT64_MAX;
  return static_cast<int64_t>(d);
}

double Json::GetDouble(const std::string& key, double default_value) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->number_value() : default_value;
}

bool Json::GetBool(const std::string& key, bool default_value) const {
  const Json* v = Find(key);
  return (v != nullptr && v->is_bool()) ? v->bool_value() : default_value;
}

Json& Json::Set(const std::string& key, Json value) {
  KANON_CHECK(type_ == Type::kObject, "Json::Set on a non-object");
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  object_.emplace_back(key, std::move(value));
  return *this;
}

Json& Json::Push(Json value) {
  KANON_CHECK(type_ == Type::kArray, "Json::Push on a non-array");
  array_.push_back(std::move(value));
  return *this;
}

void Json::DumpTo(std::string* out) const {
  switch (type_) {
    case Type::kNull:
      out->append("null");
      return;
    case Type::kBool:
      out->append(bool_ ? "true" : "false");
      return;
    case Type::kNumber:
      AppendJsonNumber(out, number_);
      return;
    case Type::kString:
      AppendJsonString(out, string_);
      return;
    case Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Json& item : array_) {
        if (!first) out->push_back(',');
        first = false;
        item.DumpTo(out);
      }
      out->push_back(']');
      return;
    }
    case Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [k, v] : object_) {
        if (!first) out->push_back(',');
        first = false;
        AppendJsonString(out, k);
        out->push_back(':');
        v.DumpTo(out);
      }
      out->push_back('}');
      return;
    }
  }
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(&out);
  return out;
}

}  // namespace serve
}  // namespace kanon
