#ifndef KANON_SERVE_JSON_H_
#define KANON_SERVE_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "kanon/common/result.h"

namespace kanon {
namespace serve {

/// A small self-contained JSON document model for the kanond wire protocol
/// (docs/serving.md). The service embeds whole CSV tables as JSON strings,
/// so the parser is hardened the same way the CSV/spec parsers are: depth
/// and size limits, full escape handling (including \uXXXX surrogate
/// pairs), and Status errors — never aborts — on malformed input. Object
/// keys keep insertion order so serialized responses are byte-stable.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Deepest accepted nesting; protects the recursive parser's stack.
  static constexpr size_t kMaxDepth = 64;

  Json() : type_(Type::kNull) {}

  static Json Null() { return Json(); }
  static Json Bool(bool value) {
    Json j;
    j.type_ = Type::kBool;
    j.bool_ = value;
    return j;
  }
  static Json Number(double value) {
    Json j;
    j.type_ = Type::kNumber;
    j.number_ = value;
    return j;
  }
  static Json Number(int64_t value) {
    return Number(static_cast<double>(value));
  }
  static Json Str(std::string value) {
    Json j;
    j.type_ = Type::kString;
    j.string_ = std::move(value);
    return j;
  }
  static Json Array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json Object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  /// Parses one complete JSON document (trailing bytes are an error).
  static Result<Json> Parse(const std::string& text);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<Json>& array_items() const { return array_; }
  const std::vector<std::pair<std::string, Json>>& object_items() const {
    return object_;
  }

  /// Object lookup; nullptr when absent or when this is not an object.
  const Json* Find(const std::string& key) const;

  /// Typed object getters with defaults (missing key or wrong type returns
  /// the default) — what the request handlers use for optional params.
  /// GetInt clamps a number outside the int64 range to INT64_MIN/INT64_MAX
  /// and returns the default for NaN.
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& key, int64_t default_value) const;
  double GetDouble(const std::string& key, double default_value) const;
  bool GetBool(const std::string& key, bool default_value) const;

  /// Sets `key` in an object (appends; replaces an existing key in place).
  Json& Set(const std::string& key, Json value);
  /// Appends to an array.
  Json& Push(Json value);

  /// Serializes with the shared encoder (common/json_text.h): integral
  /// numbers below 1e15 print without a decimal point, other doubles with
  /// enough digits to round-trip, NaN and infinities as null; strings
  /// escape control characters, quotes and backslashes and pass UTF-8
  /// bytes through untouched.
  std::string Dump() const;

 private:
  void DumpTo(std::string* out) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

}  // namespace serve
}  // namespace kanon

#endif  // KANON_SERVE_JSON_H_
