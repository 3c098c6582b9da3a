#ifndef KANON_COMMON_JSON_TEXT_H_
#define KANON_COMMON_JSON_TEXT_H_

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

namespace kanon {

/// The one JSON text encoder of the library: the kanond wire codec, the
/// metrics and stats snapshots, the JSON-lines log, the trace exporter and
/// the kanon_check report all write strings and numbers through these two
/// functions. Header-only because kanon_telemetry sits below kanon_common
/// and may use only its inline pieces.

/// Appends `text` as a quoted JSON string. Escapes `"`, `\`, the short forms
/// \b \f \n \r \t, and every other byte below 0x20 as \u00xx; all other
/// bytes (UTF-8 included) pass through untouched. One switch per byte: whole
/// CSV tables travel the wire as JSON strings.
inline void AppendJsonString(std::string* out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  out->reserve(out->size() + text.size() + 2);
  out->push_back('"');
  for (const char raw : text) {
    const unsigned char c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (c < 0x20) {
          out->append("\\u00");
          out->push_back(kHex[c >> 4]);
          out->push_back(kHex[c & 0xf]);
        } else {
          out->push_back(raw);
        }
    }
  }
  out->push_back('"');
}

/// Appends `value` as a JSON number: a finite integral value with
/// |value| < 1e15 prints as an integer ("4", not "4.0"), any other finite
/// value with 17 significant digits (round-trips), and NaN or an infinity,
/// which JSON cannot express, as `null`. The range is checked before the
/// integer cast, which is undefined for out-of-range values.
inline void AppendJsonNumber(std::string* out, double value) {
  if (!std::isfinite(value)) {
    out->append("null");
    return;
  }
  char buf[32];
  const int len =
      std::fabs(value) < 1e15 && value == std::trunc(value)
          ? std::snprintf(buf, sizeof(buf), "%lld",
                          static_cast<long long>(value))
          : std::snprintf(buf, sizeof(buf), "%.17g", value);
  out->append(buf, static_cast<size_t>(len));
}

}  // namespace kanon

#endif  // KANON_COMMON_JSON_TEXT_H_
