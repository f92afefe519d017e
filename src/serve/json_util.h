// Minimal dependency-free JSON for the serving boundary: a strict
// recursive-descent parser (full UTF-8 validation, bounded depth, whole
// document must be consumed) and number formatting for response
// rendering. Strings are escaped by common/json_string.h, which obs/
// shares; this unit exists because the server must also *read*
// untrusted JSON.

#ifndef KPEF_SERVE_JSON_UTIL_H_
#define KPEF_SERVE_JSON_UTIL_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json_string.h"

namespace kpef::serve {

/// Parsed JSON document node. A tagged struct rather than std::variant:
/// the recursion is shallow and the accessors stay greppable.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<JsonValue> array_items;
  std::vector<std::pair<std::string, JsonValue>> object_items;

  bool is_object() const { return type == Type::kObject; }
  bool is_string() const { return type == Type::kString; }
  bool is_number() const { return type == Type::kNumber; }

  /// First member with `key` in an object; nullptr otherwise.
  const JsonValue* Find(std::string_view key) const;
};

/// Parses `text` as one complete JSON document. Returns false (with a
/// short reason in `*error`) on: syntax errors, trailing garbage,
/// nesting beyond `max_depth`, invalid UTF-8 anywhere in the input,
/// lone surrogate escapes, or non-finite numbers. Never throws.
bool ParseJson(std::string_view text, JsonValue* out, std::string* error,
               size_t max_depth = 32);

/// True when `text` is well-formed UTF-8 (rejects overlongs, surrogates,
/// and code points above U+10FFFF).
bool IsValidUtf8(std::string_view text);

/// The shared escaper and number formatter, also reachable as
/// serve::AppendJsonString and serve::JsonNumber.
using ::kpef::AppendJsonString;
using ::kpef::JsonNumber;

}  // namespace kpef::serve

#endif  // KPEF_SERVE_JSON_UTIL_H_
