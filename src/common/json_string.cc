#include "common/json_string.h"

#include <charconv>
#include <cstdio>

namespace kpef {

void AppendJsonString(std::string_view s, std::string* out) {
  out->push_back('"');
  for (const char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\b': out->append("\\b"); break;
      case '\f': out->append("\\f"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", u);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string JsonNumber(double value) {
  if (value == 0.0) return "0";
  char buf[32];
  const std::to_chars_result result =
      std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

}  // namespace kpef
