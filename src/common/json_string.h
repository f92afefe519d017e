// The one JSON string escaper and the one number formatter, shared by
// every JSON writer (the serving responses in serve/, the access log and
// the trace exports in obs/) and by the Prometheus exporter.

#ifndef KPEF_COMMON_JSON_STRING_H_
#define KPEF_COMMON_JSON_STRING_H_

#include <string>
#include <string_view>

namespace kpef {

/// Appends `s` as a quoted, escaped JSON string literal. Bytes >= 0x80
/// are copied as they are, so valid UTF-8 in gives valid UTF-8 out.
void AppendJsonString(std::string_view s, std::string* out);

/// The shortest decimal text that parses back to exactly `value`
/// (std::to_chars), and "0" for either zero: 0.05 prints "0.05", never
/// "0.050000000000000003".
std::string JsonNumber(double value);

}  // namespace kpef

#endif  // KPEF_COMMON_JSON_STRING_H_
