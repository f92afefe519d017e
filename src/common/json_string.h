// The one JSON string escaper, shared by every JSON writer: the serving
// responses (serve/), the access log and the trace exports (obs/).

#ifndef KPEF_COMMON_JSON_STRING_H_
#define KPEF_COMMON_JSON_STRING_H_

#include <string>
#include <string_view>

namespace kpef {

/// Appends `s` as a quoted, escaped JSON string literal. Bytes >= 0x80
/// are copied as they are, so valid UTF-8 in gives valid UTF-8 out.
void AppendJsonString(std::string_view s, std::string* out);

}  // namespace kpef

#endif  // KPEF_COMMON_JSON_STRING_H_
