#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "serve/json_util.h"

namespace servebench {

int64_t SpanLog::Begin(const char* name, int64_t parent,
                       const std::string& request_id, bool alt) {
  if (!enabled_) return -1;
  const double now = NowUs();
  return Add(name, now, now, parent, request_id, alt);
}

void SpanLog::End(int64_t span) {
  if (span < 0) return;
  spans_[static_cast<size_t>(span)].end_us = NowUs();
}

int64_t SpanLog::Add(const char* name, double start_us, double end_us,
                     int64_t parent, const std::string& request_id,
                     bool alt) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, start_us, end_us, parent, request_id, alt});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::map<std::string, double> SpanLog::SelfMsByLayer() const {
  // Children of each span, as clipped intervals; their union is what the
  // parent did not spend itself.
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent < 0 || s.alt) continue;
    const Span& p = spans_[static_cast<size_t>(s.parent)];
    const double lo = std::max(s.start_us, p.start_us);
    const double hi = std::min(s.end_us, p.end_us);
    if (hi > lo) children[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::map<std::string, double> self_ms;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].alt) continue;
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double reach = spans_[i].start_us;
    for (const auto& [lo, hi] : iv) {
      const double from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    const std::string name = spans_[i].name;
    const std::string layer = name.substr(0, name.find('.'));
    self_ms[layer] +=
        std::max(0.0, spans_[i].end_us - spans_[i].start_us - covered) / 1e3;
  }
  return self_ms;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"spans\":[\n", f);
  std::string rid;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    rid.clear();
    kpef::serve::AppendJsonString(s.request_id, &rid);
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"parent\":%lld,\"request_id\":%s,\"alt\":%s}\n",
                 i == 0 ? "" : ",", s.name, s.start_us, s.end_us,
                 static_cast<long long>(s.parent), rid.c_str(),
                 s.alt ? "true" : "false");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace servebench
