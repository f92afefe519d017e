#include "common/flags.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace kpef {

StatusOr<Flags> Flags::Parse(int argc, const char* const* argv, int first) {
  Flags flags;
  for (int i = first; i < argc; i += 2) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unexpected argument '" + arg + "'");
    }
    if (i + 1 >= argc || std::string_view(argv[i + 1]).rfind("--", 0) == 0) {
      return Status::InvalidArgument("flag " + arg + " needs a value");
    }
    if (!flags.values_.emplace(arg.substr(2), argv[i + 1]).second) {
      return Status::InvalidArgument("flag " + arg + " given twice");
    }
  }
  return flags;
}

std::string Flags::String(std::string_view name, std::string fallback) {
  const std::string* text = Take(name);
  return text == nullptr ? std::move(fallback) : *text;
}

std::string Flags::Choice(std::string_view name, std::string fallback,
                          std::initializer_list<std::string_view> choices) {
  const std::string* text = Take(name);
  if (text == nullptr) return fallback;
  if (std::find(choices.begin(), choices.end(), *text) != choices.end()) {
    return *text;
  }
  std::string want = "one of ";
  for (auto it = choices.begin(); it != choices.end(); ++it) {
    if (it != choices.begin()) want += ", ";
    want += *it;
  }
  Reject(name, *text, want);
  return fallback;
}

double Flags::Double(std::string_view name, double fallback, double min,
                     bool exclusive) {
  const std::string* text = Take(name);
  if (text == nullptr) return fallback;
  double value = 0.0;
  const char* end = text->data() + text->size();
  const auto [ptr, ec] = std::from_chars(text->data(), end, value);
  if (ec == std::errc() && ptr == end && std::isfinite(value) &&
      (exclusive ? value > min : value >= min)) {
    return value;
  }
  char want[64];
  std::snprintf(want, sizeof(want), "a finite number %s %g",
                exclusive ? ">" : ">=", min);
  Reject(name, *text, want);
  return fallback;
}

Status Flags::Finish() const {
  if (!error_.ok()) return error_;
  for (const auto& [name, value] : values_) {
    if (read_.count(name) == 0) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
  }
  return Status::OK();
}

const std::string* Flags::Take(std::string_view name) {
  read_.emplace(name);
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

void Flags::Reject(std::string_view name, const std::string& value,
                   const std::string& want) {
  if (!error_.ok()) return;
  error_ = Status::InvalidArgument("flag --" + std::string(name) +
                                   " must be " + want + ", got '" + value +
                                   "'");
}

}  // namespace kpef
