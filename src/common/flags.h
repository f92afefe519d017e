// Strict `--name value` command-line flags for the kpef binaries.
//
// Parse() splits argv into name/value pairs. Each typed getter then reads
// one flag, so a flag's type, default and range are stated once, at the
// call that reads it. A getter that meets a malformed or out-of-range
// value records the first such error and returns the default. Finish()
// returns that error, or names a flag that no getter read (unknown to the
// command). A binary reads every flag and calls Finish() before it opens
// any file, so bad input exits before anything loads.

#ifndef KPEF_COMMON_FLAGS_H_
#define KPEF_COMMON_FLAGS_H_

#include <charconv>
#include <initializer_list>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <string_view>

#include "common/status.h"

namespace kpef {

class Flags {
 public:
  /// Splits argv[first, argc) into `--name value` pairs. A stray
  /// argument, a flag without a value (at the end of argv, or followed by
  /// an argument starting with "--") and a repeated flag are errors.
  static StatusOr<Flags> Parse(int argc, const char* const* argv, int first);

  /// `--name`'s value, or `fallback` when absent.
  std::string String(std::string_view name, std::string fallback);

  /// `--name`, which must be one of `choices`.
  std::string Choice(std::string_view name, std::string fallback,
                     std::initializer_list<std::string_view> choices);

  /// `--name` as an integer in [min, max].
  template <typename T>
  T Int(std::string_view name, T fallback, T min,
        T max = std::numeric_limits<T>::max()) {
    const std::string* text = Take(name);
    if (text == nullptr) return fallback;
    T value{};
    const char* end = text->data() + text->size();
    const auto [ptr, ec] = std::from_chars(text->data(), end, value);
    if (ec == std::errc() && ptr == end && value >= min && value <= max) {
      return value;
    }
    Reject(name, *text,
           max == std::numeric_limits<T>::max()
               ? "an integer >= " + std::to_string(min)
               : "an integer in [" + std::to_string(min) + ", " +
                     std::to_string(max) + "]");
    return fallback;
  }

  /// `--name` as a finite number >= `min` (> `min` when `exclusive`).
  double Double(std::string_view name, double fallback, double min,
                bool exclusive = false);

  /// The first malformed or out-of-range value a getter met, else the
  /// first flag no getter read, else OK.
  Status Finish() const;

 private:
  /// Marks `name` as read; its value, or nullptr when absent.
  const std::string* Take(std::string_view name);
  void Reject(std::string_view name, const std::string& value,
              const std::string& want);

  std::map<std::string, std::string, std::less<>> values_;
  std::set<std::string, std::less<>> read_;
  Status error_;
};

}  // namespace kpef

#endif  // KPEF_COMMON_FLAGS_H_
