// A fresh directory under $TMPDIR for one test or one test binary.
//
// mkdtemp picks a name no other process holds, so tests that ctest runs
// at once never share a path, and a reused pid never meets a stale
// directory. The destructor removes the directory and everything in it.

#ifndef KPEF_TESTS_SCOPED_TEMP_DIR_H_
#define KPEF_TESTS_SCOPED_TEMP_DIR_H_

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

namespace kpef {

class ScopedTempDir {
 public:
  /// Creates `$TMPDIR/kpef_<tag>_XXXXXX`; aborts if it cannot.
  explicit ScopedTempDir(const std::string& tag) {
    std::string pattern = (std::filesystem::temp_directory_path() /
                           ("kpef_" + tag + "_XXXXXX"))
                              .string();
    if (::mkdtemp(pattern.data()) == nullptr) {
      std::perror(("mkdtemp " + pattern).c_str());
      std::abort();
    }
    path_ = pattern;
  }

  ~ScopedTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }

  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::filesystem::path& path() const { return path_; }

  /// `path() / name` as a string.
  std::string File(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

}  // namespace kpef

#endif  // KPEF_TESTS_SCOPED_TEMP_DIR_H_
