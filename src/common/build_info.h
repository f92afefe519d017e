// Build/version stamp, regenerated on every build (build_info.cmake):
// surfaced in /healthz, EngineInfo, the access-log header line, and the
// kpef_serve startup banner so a log segment or a metrics scrape is
// attributable to an exact build.

#ifndef KPEF_COMMON_BUILD_INFO_H_
#define KPEF_COMMON_BUILD_INFO_H_

namespace kpef {

/// Short git hash of the checkout, with "-dirty" appended when tracked
/// files differ from HEAD ("unknown" outside a git tree).
const char* BuildGitHash();

/// CMake build type ("Release", "Debug", ... or "unspecified").
const char* BuildType();

}  // namespace kpef

#endif  // KPEF_COMMON_BUILD_INFO_H_
