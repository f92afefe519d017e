# Writes build_info.cc from build_info.cc.in with the checkout's short git
# hash, suffixed "-dirty" when tracked files differ from HEAD. Runs at
# configure time and again on every build (the kpef_build_info target), so
# the stamp follows new commits and local edits without a re-configure.
# configure_file leaves OUTPUT untouched when its content is unchanged, so
# an unchanged tree recompiles nothing.
#
# Inputs: SOURCE_DIR, INPUT, OUTPUT, KPEF_BUILD_TYPE.

execute_process(
  COMMAND git rev-parse --short HEAD
  WORKING_DIRECTORY "${SOURCE_DIR}"
  OUTPUT_VARIABLE KPEF_GIT_HASH
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET
  RESULT_VARIABLE git_result
)
if(NOT git_result EQUAL 0 OR KPEF_GIT_HASH STREQUAL "")
  set(KPEF_GIT_HASH "unknown")
else()
  # --no-optional-locks: a build must never take the index lock that a
  # concurrent git command in the same checkout may hold.
  execute_process(
    COMMAND git --no-optional-locks status --porcelain --untracked-files=no
    WORKING_DIRECTORY "${SOURCE_DIR}"
    OUTPUT_VARIABLE git_changes
    ERROR_QUIET
    RESULT_VARIABLE git_result
  )
  if(git_result EQUAL 0 AND NOT git_changes STREQUAL "")
    string(APPEND KPEF_GIT_HASH "-dirty")
  endif()
endif()

configure_file("${INPUT}" "${OUTPUT}" @ONLY)
