# Usage errors end the run cleanly: a bench given a flag it does not know
# must exit 2 (bench_common.h run_main) and name the flag on stderr, not
# abort with an uncaught exception. Driven by the usage_error ctest entry.
#
# Usage:
#   cmake -DBENCH=<exe> -DFLAG=<unknown flag> -P usage_error.cmake
execute_process(
  COMMAND ${BENCH} ${FLAG} value
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "usage_error: ${FLAG} exited '${rc}', expected 2")
endif()
string(FIND "${err}" "unknown flag ${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "usage_error: stderr does not name ${FLAG}: ${err}")
endif()
message(STATUS "usage_error: ${FLAG} exited 2 and named the flag")
