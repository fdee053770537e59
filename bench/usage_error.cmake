# Usage errors end the run cleanly: a bench given a flag it does not know,
# or a value flag without its value, must exit 2 (bench_common.h run_main)
# and name the flag on stderr, not abort with an uncaught exception or run
# with a misread value. Driven by the usage_error* ctest entries.
#
# Usage:
#   cmake -DBENCH=<exe> -DARGS="<bench flags>" -DEXPECT="<stderr text>"
#         -P usage_error.cmake
separate_arguments(bench_args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND ${BENCH} ${bench_args}
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "usage_error: '${ARGS}' exited '${rc}', expected 2")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "usage_error: stderr lacks '${EXPECT}': ${err}")
endif()
message(STATUS "usage_error: '${ARGS}' exited 2 with '${EXPECT}'")
