# Thread-count invariance through the artifact store: the same tiny bench
# run at --threads 1 and at --threads 4, each into its own cold --store,
# must leave the same object names with the same bytes and the same
# manifest metrics.counters (DESIGN.md §6: counters are incremented per
# unit of work, never per thread). .drv sidecars are compared with their
# observational registered-at line dropped.
# Driven by the ConcurrencyStoreThreadInvariance ctest entry.
#
# Usage:
#   cmake -DBENCH=<exe> -DNAME=<manifest name> -DOUT_DIR=<dir>
#         -DARGS="<bench flags>" -P thread_invariance.cmake
separate_arguments(bench_args UNIX_COMMAND "${ARGS}")
file(REMOVE_RECURSE "${OUT_DIR}")

foreach(threads 1 4)
  set(run_dir "${OUT_DIR}/t${threads}")
  file(MAKE_DIRECTORY "${run_dir}")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env CON_ARTIFACTS_DIR=${run_dir}
            ${BENCH} ${bench_args} --threads ${threads}
            --store ${run_dir}/store --manifest
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "thread_invariance: --threads ${threads} exited ${rc}")
  endif()

  file(GLOB objects RELATIVE "${run_dir}/store/objects"
       "${run_dir}/store/objects/*")
  list(SORT objects)
  set(snapshot "")
  foreach(obj ${objects})
    file(READ "${run_dir}/store/objects/${obj}" content HEX)
    if(obj MATCHES "\\.drv$")
      file(READ "${run_dir}/store/objects/${obj}" content)
      string(REGEX REPLACE "registered-at [^\n]*\n" "" content "${content}")
    endif()
    string(SHA256 obj_hash "${content}")
    string(APPEND snapshot "${obj_hash}  ${obj}\n")
  endforeach()
  if(snapshot STREQUAL "")
    message(FATAL_ERROR "thread_invariance: --threads ${threads} left the "
                        "store empty")
  endif()
  file(WRITE "${OUT_DIR}/t${threads}.sha256" "${snapshot}")

  file(READ "${run_dir}/${NAME}_manifest.json" manifest)
  string(JSON counters_t${threads} GET "${manifest}" metrics counters)
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${OUT_DIR}/t1.sha256 ${OUT_DIR}/t4.sha256
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "thread_invariance: --threads 1 and --threads 4 "
                      "stores differ (see ${OUT_DIR}/t*.sha256)")
endif()

string(JSON n LENGTH "${counters_t1}")
if(n EQUAL 0)
  message(FATAL_ERROR "thread_invariance: the manifest has no counters")
endif()
if(NOT counters_t1 STREQUAL counters_t4)
  math(EXPR last "${n} - 1")
  foreach(i RANGE ${last})
    string(JSON key MEMBER "${counters_t1}" ${i})
    string(JSON v1 GET "${counters_t1}" "${key}")
    string(JSON v4 ERROR_VARIABLE missing GET "${counters_t4}" "${key}")
    if(NOT v1 STREQUAL v4)
      message(SEND_ERROR "thread_invariance: counter ${key} is ${v1} at "
                         "--threads 1 and ${v4} at --threads 4")
    endif()
  endforeach()
  message(FATAL_ERROR "thread_invariance: manifest counters differ between "
                      "--threads 1 and --threads 4")
endif()
message(STATUS "thread_invariance: stores byte-identical and ${n} manifest "
               "counters equal at 1 and 4 threads")
