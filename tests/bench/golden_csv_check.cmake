# Golden-output check for a bench binary, run as a ctest script:
#
#   cmake -DBENCH=<binary> -DGOLDEN=<checked-in csv> -DWORK_DIR=<scratch>
#         -P golden_csv_check.cmake
#
# Runs the bench with DC_BENCH_RESULTS_DIR=WORK_DIR and byte-compares the CSV
# it writes there, under the golden's file name, with the golden copy. The
# bench must print simulation results only, so any difference is a behaviour
# change: re-capture the golden only when that change is intended.

foreach(var BENCH GOLDEN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ENV{DC_BENCH_RESULTS_DIR} "${WORK_DIR}")
execute_process(
  COMMAND "${BENCH}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} failed (rc=${rc}):\n${out}${err}")
endif()

get_filename_component(name "${GOLDEN}" NAME)
set(produced "${WORK_DIR}/${name}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${produced}" "${GOLDEN}"
  RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  file(READ "${produced}" got)
  message(FATAL_ERROR "${produced} differs from ${GOLDEN}; it holds:\n${got}")
endif()

message(STATUS "${name} matches ${GOLDEN}")
