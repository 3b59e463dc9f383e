# Golden-output check for one program run, as a ctest script:
#
#   cmake -DGOLDEN=<absolute dir> -DWORK_DIR=<absolute scratch dir>
#         -P golden_check.cmake -- <program> [args...]
#
# Runs the program in the current directory with
# DC_BENCH_RESULTS_DIR=WORK_DIR, saves its stdout as WORK_DIR/stdout, and
# byte-compares WORK_DIR with GOLDEN: the same file names, each with the
# same bytes. So a golden directory holds everything the program writes:
# `stdout` plus every file it puts under DC_BENCH_RESULTS_DIR. The
# programs print simulation results only, so any difference is a
# behaviour change. Re-capture a golden only when that change is
# intended, from the failing test's own output (a failure prints this
# line with both paths filled in):
#
#   rm -rf tests/golden/<golden> && cp -r build/golden/<test> tests/golden/<golden>

foreach(var GOLDEN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}=...")
  endif()
endforeach()

# The command is everything after `--`.
set(command)
set(seen_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(seen_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(seen_separator TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "missing -- <program> [args...]")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ENV{DC_BENCH_RESULTS_DIR} "${WORK_DIR}")
execute_process(
  COMMAND ${command}
  OUTPUT_FILE "${WORK_DIR}/stdout"
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${command} failed (rc=${rc}):\n${err}")
endif()

file(GLOB_RECURSE produced RELATIVE "${WORK_DIR}" "${WORK_DIR}/*")
file(GLOB_RECURSE expected RELATIVE "${GOLDEN}" "${GOLDEN}/*")
list(SORT produced)
list(SORT expected)
set(recapture "rm -rf ${GOLDEN} && cp -r ${WORK_DIR} ${GOLDEN}")
if(NOT produced STREQUAL expected)
  message(FATAL_ERROR "${WORK_DIR} holds [${produced}], ${GOLDEN} holds "
                      "[${expected}]. If intended, re-capture:\n  ${recapture}")
endif()
foreach(name IN LISTS expected)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${WORK_DIR}/${name}"
                                              "${GOLDEN}/${name}"
    RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    find_program(diff_tool diff)
    if(diff_tool)
      execute_process(COMMAND ${diff_tool} -u "${GOLDEN}/${name}"
                                              "${WORK_DIR}/${name}"
                      OUTPUT_VARIABLE got)
    else()
      file(READ "${WORK_DIR}/${name}" got)
    endif()
    message(FATAL_ERROR "${WORK_DIR}/${name} differs from ${GOLDEN}/${name}:"
                        "\n${got}\nIf intended, re-capture:\n  ${recapture}")
  endif()
endforeach()

message(STATUS "${command} matches ${GOLDEN}")
