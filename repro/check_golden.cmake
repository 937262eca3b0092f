# Golden gate for the repro/ programs and the DES digest (tests/): runs
# PROGRAM and compares its stdout byte for byte with GOLDEN. On a mismatch
# the actual output is kept next to the test (ACTUAL) so `diff -u GOLDEN ACTUAL`
# shows what moved.
#
#   cmake -DPROGRAM=<exe> -DGOLDEN=<file> -DACTUAL=<file> -P check_golden.cmake
#
# To regenerate a golden after an intended output change, redirect the
# program's stdout over it, e.g. from the source root:
#   ./build/repro_poa > tests/golden/repro/poa.txt
#   ./build/dcf_trace_digest > tests/golden/sim/dcf_trace_digest.txt
foreach(var IN ITEMS PROGRAM GOLDEN ACTUAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(COMMAND "${PROGRAM}"
                OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE exit_code)
if(NOT exit_code STREQUAL "0")
  message(FATAL_ERROR "${PROGRAM} exited with ${exit_code}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${ACTUAL}"
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "output of ${PROGRAM} differs from the golden file\n"
                      "  diff -u ${GOLDEN} ${ACTUAL}")
endif()
file(REMOVE "${ACTUAL}")
