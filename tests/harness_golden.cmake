# Runs one paper harness and compares its standard output byte for byte
# with the checked-in golden; registered with ctest by CMakeLists.txt:
#
#   cmake -DHARNESS=<executable> -DGOLDEN=<file> -DACTUAL=<file>
#         -P tests/harness_golden.cmake
#
# On a difference the harness output is written to ACTUAL for diffing.
# docs/reproducing-the-paper.md has the command that regenerates the
# goldens after a deliberate output change.
execute_process(COMMAND "${HARNESS}"
                OUTPUT_VARIABLE actual
                ERROR_VARIABLE errors
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${HARNESS} exited with ${status}:\n${errors}")
endif()
file(READ "${GOLDEN}" golden)
if(NOT actual STREQUAL golden)
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR "${HARNESS} output differs from its golden:\n"
                      "  diff ${GOLDEN} ${ACTUAL}")
endif()
