# Golden-output check for one binary, run as a CMake script:
#
#   cmake -DBINARY=<exe> -DGOLDEN=<file> [-DACTUAL=<file>] [-DUPDATE=ON]
#         -P golden.cmake
#
# Runs BINARY at --seed 1 --quick and compares its stdout byte for byte
# with GOLDEN.  On a mismatch the output is written to ACTUAL, a unified
# diff is printed and the script fails.  With UPDATE=ON it rewrites GOLDEN
# instead, so an intended change shows up as a diff of the golden file.

execute_process(COMMAND ${BINARY} --seed 1 --quick
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BINARY} --seed 1 --quick exited with ${status}")
endif()

if(UPDATE)
  file(WRITE "${GOLDEN}" "${actual}")
  return()
endif()

file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  execute_process(COMMAND diff -u "${GOLDEN}" "${ACTUAL}")
  message(FATAL_ERROR
    "stdout differs from ${GOLDEN} (actual output: ${ACTUAL}).  If the "
    "change is intended, rewrite the golden files with "
    "`cmake --build <tree> --target golden-update` and commit the diff.")
endif()
