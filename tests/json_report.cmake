# --json report check for one experiment binary, run as a CMake script:
#
#   cmake -DBINARY=<exe> -DGOLDEN=<file> -DREPORT=<file> -P json_report.cmake
#
# Runs BINARY at --seed 1 --quick --json REPORT and fails unless it exits 0,
# prints exactly GOLDEN on stdout (the report changes no output) and writes
# a report carrying the run's seed and a positive peak_rss_bytes.

file(REMOVE "${REPORT}")
execute_process(COMMAND ${BINARY} --seed 1 --quick --json ${REPORT}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BINARY} --json ${REPORT} exited with ${status}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "--json changed the stdout of ${BINARY}")
endif()
if(NOT EXISTS "${REPORT}")
  message(FATAL_ERROR "${BINARY} --json wrote no ${REPORT}")
endif()
# Matched as text, since string(JSON) needs CMake 3.19 and the project
# declares 3.16.  The writer puts each top-level key on its own line.
file(READ "${REPORT}" report)
string(REGEX MATCH "\n  \"seed\": 1,\n" seed "${report}")
string(REGEX MATCH "\n  \"peak_rss_bytes\": [1-9][0-9]*,\n" rss "${report}")
if(NOT seed OR NOT rss)
  message(FATAL_ERROR "${REPORT} lacks seed 1 or a positive peak_rss_bytes:"
                      "\n${report}")
endif()
