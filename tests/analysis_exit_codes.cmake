# Exit-code check for dnsttl_analyze, run as a CMake script:
#
#   cmake -DANALYZER=<exe> -DFIXTURES=<tests/analysis dir>
#         -P analysis_exit_codes.cmake
#
# The analyzer exits 1 on any finding, 0 on none and 2 on a usage or IO
# error.  Each case below runs it once and fails the script on any other
# code, so a change that lets a finding through with exit 0 shows here.

function(expect_exit code)
  execute_process(COMMAND ${ANALYZER} ${ARGN}
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  RESULT_VARIABLE status)
  if(NOT status EQUAL code)
    message(FATAL_ERROR "dnsttl_analyze ${ARGN} exited with ${status}, "
                        "expected ${code}:\n${out}${err}")
  endif()
endfunction()

expect_exit(1 --root ${FIXTURES} wall_clock.cc)        # two true positives
expect_exit(0 --root ${FIXTURES} lexer_hardening.cc)   # a clean fixture
expect_exit(2 --no-such-flag)
expect_exit(2 --root ${FIXTURES} no_such_fixture.cc)
expect_exit(2 --root ${FIXTURES} lexer_hardening.cc    # unwritable report
            --json ${FIXTURES}/no_such_dir/report.json)
