# Exit-code check for dnsttl_analyze, run as a CMake script:
#
#   cmake -DANALYZER=<exe> -DFIXTURES=<tests/analysis dir>
#         -P analysis_exit_codes.cmake
#
# The analyzer exits 1 on any finding, 0 on none and 2 on a usage or IO
# error.  Each case below runs it once and fails the script on any other
# code, so a change that lets a finding through with exit 0 shows here.
# The last two cases also parse the report that `--json -` prints.

function(expect_exit code)
  execute_process(COMMAND ${ANALYZER} ${ARGN}
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  RESULT_VARIABLE status)
  if(NOT status EQUAL code)
    message(FATAL_ERROR "dnsttl_analyze ${ARGN} exited with ${status}, "
                        "expected ${code}:\n${out}${err}")
  endif()
  set(stdout "${out}" PARENT_SCOPE)
endfunction()

# `--json -` prints the findings report on stdout and nothing else (the
# findings and the summary line go to stderr): stdout must parse as one
# JSON document listing @p count findings.  CMake's parser ignores text
# after the document, hence the check that stdout ends with it.
# string(JSON) needs CMake 3.19.
function(expect_json_report code count)
  expect_exit(${code} ${ARGN} --json -)
  string(JSON listed ERROR_VARIABLE parse_error LENGTH "${stdout}" findings)
  if(parse_error)
    message(FATAL_ERROR "dnsttl_analyze ${ARGN} --json - printed no JSON "
                        "report (${parse_error}):\n${stdout}")
  endif()
  string(JSON reported GET "${stdout}" count)
  if(NOT listed EQUAL count OR NOT reported EQUAL count)
    message(FATAL_ERROR "dnsttl_analyze ${ARGN} --json - lists ${listed} "
                        "findings and counts ${reported}, expected "
                        "${count}:\n${stdout}")
  endif()
  if(NOT stdout MATCHES "}[ \t\r\n]*$")
    message(FATAL_ERROR "dnsttl_analyze ${ARGN} --json - printed text after "
                        "the report:\n${stdout}")
  endif()
endfunction()

expect_exit(1 --root ${FIXTURES} wall_clock.cc)        # two true positives
expect_exit(0 --root ${FIXTURES} lexer_hardening.cc)   # a clean fixture
expect_exit(2 --no-such-flag)
expect_exit(2 --root ${FIXTURES} no_such_fixture.cc)
expect_exit(2 --root ${FIXTURES} lexer_hardening.cc    # unwritable report
            --json ${FIXTURES}/no_such_dir/report.json)
expect_json_report(0 0 --root ${FIXTURES} lexer_hardening.cc)
expect_json_report(1 2 --root ${FIXTURES} wall_clock.cc)
