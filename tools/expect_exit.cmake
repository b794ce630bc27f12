# Run ${CMD} (a ;-list) and fail unless its exit code equals ${EXPECTED}.
# Used by the CLI tests in tools/, bench/ and examples/ to pin the exit-code
# contract: 0 success, 1 audit failure, 2 usage error / malformed input.
if(NOT DEFINED CMD OR NOT DEFINED EXPECTED)
  message(FATAL_ERROR "expect_exit.cmake needs -DCMD=<cmd;args...> -DEXPECTED=<code>")
endif()
execute_process(
  COMMAND ${CMD}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)
if(NOT rc EQUAL EXPECTED)
  message(FATAL_ERROR
    "expected exit ${EXPECTED}, got '${rc}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
