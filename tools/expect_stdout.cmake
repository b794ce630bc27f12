# Run ${CMD} (a ;-list) and fail unless it exits 0 with stdout equal, byte
# for byte, to the file ${GOLDEN}: the `paper` golden tests pin the numbers
# a binary prints. Re-record a golden only when the answer is meant to move.
if(NOT DEFINED CMD OR NOT DEFINED GOLDEN)
  message(FATAL_ERROR "expect_stdout.cmake needs -DCMD=<cmd;args...> -DGOLDEN=<file>")
endif()
execute_process(COMMAND ${CMD} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
file(READ ${GOLDEN} expected)
if(NOT rc EQUAL 0 OR NOT out STREQUAL expected)
  message(FATAL_ERROR "exit ${rc}; stdout must equal ${GOLDEN}\n"
          "expected:\n${expected}\ngot:\n${out}\nstderr:\n${err}")
endif()
