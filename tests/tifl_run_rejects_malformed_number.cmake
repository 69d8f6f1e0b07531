# A malformed numeric flag must stop tifl_run with exit 1 and an error that
# names the flag, never run another experiment with the value read as 0.
#
#   cmake -DTIFL_RUN=path/to/tifl_run -P tifl_run_rejects_malformed_number.cmake
foreach(case "churn;abc" "rounds;3x" "alpha;nan")
  list(GET case 0 flag)
  list(GET case 1 value)
  execute_process(
    COMMAND ${TIFL_RUN} --engine async --clients 50 --rounds 3 --${flag} ${value}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 1)
    message(FATAL_ERROR "--${flag} ${value}: expected exit 1, got '${code}'\n${out}${err}")
  endif()
  if(NOT err MATCHES "--${flag} ")
    message(FATAL_ERROR "--${flag} ${value}: error does not name the flag: ${err}")
  endif()
  message(STATUS "--${flag} ${value}: ${err}")
endforeach()
