# The benches that walk argv themselves must also stop on a malformed
# number with exit 1 and an error naming the flag, never run with the
# value read as 0.
#
#   cmake -DBENCH_RECOVERY=... -DBENCH_SCALE=... -DBENCH_HIER=...
#         -DBENCH_GEMM=... -P bench_rejects_malformed_number.cmake
foreach(case "${BENCH_RECOVERY};clients;abc" "${BENCH_SCALE};updates;5x"
             "${BENCH_HIER};report-every;-1" "${BENCH_GEMM};batch;abc")
  list(GET case 0 bench)
  list(GET case 1 flag)
  list(GET case 2 value)
  execute_process(
    COMMAND ${bench} --${flag} ${value}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT code EQUAL 1)
    message(FATAL_ERROR "${bench} --${flag} ${value}: expected exit 1, got '${code}'\n${out}${err}")
  endif()
  if(NOT err MATCHES "--${flag} ")
    message(FATAL_ERROR "${bench} --${flag} ${value}: error does not name the flag: ${err}")
  endif()
  message(STATUS "--${flag} ${value}: ${err}")
endforeach()
