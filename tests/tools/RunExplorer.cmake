# Runs `dataflow_explorer INPUT --optimize` (cmake -P, with EXPLORER,
# INPUT and ALLOW_PARSE_ERRORS defined). Passes when it exits 0, or,
# with ALLOW_PARSE_ERRORS, when it exits 1 after reporting parse errors.
# Any other outcome, a crash included, fails.
execute_process(COMMAND ${EXPLORER} ${INPUT} --optimize
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  return()
endif()
if(ALLOW_PARSE_ERRORS AND rc EQUAL 1 AND err MATCHES "^parse errors:")
  return()
endif()
message(FATAL_ERROR
  "dataflow_explorer ${INPUT} --optimize failed (${rc}):\n${out}\n${err}")
