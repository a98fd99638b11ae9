# Hostile-input regression: writes a 200,000-deep nested JSON array at test
# time and requires a CLI to reject it with exit 1 and a positioned syntax
# error — never a crash. Invoked from ctest:
#   cmake -DCLI=... -DOUT=... -P deep_json_exit.cmake
foreach(var CLI OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "deep_json_exit.cmake: missing -D${var}=")
  endif()
endforeach()

string(REPEAT "[" 200000 open)
string(REPEAT "]" 200000 close)
file(WRITE ${OUT} "${open}${close}\n")

execute_process(
  COMMAND ${CLI} ${OUT}
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "${CLI} on 200,000-deep JSON exited '${rc}', expected 1")
endif()
if(NOT err MATCHES "offset [0-9]+: nesting deeper than")
  message(FATAL_ERROR "missing positioned nesting error, stderr was: ${err}")
endif()
