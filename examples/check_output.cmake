# Runs one example and fails unless it exits 0 and its stdout equals
# the checked-in transcript byte for byte.
#
#   cmake -DEXAMPLE=<binary> -DEXPECTED=<file> -P check_output.cmake

execute_process(COMMAND ${EXAMPLE}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${EXAMPLE} exited with ${status}")
endif()
file(READ ${EXPECTED} expected)
if(NOT actual STREQUAL expected)
    message(FATAL_ERROR "${EXAMPLE} output differs from ${EXPECTED}\n"
                        "--- expected\n${expected}--- actual\n${actual}")
endif()
