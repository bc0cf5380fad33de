# Passes when a command-line program rejects its arguments as a usage
# error: exit code 2 and a stderr message matching EXPECT (a regex).
#
#   cmake -DPROG=<program> -DARGS=<arg>[;<arg>...] -DEXPECT=<regex>
#         -P cli_usage_error.cmake
execute_process(COMMAND ${PROG} ${ARGS}
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT code STREQUAL "2")
  message(FATAL_ERROR "${PROG} ${ARGS}: expected exit code 2, got "
                      "'${code}'; stderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "${PROG} ${ARGS}: stderr does not match "
                      "'${EXPECT}':\n${err}")
endif()
