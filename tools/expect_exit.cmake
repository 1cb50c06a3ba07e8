# Runs the command after `--` and fails unless it exits with EXPECT_EXIT
# and its standard error matches the regular expression EXPECT_STDERR:
#
#   cmake -DEXPECT_EXIT=2 -DEXPECT_STDERR=usage: -P expect_exit.cmake \
#         -- wormhole campaign notanumber
cmake_policy(VERSION 3.20)
set(command)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
execute_process(COMMAND ${command} RESULT_VARIABLE code
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT code STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR "exit status ${code}, expected ${EXPECT_EXIT}:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()
