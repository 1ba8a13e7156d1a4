# Runs the chaos bench with one command line and requires its exit
# status; with CREATES, also passes `--snapshot <CREATES>` and requires
# the file to exist afterwards.
#
#   cmake -DCHAOS=<binary> "-DARGS=<args>" -DSTATUS=<n> [-DCREATES=<file>]
#         -P chaos_cli_check.cmake
#
# ARGS is split like a shell command line. Run through ctest.

separate_arguments(args UNIX_COMMAND "${ARGS}")
if(DEFINED CREATES)
  file(REMOVE "${CREATES}")
  list(APPEND args --snapshot "${CREATES}")
endif()
execute_process(COMMAND "${CHAOS}" ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL STATUS)
  message(FATAL_ERROR
          "chaos ${args} exited with status ${rc}, expected ${STATUS}\n${err}")
endif()
if(DEFINED CREATES AND NOT EXISTS "${CREATES}")
  message(FATAL_ERROR "chaos ${args} did not write ${CREATES}")
endif()
