# Runs one figure bench and requires its stdout to match the committed
# golden byte for byte (the figure outputs are deterministic, so any
# difference is a behaviour change).
#
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -DOUT=<file> -P golden_check.cmake
#
# Run through ctest: `ctest -L golden`. To accept a deliberate change,
# copy the reported OUT file over the golden.

# The benches read this to override their default; goldens are the
# defaults.
unset(ENV{PRISM_SEED})

execute_process(COMMAND "${BENCH}" OUTPUT_FILE "${OUT}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with status ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${OUT}"
                RESULT_VARIABLE differ)
if(differ)
  # Best effort: show the difference when a diff tool is on the PATH.
  execute_process(COMMAND diff -u "${GOLDEN}" "${OUT}")
  message(FATAL_ERROR "stdout of ${BENCH} differs from ${GOLDEN}")
endif()
