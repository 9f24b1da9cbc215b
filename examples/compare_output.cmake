# Runs EXE, writes its stdout to OUT and fails unless it exits 0 and OUT is
# byte-identical to GOLDEN.
#   cmake -DEXE=... -DGOLDEN=... -DOUT=... -P compare_output.cmake
execute_process(COMMAND ${EXE} OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
endif()
