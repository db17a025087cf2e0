# ctest script: `ntapi_cli stats` must simulate exactly what the plain
# `ntapi_cli` run simulates. Runs both on one script for the same sim time
# and compares their "ran <N>ms simulated (<E> events)" lines.
#
#   cmake -DCLI=<ntapi_cli> -DSCRIPT=<script.nt> -DMS=<ms> -P cli_stats_parity.cmake
foreach(var CLI SCRIPT MS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_stats_parity: -D${var}=... is required")
  endif()
endforeach()

function(ran_line out_var)
  execute_process(COMMAND ${CLI} ${ARGN} ${SCRIPT} --ms ${MS}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "'${ARGN}' run exited ${rc}:\n${err}")
  endif()
  if(NOT out MATCHES "ran [0-9]+ms simulated \\([0-9]+ events\\)")
    message(FATAL_ERROR "'${ARGN}' run printed no 'ran ... events' line:\n${out}")
  endif()
  set(${out_var} "${CMAKE_MATCH_0}" PARENT_SCOPE)
endfunction()

ran_line(plain)
ran_line(stats stats)
message(STATUS "plain: ${plain}")
message(STATUS "stats: ${stats}")
if(NOT plain STREQUAL stats)
  message(FATAL_ERROR "ntapi_cli stats diverged from the plain run: '${stats}' vs '${plain}'")
endif()
