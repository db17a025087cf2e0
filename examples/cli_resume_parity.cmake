# ctest script: `ntapi_cli snapshot` for MS ms, then `resume` for MS ms
# more, must end where one uninterrupted 2*MS ms run ends. The resume must
# attest every snapshot section byte-exact, and its event count and every
# trigger/query result line must equal the plain run's. A copy of the
# snapshot with one payload byte flipped must make `resume` exit 1 with a
# `snapshot error`.
#
#   cmake -DCLI=<ntapi_cli> -DSCRIPT=<script.nt> -DMS=<ms> -DWORK_DIR=<dir>
#         -P cli_resume_parity.cmake
foreach(var CLI SCRIPT MS WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_resume_parity: -D${var}=... is required")
  endif()
endforeach()

set(snap ${WORK_DIR}/resume_parity.htsnap)
set(corrupt ${WORK_DIR}/resume_parity_corrupt.htsnap)
math(EXPR total_ms "${MS} * 2")

function(run_cli out_var)
  execute_process(COMMAND ${CLI} ${ARGN} OUTPUT_VARIABLE out ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "'${ARGN}' exited ${rc}:\n${out}${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# The trigger and query lines that end every run's output.
function(result_lines out_var text)
  string(REGEX MATCHALL "\n(trigger|query) [^\n]*" lines "${text}")
  if(lines STREQUAL "")
    message(FATAL_ERROR "no trigger/query result lines in:\n${text}")
  endif()
  set(${out_var} "${lines}" PARENT_SCOPE)
endfunction()

run_cli(plain ${SCRIPT} --ms ${total_ms})
if(NOT plain MATCHES "ran ${total_ms}ms simulated \\(([0-9]+) events\\)")
  message(FATAL_ERROR "plain run printed no 'ran ... events' line:\n${plain}")
endif()
set(plain_events ${CMAKE_MATCH_1})
result_lines(plain_results "${plain}")

run_cli(snapshot_out snapshot ${SCRIPT} --out ${snap} --ms ${MS})
run_cli(resumed resume ${snap} --ms ${MS})
if(NOT resumed MATCHES "attested [0-9]+ sections byte-exact")
  message(FATAL_ERROR "resume attested nothing:\n${resumed}")
endif()
if(NOT resumed MATCHES "resumed \\+${MS}ms simulated \\(t=[0-9]+ns, ([0-9]+) events\\)")
  message(FATAL_ERROR "resume printed no 'resumed ... events' line:\n${resumed}")
endif()
set(resumed_events ${CMAKE_MATCH_1})
result_lines(resumed_results "${resumed}")

message(STATUS "plain: ${plain_events} events; resumed: ${resumed_events} events")
if(NOT plain_events STREQUAL resumed_events)
  message(FATAL_ERROR "resume ran ${resumed_events} events, the plain run ${plain_events}")
endif()
if(NOT plain_results STREQUAL resumed_results)
  message(FATAL_ERROR "resume results diverged:\n${resumed_results}\nvs plain:\n${plain_results}")
endif()

# Flip one byte of the first section's payload. The first section is
# cli.meta: magic(8) version(4) count(4) name_len(4) "cli.meta"(8)
# payload_len(8), then the payload, which opens with the script text.
file(READ ${snap} head LIMIT 36 HEX)
string(SUBSTRING "${head}" 40 16 first_name)
if(NOT first_name STREQUAL "636c692e6d657461")  # "cli.meta"
  message(FATAL_ERROR "snapshot does not open with the cli.meta section: ${head}")
endif()
set(offset 68)
file(READ ${snap} byte OFFSET ${offset} LIMIT 1 HEX)
math(EXPR flipped "0x${byte} ^ 1")
if(flipped LESS 1 OR flipped GREATER 126)
  message(FATAL_ERROR "byte ${offset} (0x${byte}) is not script text")
endif()
string(ASCII ${flipped} flipped_char)
file(WRITE ${WORK_DIR}/resume_parity_byte "${flipped_char}")
file(COPY_FILE ${snap} ${corrupt})
execute_process(COMMAND dd if=${WORK_DIR}/resume_parity_byte of=${corrupt} bs=1
                        seek=${offset} conv=notrunc
                RESULT_VARIABLE rc ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "could not write the flipped byte (dd exited ${rc})")
endif()
execute_process(COMMAND ${CLI} resume ${corrupt} --ms ${MS}
                OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 1 OR NOT err MATCHES "snapshot error")
  message(FATAL_ERROR "resume of a corrupt snapshot exited ${rc}, expected 1 and a "
                      "'snapshot error':\n${out}${err}")
endif()
