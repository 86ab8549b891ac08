# Checkpoint a `pfi_cli` campaign, then resume it under a rate that prints
# like the original at six significant digits, and require a refusal: exit
# status 2 with "refusing to resume" on stderr. Covers the fleet campaign's
# --ber and the stratified sampler's --ci-target, neither of which is part of
# the CLI's checkpoint context string.
#
#   cmake -DCLI=path/to/pfi_cli -DWORK=scratch/dir -P cli_resume_rate_refusal.cmake
file(MAKE_DIRECTORY "${WORK}")

# expect_resume_refused(NAME FIRST CHANGED ARGS...): FIRST and CHANGED are
# the rate flag with its checkpointed and resumed values (";"-lists), ARGS
# the rest of the command line.
function(expect_resume_refused name first changed)
  set(ckpt "${WORK}/${name}.ckpt")
  file(REMOVE "${ckpt}")
  execute_process(
    COMMAND "${CLI}" ${ARGN} ${first} --checkpoint "${ckpt}"
    RESULT_VARIABLE status
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT status STREQUAL "0")
    message(FATAL_ERROR
      "${name}: the checkpointed run exited '${status}'; stderr:\n${err}")
  endif()
  execute_process(
    COMMAND "${CLI}" ${ARGN} ${changed} --checkpoint "${ckpt}" --resume
    RESULT_VARIABLE status
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  file(REMOVE "${ckpt}")
  if(NOT status STREQUAL "2")
    message(FATAL_ERROR
      "${name}: expected exit status 2 on resume, got '${status}'; "
      "stderr:\n${err}")
  endif()
  if(NOT err MATCHES "refusing to resume")
    message(FATAL_ERROR "${name}: stderr does not refuse the resume:\n${err}")
  endif()
endfunction()

expect_resume_refused(fleet "--ber;1e-7" "--ber;1.0000001e-7"
  --model squeezenet --epochs 1 --horizon 8)
expect_resume_refused(stratified "--ci-target;0.01" "--ci-target;0.0100000001"
  --model squeezenet --epochs 1 --sampler stratified --trials 8)
