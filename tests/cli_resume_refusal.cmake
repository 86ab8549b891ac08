# Run `pfi_cli --resume` against a checkpoint whose 'trials' field is
# malformed and require a clean refusal: exit status 2 with the field named
# on stderr, never an abort.
#
#   cmake -DCLI=path/to/pfi_cli -DWORK=scratch/dir -P cli_resume_refusal.cmake
file(MAKE_DIRECTORY "${WORK}")
set(ckpt "${WORK}/malformed.ckpt")
file(WRITE "${ckpt}" "{\"version\":1,\"fingerprint\":1,\"trials\":12abc}\n")
execute_process(
  COMMAND "${CLI}" --model squeezenet --trials 4 --epochs 1
          --checkpoint "${ckpt}" --resume
  RESULT_VARIABLE status
  OUTPUT_QUIET
  ERROR_VARIABLE err)
file(REMOVE "${ckpt}")
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "expected exit status 2, got '${status}'; stderr:\n${err}")
endif()
if(NOT err MATCHES "'trials'")
  message(FATAL_ERROR "stderr does not name the 'trials' field:\n${err}")
endif()
