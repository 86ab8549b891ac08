# Run a tiny `pfi_cli` campaign with PFI_KERNEL naming no kernel and require
# a clean refusal: exit status 2 with the variable named on stderr, never an
# abort before main.
#
#   cmake -DCLI=path/to/pfi_cli -P cli_kernel_env_refusal.cmake
set(ENV{PFI_KERNEL} "bogus")
execute_process(
  COMMAND "${CLI}" --model squeezenet --trials 4 --epochs 1
  RESULT_VARIABLE status
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "expected exit status 2, got '${status}'; stderr:\n${err}")
endif()
if(NOT err MATCHES "PFI_KERNEL must be 'naive' or 'blocked', got 'bogus'")
  message(FATAL_ERROR "stderr does not name PFI_KERNEL:\n${err}")
endif()
