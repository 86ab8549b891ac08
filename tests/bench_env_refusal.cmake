# Run bench/campaign_scaling with one malformed PFI_* setting at a time and
# require a clean refusal: exit status 2 with the variable named on stderr,
# never an abort and never a run under a misread value (an on/off knob takes
# only 0 or 1, PFI_MAX_THREADS at least 1, PFI_SHARDS 1 to kMaxShards).
#
#   cmake -DBENCH=path/to/campaign_scaling -DWORK=scratch/dir
#         -P bench_env_refusal.cmake
file(MAKE_DIRECTORY "${WORK}")
foreach(setting IN ITEMS "PFI_TRIALS=abc" "PFI_CAMPAIGN_TRACE=2"
                         "PFI_CAMPAIGN_CHECKPOINT=yes" "PFI_MAX_THREADS=0"
                         "PFI_MAX_THREADS=-1" "PFI_SHARDS=0")
  string(REGEX REPLACE "=.*" "" name "${setting}")
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E env PFI_TRIALS=1 "${setting}" "${BENCH}"
    WORKING_DIRECTORY "${WORK}"
    RESULT_VARIABLE status
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT status STREQUAL "2")
    message(FATAL_ERROR
            "${setting}: expected exit status 2, got '${status}'; stderr:\n${err}")
  endif()
  if(NOT err MATCHES "${name}")
    message(FATAL_ERROR "${setting}: stderr does not name ${name}:\n${err}")
  endif()
endforeach()
