# Fail when any file under the library's source tree other than
# util/env.hpp calls getenv: the library takes every setting through its
# config structs, and only the front ends read the environment, through
# util/env.hpp's strict helpers.
#
#   cmake -DSRC=path/to/src -P lint_library_env.cmake
file(GLOB_RECURSE files "${SRC}/*")
set(offenders "")
foreach(f IN LISTS files)
  if(f STREQUAL "${SRC}/util/env.hpp")
    continue()
  endif()
  file(STRINGS "${f}" hits REGEX "getenv")
  if(hits)
    string(APPEND offenders "${f}:\n")
    foreach(line IN LISTS hits)
      string(APPEND offenders "  ${line}\n")
    endforeach()
  endif()
endforeach()
if(offenders)
  message(FATAL_ERROR "getenv outside src/util/env.hpp:\n${offenders}")
endif()
