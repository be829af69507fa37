# Runs an example binary with one argument it must refuse: the binary has to
# exit with status 2 (not abort, not run) and name the offending flag on
# stderr.
#
#   cmake -DBIN=<binary> -DARG=<argument> -DFLAG=<flag name> -P expect_bad_flag.cmake
execute_process(COMMAND "${BIN}" "${ARG}" RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err TIMEOUT 60)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "'${BIN} ${ARG}' ended with '${rc}', want exit status 2\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
string(FIND "${err}" "--${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "'${BIN} ${ARG}' exited 2 without naming --${FLAG}\nstderr:\n${err}")
endif()
