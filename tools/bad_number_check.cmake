# bad_number_check script: every numeric flag of the CLIs, the soak
# harness and the benches (bench::IntFlagValue) goes through ParseNumber,
# so a value that is not wholly a number must stop the run with exit 64
# (usage error) and name the flag, before any data is read — never parse
# as 0 or as a numeric prefix or fall back to a default. Invoked by
# ctest as
#   cmake -DBIN=<remedy_cli|remedy_serve|soak|serve_steady>
#         -DARGS=<leading args>
#         -DFLAGS=<flag;flag;...> [-DSPLIT=1] -P bad_number_check.cmake
# The flag and its value go as one `--flag=value` argument, or as two
# arguments `--flag value` with SPLIT=1 (for parsers without the `=` form).

foreach(flag IN LISTS FLAGS)
  foreach(value "" "12x" "0.5.5" " 1" "+1")
    if(SPLIT)
      set(flag_args "${flag}" "${value}")
    else()
      set(flag_args "${flag}=${value}")
    endif()
    execute_process(
      COMMAND ${BIN} ${ARGS} ${flag_args}
      RESULT_VARIABLE rc
      OUTPUT_QUIET
      ERROR_VARIABLE err)
    if(NOT rc EQUAL 64)
      message(FATAL_ERROR
              "bad_number_check: ${flag}='${value}' exited ${rc}, want 64")
    endif()
    if(NOT err MATCHES "bad ${flag}:")
      message(FATAL_ERROR
              "bad_number_check: ${flag}='${value}' did not name the flag:"
              " ${err}")
    endif()
  endforeach()
endforeach()
