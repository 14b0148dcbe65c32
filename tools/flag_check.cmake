# flag_check script: the error rules every flag table shares
# (src/cli/flags.h), checked on one binary before it reads any input.
# Invoked by ctest as
#   cmake -DBIN=<binary> -DARGS=<leading args> [-DFLAGS=<flag;...>]
#         [-DCHOICES=<flag;...>] [-DVALUED=<flag;...> -DUSAGE_RC=<code>]
#         [-DEMPTY=<flag>] -P flag_check.cmake
#   FLAGS    numeric flags: a value that is not wholly a number exits 64
#            naming the flag — never parses as 0 or as a numeric prefix,
#            never falls back to a default;
#   CHOICES  enumerated flags: a value outside the choices exits 64 naming
#            the flag and the choices;
#   VALUED   value-taking flags: one at the end of argv is a usage error
#            naming the flag, exit USAGE_RC;
#   EMPTY    a numeric flag whose explicitly empty value (`--flag=`) is
#            still a malformed number.
# FLAGS and CHOICES values go both as one `--flag=value` argument and as
# two arguments `--flag value`.

# Runs BIN ARGS with `flag` in `form` (joined, split or bare); checks the
# exit code and that stderr matches `pattern`. The arguments are quoted,
# so an empty value is passed as an argument of its own.
function(expect_exit want pattern flag value form)
  set(result RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(form STREQUAL "joined")
    execute_process(COMMAND ${BIN} ${ARGS} "${flag}=${value}" ${result})
  elseif(form STREQUAL "split")
    execute_process(COMMAND ${BIN} ${ARGS} "${flag}" "${value}" ${result})
  else()
    execute_process(COMMAND ${BIN} ${ARGS} "${flag}" ${result})
  endif()
  if(NOT rc EQUAL want OR NOT err MATCHES "${pattern}")
    message(FATAL_ERROR "flag_check: ${flag} '${value}' (${form}) exited"
                        " ${rc}, want ${want} and /${pattern}/: ${err}")
  endif()
endfunction()

foreach(flag IN LISTS FLAGS)
  foreach(value "" "12x" "0.5.5" " 1" "+1")
    foreach(form joined split)
      expect_exit(64 "bad ${flag}:" "${flag}" "${value}" ${form})
    endforeach()
  endforeach()
endforeach()

foreach(flag IN LISTS CHOICES)
  foreach(form joined split)
    expect_exit(64 "bad ${flag}: 'bogus' is not one of [a-z]+(\\|[a-z]+)+"
                "${flag}" bogus ${form})
  endforeach()
endforeach()

foreach(flag IN LISTS VALUED)
  expect_exit(${USAGE_RC} "${flag} needs a value" "${flag}" "" bare)
endforeach()

foreach(flag IN LISTS EMPTY)
  expect_exit(64 "bad ${flag}: '' is not a number" "${flag}" "" joined)
endforeach()
