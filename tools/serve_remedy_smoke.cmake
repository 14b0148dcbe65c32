# serve_remedy_smoke driver: the online-remedy path through the real
# binaries (docs/REMEDY.md). Four legs against generated adult data:
#
#   1. seed + one-shot --remedy that dies via --kill-after-remedy WITHOUT
#      checkpointing — the remedy record is durable only in the WAL;
#   2. a recovery lifetime that must replay the remedy and serve healthy;
#   3. an --auto-remedy lifetime that must quiesce and exit clean;
#   4. negative checks: an unknown --remedy-backend (the registry's
#      suggestion-list path) and a malformed number (--tau-c abc) exit 64
#      from both remedy_serve and remedy_cli.
#
# Invoked by ctest as
#   cmake -DSERVE=<bin> -DCLI=<bin> -DSTATE_DIR=<dir> -P serve_remedy_smoke.cmake

file(REMOVE_RECURSE ${STATE_DIR})
file(MAKE_DIRECTORY ${STATE_DIR})

# --- leg 1: remedy, then crash before any checkpoint ----------------------
execute_process(
  COMMAND ${SERVE} @adult:2000 --state-dir ${STATE_DIR}
          --seed --remedy ps --kill-after-remedy
  OUTPUT_VARIABLE out1
  RESULT_VARIABLE rc1)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "serve_remedy_smoke: remedy lifetime exited ${rc1}")
endif()
if(NOT out1 MATCHES "remedy committed:")
  message(FATAL_ERROR
          "serve_remedy_smoke: no remedy committed on seeded adult data:\n${out1}")
endif()
if(NOT EXISTS ${STATE_DIR}/deltas.wal)
  message(FATAL_ERROR "serve_remedy_smoke: killed lifetime left no WAL")
endif()

# --- leg 2: recovery must replay the remedy records -----------------------
execute_process(
  COMMAND ${SERVE} @adult:2000 --state-dir ${STATE_DIR}
          --remedy-backend streaming
          --health-out ${STATE_DIR}/health.json
  RESULT_VARIABLE rc2)
if(NOT rc2 EQUAL 0)
  message(FATAL_ERROR "serve_remedy_smoke: recovery lifetime exited ${rc2}")
endif()
file(READ ${STATE_DIR}/health.json health)
if(NOT health MATCHES "\"status\":\"serving\"")
  message(FATAL_ERROR "serve_remedy_smoke: recovered daemon is not serving")
endif()
if(NOT health MATCHES "\"needs_recovery\":false")
  message(FATAL_ERROR "serve_remedy_smoke: recovered daemon needs recovery")
endif()
if(NOT health MATCHES "\"remedy_backend\":\"streaming\"")
  message(FATAL_ERROR
          "serve_remedy_smoke: health does not report the remedy backend")
endif()

# --- leg 3: the monitor-triggered auto-remedy loop quiesces ---------------
file(REMOVE_RECURSE ${STATE_DIR}/auto)
execute_process(
  COMMAND ${SERVE} @adult:2000 --state-dir ${STATE_DIR}/auto
          --seed --auto-remedy --remedy-rounds 4
  OUTPUT_VARIABLE out3
  RESULT_VARIABLE rc3)
if(NOT rc3 EQUAL 0)
  message(FATAL_ERROR "serve_remedy_smoke: auto-remedy lifetime exited ${rc3}")
endif()
if(NOT out3 MATCHES "auto-remedy quiesced:")
  message(FATAL_ERROR
          "serve_remedy_smoke: auto-remedy never quiesced:\n${out3}")
endif()

# --- leg 4: unknown backend names and bad numbers exit 64 from both CLIs --
execute_process(
  COMMAND ${SERVE} @adult:100 --state-dir ${STATE_DIR}/bogus
          --remedy-backend bogus
  RESULT_VARIABLE rc4
  ERROR_QUIET OUTPUT_QUIET)
if(NOT rc4 EQUAL 64)
  message(FATAL_ERROR
          "serve_remedy_smoke: remedy_serve --remedy-backend=bogus exited "
          "${rc4}, want 64")
endif()
execute_process(
  COMMAND ${CLI} remedy @adult:500 --out ${STATE_DIR}/unused.csv
          --remedy-backend bogus
  RESULT_VARIABLE rc5
  ERROR_QUIET OUTPUT_QUIET)
if(NOT rc5 EQUAL 64)
  message(FATAL_ERROR
          "serve_remedy_smoke: remedy_cli --remedy-backend bogus exited "
          "${rc5}, want 64")
endif()
execute_process(
  COMMAND ${SERVE} @adult:100 --state-dir ${STATE_DIR}/bogus --tau-c abc
  RESULT_VARIABLE rc6
  ERROR_QUIET OUTPUT_QUIET)
if(NOT rc6 EQUAL 64)
  message(FATAL_ERROR
          "serve_remedy_smoke: remedy_serve --tau-c abc exited ${rc6}, want 64")
endif()
execute_process(
  COMMAND ${CLI} audit @adult:500 --tau-c abc
  RESULT_VARIABLE rc7
  ERROR_QUIET OUTPUT_QUIET)
if(NOT rc7 EQUAL 64)
  message(FATAL_ERROR
          "serve_remedy_smoke: remedy_cli --tau-c abc exited ${rc7}, want 64")
endif()
