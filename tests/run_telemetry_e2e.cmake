# End-to-end telemetry check, run via `cmake -P` from ctest:
#
#   cmake -DCONTRASIM=<binary> -DWORK_DIR=<dir>
#         [-DPYTHON=<python3> -DREPORT=<tools/telemetry_report.py>]
#         -P run_telemetry_e2e.cmake
#
# Drives a real contrasim run with a scheduled link failure and
# --telemetry-out plus the dataplane telemetry streams (--flows-out /
# --paths-out / --links-out / --engine-profile), then validates the whole
# reporting pipeline: the JSONL trace and flow stream exist and parse, the
# run manifest sits next to the trace with a config hash, the engine profile
# is loadable Chrome-trace JSON, and (when python3 is available)
# tools/telemetry_report.py digests everything and validates the manifest.
# A second run on several shards checks what must not depend on the shard
# count: the number of periodic metrics snapshots and the run-window spans
# of the engine profile.

if(NOT DEFINED CONTRASIM OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "need -DCONTRASIM=<binary> and -DWORK_DIR=<dir>")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(trace "${WORK_DIR}/trace.jsonl")
set(manifest "${WORK_DIR}/trace.manifest.json")
set(flows "${WORK_DIR}/flows.jsonl")
set(paths "${WORK_DIR}/paths.jsonl")
set(links "${WORK_DIR}/links.jsonl")
set(profile "${WORK_DIR}/profile.json")
set(metrics "${WORK_DIR}/metrics.jsonl")
set(sharded_metrics "${WORK_DIR}/sharded_metrics.jsonl")
set(sharded_profile "${WORK_DIR}/sharded_profile.json")

# Small leaf-spine fabric, slow probes, short workload: the run stays fast
# while still exercising probes, traffic, and a mid-run cable failure.
execute_process(
  COMMAND "${CONTRASIM}"
          --builtin leaf-spine:3x3 --plane contra
          --policy "minimize(path.util)"
          --load 0.2 --duration-ms 2 --seed 1
          --probe-period-us 500
          --fail leaf0-spine0 --fail-at-ms 11
          --telemetry-out "${trace}"
          --flows-out "${flows}"
          --paths-out "${paths}" --path-sample-n 4
          --links-out "${links}" --link-sample-us 500
          --engine-profile "${profile}"
          --metrics-json "${metrics}" --metrics-interval-ms 1
  RESULT_VARIABLE run_result
  OUTPUT_VARIABLE run_output
  ERROR_VARIABLE run_output)
if(NOT run_result EQUAL 0)
  message(FATAL_ERROR "contrasim failed (${run_result}):\n${run_output}")
endif()

execute_process(
  COMMAND "${CONTRASIM}"
          --builtin leaf-spine:3x3 --plane contra
          --policy "minimize(path.util)"
          --load 0.2 --duration-ms 2 --seed 1
          --probe-period-us 500
          --fail leaf0-spine0 --fail-at-ms 11
          --shards 4 --workers 2
          --engine-profile "${sharded_profile}"
          --metrics-json "${sharded_metrics}" --metrics-interval-ms 1
  RESULT_VARIABLE sharded_result
  OUTPUT_VARIABLE sharded_output
  ERROR_VARIABLE sharded_output)
if(NOT sharded_result EQUAL 0)
  message(FATAL_ERROR "sharded contrasim failed (${sharded_result}):\n${sharded_output}")
endif()
if(sharded_output MATCHES "engine  : 1 shards")
  message(FATAL_ERROR "--shards 4 run did not shard:\n${sharded_output}")
endif()

# Snapshot k is stamped t = k x 1 ms; the run ends at 10 ms warm-up + 2 ms
# traffic + 250 ms drain = 262 ms, so 262 periodic lines plus the final one,
# on one shard and on several.
foreach(file "${metrics}" "${sharded_metrics}")
  file(STRINGS "${file}" snapshot_lines)
  list(LENGTH snapshot_lines num_snapshots)
  if(NOT num_snapshots EQUAL 263)
    message(FATAL_ERROR "expected 263 metrics snapshots in ${file}, got ${num_snapshots}")
  endif()
endforeach()

# Every engine profile has the three run-window spans, whatever the shards.
foreach(file "${profile}" "${sharded_profile}")
  file(READ "${file}" profile_text)
  foreach(span "warmup" "traffic" "drain")
    if(NOT profile_text MATCHES "\"name\":\"${span}\"")
      message(FATAL_ERROR "engine profile ${file} has no '${span}' span")
    endif()
  endforeach()
endforeach()

# contrasim reports the convergence table derived from the trace.
if(NOT run_output MATCHES "convergence:")
  message(FATAL_ERROR "contrasim output has no convergence table:\n${run_output}")
endif()

foreach(artifact "${trace}" "${manifest}" "${flows}" "${flows}.summary.json"
        "${paths}" "${links}" "${profile}")
  if(NOT EXISTS "${artifact}")
    message(FATAL_ERROR "expected run artifact missing: ${artifact}")
  endif()
endforeach()

# The trace is JSONL in the documented schema: every line carries a
# timestamp and an event name. Spot-check the first line and that the
# scheduled failure shows up.
file(STRINGS "${trace}" first_lines LIMIT_COUNT 1)
if(NOT first_lines MATCHES "^\\{\"t\":.*\"ev\":\"")
  message(FATAL_ERROR "trace first line is not a schema record: ${first_lines}")
endif()
file(STRINGS "${trace}" down_lines REGEX "\"ev\":\"link_down\"")
list(LENGTH down_lines num_down)
if(NOT num_down EQUAL 1)
  message(FATAL_ERROR "expected exactly 1 link_down record, got ${num_down}")
endif()

# The manifest is valid JSON-ish with the fields two-run comparison needs.
file(READ "${manifest}" manifest_text)
foreach(key "\"schema\"" "\"tool\"" "\"topology\"" "\"plane\"" "\"seed\"" "\"config_hash\"")
  if(NOT manifest_text MATCHES "${key}")
    message(FATAL_ERROR "manifest missing ${key}: ${manifest_text}")
  endif()
endforeach()

# The flow stream follows the documented fixed-key-order schema.
file(STRINGS "${flows}" flow_first LIMIT_COUNT 1)
if(NOT flow_first MATCHES "^\\{\"flow\":.*\"fct_us\":")
  message(FATAL_ERROR "flows first line is not a schema record: ${flow_first}")
endif()
file(STRINGS "${links}" link_first LIMIT_COUNT 1)
if(NOT link_first MATCHES "^\\{\"t\":.*\"link\":.*\"util\":")
  message(FATAL_ERROR "links first line is not a schema record: ${link_first}")
endif()

if(DEFINED PYTHON AND DEFINED REPORT)
  execute_process(
    COMMAND "${PYTHON}" "${REPORT}" "${trace}"
            --flows "${flows}" --paths "${paths}" --links "${links}"
    RESULT_VARIABLE report_result
    OUTPUT_VARIABLE report_output
    ERROR_VARIABLE report_output)
  if(NOT report_result EQUAL 0)
    message(FATAL_ERROR "telemetry_report.py failed (${report_result}):\n${report_output}")
  endif()
  foreach(expected "by event" "route_flip" "convergence:" "config_hash"
          "FLOWS" "p50_us" "PATHS" "LINK HOTSPOTS" "by peak queue depth")
    if(NOT report_output MATCHES "${expected}")
      message(FATAL_ERROR "report output missing '${expected}':\n${report_output}")
    endif()
  endforeach()

  # The engine profile is loadable Chrome trace-event JSON.
  execute_process(
    COMMAND "${PYTHON}" -c "import json,sys; d=json.load(open(sys.argv[1])); \
evs=d['traceEvents']; assert evs, 'no spans'; \
assert all(k in e for e in evs for k in ('name','ph','ts','dur','pid','tid')); \
print(len(evs),'spans ok')" "${profile}"
    RESULT_VARIABLE profile_result
    OUTPUT_VARIABLE profile_output
    ERROR_VARIABLE profile_output)
  if(NOT profile_result EQUAL 0)
    message(FATAL_ERROR "engine profile is not loadable trace JSON:\n${profile_output}")
  endif()

  execute_process(
    COMMAND "${PYTHON}" "${REPORT}" --validate-manifest "${manifest}"
    RESULT_VARIABLE validate_result
    OUTPUT_VARIABLE validate_output
    ERROR_VARIABLE validate_output)
  if(NOT validate_result EQUAL 0)
    message(FATAL_ERROR "manifest validation failed:\n${validate_output}")
  endif()
endif()

message(STATUS "telemetry e2e ok: ${trace}")
