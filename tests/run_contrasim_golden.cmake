# Pins contrasim's result lines, run via `cmake -P` from ctest:
#
#   cmake -DCONTRASIM=<binary> -DGOLDEN=<file> -P run_contrasim_golden.cmake
#
# Runs `contrasim --builtin fat-tree:4` for four planes (contra periodic,
# contra --triggered, ecmp, hula), packet-level and again under --hybrid, and
# compares their FCT/traffic/drops lines (plus the `fluid   :` line of the
# hybrid runs) with the golden file, which holds one "## <case>" section per
# run. The contra case is rerun with --shards 1 --workers 2: one shard is the
# serial engine whatever the worker count, so it must print the same lines.

if(NOT DEFINED CONTRASIM OR NOT DEFINED GOLDEN)
  message(FATAL_ERROR "need -DCONTRASIM=<binary> and -DGOLDEN=<file>")
endif()

# Sets `out` to the FCT/traffic/drops/fluid lines of one run; ARGN = extra
# flags.
function(result_lines out)
  execute_process(
    COMMAND "${CONTRASIM}" --builtin fat-tree:4 --duration-ms 10 --seed 3 ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "contrasim ${ARGN} failed (${rc}):\n${stdout}${stderr}")
  endif()
  string(REGEX MATCHALL "(FCT     :|traffic :|drops   :|fluid   :)[^\n]*\n" lines "${stdout}")
  string(JOIN "" text ${lines})
  set(${out} "${text}" PARENT_SCOPE)
endfunction()

result_lines(contra)
result_lines(triggered --triggered)
result_lines(ecmp --plane ecmp)
result_lines(hula --plane hula)
result_lines(contra_hybrid --hybrid)
result_lines(triggered_hybrid --triggered --hybrid)
result_lines(ecmp_hybrid --plane ecmp --hybrid)
result_lines(hula_hybrid --plane hula --hybrid)
set(actual "## contra\n${contra}## triggered\n${triggered}## ecmp\n${ecmp}## hula\n${hula}")
string(APPEND actual "## contra_hybrid\n${contra_hybrid}## triggered_hybrid\n${triggered_hybrid}"
                     "## ecmp_hybrid\n${ecmp_hybrid}## hula_hybrid\n${hula_hybrid}")

file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "contrasim result lines differ from ${GOLDEN}\n"
                      "expected:\n${expected}\nactual:\n${actual}")
endif()

result_lines(contra_s1w2 --shards 1 --workers 2)
if(NOT contra_s1w2 STREQUAL contra)
  message(FATAL_ERROR "--shards 1 --workers 2 changed the contra result lines\n"
                      "default:\n${contra}\n--shards 1 --workers 2:\n${contra_s1w2}")
endif()

message(STATUS "contrasim golden ok: ${GOLDEN}")
