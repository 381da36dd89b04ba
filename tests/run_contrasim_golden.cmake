# Pins contrasim's result lines, run via `cmake -P` from ctest:
#
#   cmake -DCONTRASIM=<binary> -DGOLDEN=<file> -P run_contrasim_golden.cmake
#
# Runs `contrasim --builtin fat-tree:4` for four planes (contra periodic,
# contra --triggered, ecmp, hula) and compares their FCT/traffic/drops lines
# with the golden file, which holds one "## <case>" section per plane. The
# contra case is rerun with --shards 1 --workers 2: one shard is the serial
# engine whatever the worker count, so it must print the same lines.

if(NOT DEFINED CONTRASIM OR NOT DEFINED GOLDEN)
  message(FATAL_ERROR "need -DCONTRASIM=<binary> and -DGOLDEN=<file>")
endif()

# Sets `out` to the FCT/traffic/drops lines of one run; ARGN = extra flags.
function(result_lines out)
  execute_process(
    COMMAND "${CONTRASIM}" --builtin fat-tree:4 --duration-ms 10 --seed 3 ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "contrasim ${ARGN} failed (${rc}):\n${stdout}${stderr}")
  endif()
  string(REGEX MATCHALL "(FCT     :|traffic :|drops   :)[^\n]*\n" lines "${stdout}")
  string(JOIN "" text ${lines})
  set(${out} "${text}" PARENT_SCOPE)
endfunction()

result_lines(contra)
result_lines(triggered --triggered)
result_lines(ecmp --plane ecmp)
result_lines(hula --plane hula)
set(actual "## contra\n${contra}## triggered\n${triggered}## ecmp\n${ecmp}## hula\n${hula}")

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
