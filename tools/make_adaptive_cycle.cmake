# Generates the adaptive-closure counterexample tables that
# check_adaptive.cmake reads: the pristine D-Mod-K dump of the 16-node RLFT
# with one corrupted descent entry. Spine S2_0 sends destination 1 down
# port 1 (to leaf S1_1) instead of port 0 (to its leaf S1_0). D-Mod-K lifts
# destination 1 through S2_1 only, so no deterministic route enters S2_0
# for it and the deterministic CDG stays acyclic; an adaptive up-port choice
# at S1_1 can take S2_0, which closes S1_1[port 4] -> S2_0[port 1] -> S1_1.
if(NOT DEFINED TOOL OR NOT DEFINED OUT)
  message(FATAL_ERROR "make_adaptive_cycle.cmake needs -DTOOL= and -DOUT=")
endif()
set(pristine "${OUT}.pristine")
execute_process(
  COMMAND ${TOOL} route --nodes 16 --lft-out ${pristine}
  RESULT_VARIABLE rc
  OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "dumping the pristine 16-node tables exited ${rc}")
endif()
file(READ ${pristine} lft)

# Split at the S2_0 block and corrupt its first "1 : 0" entry, which must
# lie inside that block.
string(FIND "${lft}" "switch S2_0\n" block)
if(block EQUAL -1)
  message(FATAL_ERROR "pristine dump has no S2_0 block")
endif()
string(SUBSTRING "${lft}" 0 ${block} head)
string(SUBSTRING "${lft}" ${block} -1 tail)
string(FIND "${tail}" "\n1 : 0\n" entry)
string(FIND "${tail}" "\nswitch " next_block)
if(entry EQUAL -1 OR (NOT next_block EQUAL -1 AND entry GREATER next_block))
  message(FATAL_ERROR "S2_0 does not send destination 1 down port 0")
endif()
math(EXPR rest "${entry} + 7")
string(SUBSTRING "${tail}" 0 ${entry} before)
string(SUBSTRING "${tail}" ${rest} -1 after)
file(WRITE ${OUT} "${head}${before}\n1 : 1\n${after}")
