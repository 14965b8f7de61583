# Writes examples/constraints_demo's two certificates (a vocabulary-
# constrained solution and a capacity infeasibility) and replays both
# through tools/proof_check --strict. Registered as the `proof_replay` ctest
# (tools/CMakeLists.txt); by hand:
#
#   cmake -DDEMO=build/examples/constraints_demo \
#         -DCHECK=build/tools/proof_check -DDIR=/tmp -P tools/proof_replay.cmake
#
# Fails when either program exits non-zero.

set(solution "${DIR}/proof_replay_constrained.dprf")
set(infeasible "${DIR}/proof_replay_infeasible.dprf")
file(REMOVE "${solution}" "${infeasible}")

execute_process(
  COMMAND "${DEMO}" --proof "${solution}" --infeasible-proof "${infeasible}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "constraints_demo failed: ${rc}")
endif()

execute_process(
  COMMAND "${CHECK}" --strict "${solution}" "${infeasible}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "proof_check --strict failed: ${rc}")
endif()
