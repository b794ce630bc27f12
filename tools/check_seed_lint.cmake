# Determinism lint, two passes over the whole tree:
#
# 1. Seed derivation. Deriving a per-trial/per-cable seed by *addition*
#    (`seed + t`) silently correlates runs — the ensembles for adjacent base
#    seeds share all but one derived stream. util::derive_seed
#    (src/util/rng.hpp) is the only sanctioned derivation; the lint fails on
#    any `seed... +` or `+ ...seed` arithmetic in non-comment source (the
#    churn MTBF expansion in particular leans on it). It also fails on a
#    seeded constructor (NodeOrdering::random / leaf_random, Xoshiro256,
#    SplitMix64) whose last argument is literal-plus-index (`1000 + t`,
#    `t + 7`): the same additive derivation with no identifier saying
#    "seed". A planted-case self-test keeps that pattern armed.
#
# 2. Unordered containers in serialization TUs. Every emitted byte stream in
#    this repo (certificates, proofs, diagnostics, heatmaps, reports,
#    BENCH_*.json) is pinned byte-identical across thread counts and reruns;
#    iterating an unordered_map/unordered_set while writing would leak hash
#    ordering into the output. Any translation unit that defines or calls a
#    `*_json(` writer must not mention either container — use std::map /
#    std::set / sorted vectors instead.
if(NOT DEFINED REPO_ROOT)
  message(FATAL_ERROR "check_seed_lint.cmake needs -DREPO_ROOT=")
endif()

set(seeded_literal_plus_index
    "(NodeOrdering::random|NodeOrdering::leaf_random|Xoshiro256|SplitMix64)([ \t]+[a-zA-Z_][a-zA-Z0-9_]*)?[ \t]*[({]([^(){}]*,)?[ \t]*([0-9]+[uUlL]*[ \t]*\\+[ \t]*[a-zA-Z_][a-zA-Z0-9_.]*|[a-zA-Z_][a-zA-Z0-9_.]*[ \t]*\\+[ \t]*[0-9]+[uUlL]*)[ \t]*[)}]")
foreach(planted
        "    const auto o = order::NodeOrdering::random(fabric, 1000 + t);"
        "  util::Xoshiro256 rng(t + 7u);"
        "  NodeOrdering::leaf_random(fabric, 5 + trial)")
  if(NOT planted MATCHES "${seeded_literal_plus_index}")
    message(FATAL_ERROR "seed lint self-test: planted case not flagged: ${planted}")
  endif()
endforeach()
foreach(sanctioned
        "  util::Xoshiro256 rng(util::derive_seed(fault.seed, 1 + i));"
        "  NodeOrdering::random(fabric, util::derive_seed(seed, t))"
        "  const std::string text = random_text(rng, 1 + rng.below(60));")
  if(sanctioned MATCHES "${seeded_literal_plus_index}")
    message(FATAL_ERROR "seed lint self-test: sanctioned case flagged: ${sanctioned}")
  endif()
endforeach()

file(GLOB_RECURSE sources RELATIVE ${REPO_ROOT}
     ${REPO_ROOT}/src/*.cpp ${REPO_ROOT}/src/*.hpp
     ${REPO_ROOT}/tools/*.cpp ${REPO_ROOT}/tests/*.cpp
     ${REPO_ROOT}/bench/*.cpp ${REPO_ROOT}/bench/*.hpp
     ${REPO_ROOT}/examples/*.cpp)

set(seed_violations "")
set(unordered_violations "")
foreach(rel IN LISTS sources)
  file(READ ${REPO_ROOT}/${rel} content)
  # A serialization/writer TU defines or calls some `*_json(` emitter.
  if(content MATCHES "_json[ \t]*\\(")
    set(writes_json TRUE)
  else()
    set(writes_json FALSE)
  endif()
  # Split into lines while protecting embedded semicolons (list separators).
  string(REPLACE ";" "\\;" content "${content}")
  string(REPLACE "\n" ";" content "${content}")
  set(lineno 0)
  foreach(line IN LISTS content)
    math(EXPR lineno "${lineno} + 1")
    string(REGEX REPLACE "//.*$" "" code "${line}")
    if(code MATCHES "[sS]eed[a-zA-Z0-9_]*[ \t]*\\+" OR
       code MATCHES "\\+[ \t]*[a-zA-Z0-9_]*[sS]eed([^a-zA-Z0-9_]|$)" OR
       code MATCHES "${seeded_literal_plus_index}")
      string(APPEND seed_violations "  ${rel}:${lineno}: ${line}\n")
    endif()
    if(writes_json AND code MATCHES "unordered_(map|set)")
      string(APPEND unordered_violations "  ${rel}:${lineno}: ${line}\n")
    endif()
  endforeach()
endforeach()

set(failures "")
if(NOT seed_violations STREQUAL "")
  string(APPEND failures
         "seed derivation by addition found (use util::derive_seed):\n"
         "${seed_violations}")
endif()
if(NOT unordered_violations STREQUAL "")
  string(APPEND failures
         "unordered container in a serialization TU (hash iteration order "
         "would leak into pinned byte streams; use std::map/std::set or a "
         "sorted vector):\n${unordered_violations}")
endif()
if(NOT failures STREQUAL "")
  message(FATAL_ERROR "${failures}")
endif()
message(STATUS "determinism lint clean (seed derivation + serialization containers)")
