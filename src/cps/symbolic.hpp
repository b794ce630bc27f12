// Displacement algebra of CPS stages — closed-form stage descriptors.
//
// The enumerative pipeline materializes every (src, dst) pair of a stage;
// the symbolic certifier (check/symbolic.hpp) instead reasons about the
// *algebra* of a stage: a source-rank set (an arithmetic progression for
// every stage of the paper's eight CPS) plus either a constant displacement
// (dst = (src + d) mod N, Theorems 1-2) or a constant XOR distance
// (dst = src ^ d, the recursive-doubling family).
//
// Two ways to obtain the algebra:
//   * classify_stage_algebra reverse-engineers it from a materialized
//     Stage in O(pairs) — used when a concrete Sequence is in hand (the
//     CLI path), so crafted or hand-edited stages are classified honestly
//     (anything without a closed form is kOpaque, never mis-summarized);
//   * symbolic_sequence writes down the algebra of generate(kind, n)
//     directly from the generator definitions in O(stages), never
//     materializing a pair — this is what lets a million-endpoint shift
//     set (10^12 pairs) be described in milliseconds.
// The two agree by construction; tests/check/symbolic_test.cpp pins
// classify_stage_algebra(generate(kind, n)) == symbolic_sequence(kind, n)
// across kinds and rank counts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cps/generators.hpp"
#include "cps/stage.hpp"

namespace ftcf::cps {

/// Closed-form family of a stage's pair map.
enum class AlgebraKind : std::uint8_t {
  kEmpty,   ///< no pairs
  kShift,   ///< dst = (src + displacement) mod N for every pair
  kXor,     ///< dst = src ^ xor_mask for every pair (mask != 0)
  kOpaque,  ///< duplicate sources, out-of-range ranks, or no closed form
};

[[nodiscard]] const char* algebra_kind_name(AlgebraKind kind) noexcept;

/// The source ranks of a stage. Generator stages are always an arithmetic
/// progression base + stride*k (k < count); classification of arbitrary
/// stages falls back to an explicit sorted list when the sorted sources
/// have no constant gap.
struct SourceSet {
  bool strided = true;
  std::uint64_t base = 0;
  std::uint64_t stride = 1;  ///< >= 1 when strided and count > 1
  std::uint64_t count = 0;
  std::vector<std::uint64_t> values;  ///< sorted, used when !strided

  [[nodiscard]] std::uint64_t size() const noexcept {
    return strided ? count : values.size();
  }
};

/// Closed-form descriptor of one stage.
struct StageAlgebra {
  AlgebraKind kind = AlgebraKind::kEmpty;
  std::uint64_t displacement = 0;  ///< kShift: (dst - src) mod N
  std::uint64_t xor_mask = 0;      ///< kXor: src ^ dst
  SourceSet sources;
  StageRole role = StageRole::kExchange;
};

/// Closed-form descriptor of a whole sequence. `name` and `num_ranks` hold
/// the cps::Sequence values unchanged: they are the only sequence fields a
/// certificate copies, so the symbolic and enumerative certificates of one
/// sequence agree byte for byte.
struct SequenceAlgebra {
  std::string name;
  std::uint64_t num_ranks = 0;
  std::vector<StageAlgebra> stages;
};

/// Reverse-engineer the algebra of a materialized stage. O(pairs log pairs)
/// (one sort for duplicate detection and stride recovery). Returns kOpaque
/// whenever the stage is not *exactly* a constant shift or constant XOR
/// over distinct in-range sources — a duplicate source alone would load an
/// injection link twice, so nothing uncertain ever classifies closed-form.
[[nodiscard]] StageAlgebra classify_stage_algebra(const Stage& stage,
                                                  std::uint64_t num_ranks);

/// The algebra of generate(kind, n), built from the generator definitions
/// without materializing pairs. The degenerate XOR stage over the full
/// power-of-two domain with the top bit (n == 2^(r+1), d == n/2) is
/// normalized to its equivalent shift by n/2, matching what
/// classify_stage_algebra recovers from the materialized pairs.
[[nodiscard]] SequenceAlgebra symbolic_sequence(CpsKind kind,
                                                std::uint64_t n);

}  // namespace ftcf::cps
