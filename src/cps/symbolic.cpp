#include "cps/symbolic.hpp"

#include <algorithm>
#include <bit>

#include "util/expects.hpp"

namespace ftcf::cps {

using util::expects;

namespace {

std::uint32_t floor_log2(std::uint64_t n) {
  return 63u - static_cast<std::uint32_t>(std::countl_zero(n));
}

std::uint64_t pow2_floor(std::uint64_t n) { return 1ULL << floor_log2(n); }

SourceSet strided(std::uint64_t base, std::uint64_t stride,
                  std::uint64_t count) {
  SourceSet s;
  s.strided = true;
  s.base = base;
  s.stride = stride;
  s.count = count;
  return s;
}

StageAlgebra shift_algebra(std::uint64_t displacement, SourceSet sources,
                           StageRole role = StageRole::kExchange) {
  StageAlgebra a;
  a.kind = AlgebraKind::kShift;
  a.displacement = displacement;
  a.sources = std::move(sources);
  a.role = role;
  return a;
}

/// One recursive-doubling/halving XOR stage over [0, n2). The top-bit stage
/// of a full power-of-two job (n == n2, d == n/2) is the one XOR map that
/// is *also* a constant shift (i ^ n/2 == (i + n/2) mod n over [0, n)), and
/// classify_stage_algebra recovers the shift form first — normalize to it.
StageAlgebra xor_algebra(std::uint64_t n, std::uint64_t n2,
                         std::uint64_t step) {
  StageAlgebra a;
  a.sources = strided(0, 1, n2);
  if (n == n2 && step * 2 == n) {
    a.kind = AlgebraKind::kShift;
    a.displacement = step;
  } else {
    a.kind = AlgebraKind::kXor;
    a.xor_mask = step;
  }
  return a;
}

}  // namespace

const char* algebra_kind_name(AlgebraKind kind) noexcept {
  switch (kind) {
    case AlgebraKind::kEmpty: return "empty";
    case AlgebraKind::kShift: return "shift";
    case AlgebraKind::kXor: return "xor";
    case AlgebraKind::kOpaque: return "opaque";
  }
  return "?";
}

StageAlgebra classify_stage_algebra(const Stage& stage,
                                    std::uint64_t num_ranks) {
  StageAlgebra out;
  out.role = stage.role;
  if (stage.pairs.empty()) return out;  // kEmpty

  std::vector<std::uint64_t> srcs;
  srcs.reserve(stage.pairs.size());
  for (const Pair& p : stage.pairs) {
    if (p.src >= num_ranks || p.dst >= num_ranks) {
      out.kind = AlgebraKind::kOpaque;
      return out;
    }
    srcs.push_back(p.src);
  }
  if (!std::is_sorted(srcs.begin(), srcs.end()))
    std::sort(srcs.begin(), srcs.end());
  // A duplicate source would load its injection link once per pair — no
  // closed-form single-load argument can cover that, so refuse outright.
  if (std::adjacent_find(srcs.begin(), srcs.end()) != srcs.end()) {
    out.kind = AlgebraKind::kOpaque;
    return out;
  }

  const Pair& first = stage.pairs.front();
  const std::uint64_t d0 = displacement(first, num_ranks);
  bool is_shift = true;
  for (const Pair& p : stage.pairs) {
    if (displacement(p, num_ranks) != d0) {
      is_shift = false;
      break;
    }
  }
  if (is_shift) {
    out.kind = AlgebraKind::kShift;
    out.displacement = d0;
  } else {
    const std::uint64_t mask = first.src ^ first.dst;
    bool is_xor = mask != 0;
    for (const Pair& p : stage.pairs) {
      if ((p.src ^ p.dst) != mask) {
        is_xor = false;
        break;
      }
    }
    if (!is_xor) {
      out.kind = AlgebraKind::kOpaque;
      return out;
    }
    out.kind = AlgebraKind::kXor;
    out.xor_mask = mask;
  }

  // Recover the source progression; arbitrary stages keep the sorted list.
  if (srcs.size() == 1) {
    out.sources = strided(srcs.front(), 1, 1);
    return out;
  }
  const std::uint64_t gap = srcs[1] - srcs[0];
  bool constant_gap = gap != 0;
  for (std::size_t k = 2; constant_gap && k < srcs.size(); ++k) {
    constant_gap = srcs[k] - srcs[k - 1] == gap;
  }
  if (constant_gap) {
    out.sources = strided(srcs.front(), gap, srcs.size());
  } else {
    out.sources.strided = false;
    out.sources.values = std::move(srcs);
  }
  return out;
}

SequenceAlgebra symbolic_sequence(CpsKind kind, std::uint64_t n) {
  expects(n >= 2, "a CPS needs at least 2 ranks");
  SequenceAlgebra seq;
  seq.name = cps_name(kind);
  seq.num_ranks = n;
  switch (kind) {
    case CpsKind::kRing:
      seq.stages.push_back(shift_algebra(1, strided(0, 1, n)));
      break;
    case CpsKind::kShift:
      seq.stages.reserve(n - 1);
      for (std::uint64_t s = 1; s < n; ++s)
        seq.stages.push_back(shift_algebra(s, strided(0, 1, n)));
      break;
    case CpsKind::kBinomial:
      for (std::uint64_t step = 1; step < n; step <<= 1)
        seq.stages.push_back(
            shift_algebra(step, strided(0, 1, std::min(step, n - step))));
      break;
    case CpsKind::kDissemination:
      for (std::uint64_t step = 1; step < n; step <<= 1)
        seq.stages.push_back(shift_algebra(step, strided(0, 1, n)));
      break;
    case CpsKind::kTournament:
      for (std::uint64_t step = 1; step < n; step <<= 1) {
        // Sources are the i + step for i = 0, 2*step, ... with i + step < n.
        const std::uint64_t count = (n - 1 - step) / (2 * step) + 1;
        seq.stages.push_back(
            shift_algebra(n - step, strided(step, 2 * step, count)));
      }
      break;
    case CpsKind::kLinear:
      seq.stages.reserve(n - 1);
      for (std::uint64_t i = 1; i < n; ++i)
        seq.stages.push_back(shift_algebra(i, strided(0, 1, 1)));
      break;
    case CpsKind::kRecursiveDoubling:
    case CpsKind::kRecursiveHalving: {
      const std::uint64_t n2 = pow2_floor(n);
      const std::uint64_t extras = n - n2;
      const std::uint32_t rounds = floor_log2(n2);
      if (extras > 0)
        seq.stages.push_back(shift_algebra(n - n2, strided(n2, 1, extras),
                                           StageRole::kFold));
      const bool ascending = kind == CpsKind::kRecursiveDoubling;
      for (std::uint32_t r = 0; r < rounds; ++r) {
        const std::uint64_t step =
            ascending ? (1ULL << r) : (1ULL << (rounds - 1 - r));
        seq.stages.push_back(xor_algebra(n, n2, step));
      }
      if (extras > 0)
        seq.stages.push_back(
            shift_algebra(n2, strided(0, 1, extras), StageRole::kUnfold));
      break;
    }
  }
  return seq;
}

}  // namespace ftcf::cps
