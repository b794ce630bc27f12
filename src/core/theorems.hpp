// Computational verification of the paper's theorems.
//
// The appendix proves Theorems 1-2 for complete RLFTs; Theorem 3 covers the
// grouped bidirectional traffic of §VI. These checkers *measure* the claimed
// properties on an instantiated fabric, so tests (and users with bespoke
// topologies) can confirm the guarantees rather than trust them. Each one is
// a view of check::certify_contention_freedom over D-Mod-K tables, the
// topology order and the theorem's sequence.
#pragma once

#include <cstdint>
#include <string>

#include "topology/fabric.hpp"

namespace ftcf::core {

struct TheoremReport {
  bool holds = true;
  std::uint32_t worst_up_hsd = 0;
  std::uint32_t worst_down_hsd = 0;
  std::uint64_t stages_checked = 0;
  std::string detail;  ///< first violation, if any
};

/// Theorem 1: under D-Mod-K with topology ordering, every stage of the Shift
/// CPS routes at most one destination through any up-going port.
TheoremReport check_theorem1(const topo::Fabric& fabric);

/// Theorem 2: ... and at most one destination through any down-going port.
TheoremReport check_theorem2(const topo::Fabric& fabric);

/// Theorem 3: the grouped recursive-doubling sequence of §VI is
/// congestion-free (HSD == 1 on every link in every stage).
TheoremReport check_theorem3(const topo::Fabric& fabric);

}  // namespace ftcf::core
