// Link-load reporting helpers: per-level breakdowns of the per-port flow
// counts, used by Fig. 1 style demonstrations and diagnostics.
#pragma once

#include <string>
#include <vector>

#include "analysis/hsd.hpp"

namespace ftcf::analysis {

struct LevelLoad {
  std::uint32_t level = 0;      ///< boundary: links between level and level+1
  bool upward = false;          ///< direction of the counted links
  std::uint32_t max_load = 0;
  double avg_load = 0.0;        ///< over used links only
  std::uint64_t used_links = 0;
  std::uint64_t hot_links = 0;  ///< links with load > 1
};

/// Per level-boundary and direction load summary.
[[nodiscard]] std::vector<LevelLoad> per_level_loads(
    const topo::Fabric& fabric, const std::vector<std::uint32_t>& link_loads);

/// Render the loads of every up-going leaf-switch link, one leaf per line —
/// the exact picture of paper Fig. 1's top row of numbers.
[[nodiscard]] std::string render_leaf_up_loads(
    const topo::Fabric& fabric, const std::vector<std::uint32_t>& link_loads);

}  // namespace ftcf::analysis
