// Internal entry point of the packet-simulation engine core.
//
// PacketSim is a thin configuration shell over one engine: run_core executes
// the simulation over a PartitionMap — one logical process per partition,
// conservatively synchronized windows with the cut-through cable delay as
// lookahead. A single-partition map degenerates to the classic serial event
// loop. Having exactly one implementation is what makes "partitioned ≡
// serial" a structural property rather than a maintenance promise; the
// `pdes` differential tests pin it from the outside.
//
// This header is internal to ftcf::sim — tools and tests use packet_sim.hpp.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/packet_sim.hpp"
#include "sim/partition.hpp"

namespace ftcf::sim::detail {

/// Run the simulation over `map` (1 partition = serial loop, >1 = windowed
/// conservative PDES). `stats` receives the window/channel counts.
[[nodiscard]] RunResult run_core(const EngineConfig& cfg,
                                 const PartitionMap& map,
                                 const std::vector<StageTraffic>& stages,
                                 Progression progression,
                                 std::uint64_t event_limit, PdesStats& stats);

}  // namespace ftcf::sim::detail
