// PacketSim: the configuration shell over the shared engine core. A run is
// run_core over partition_fabric(P); P = 1 degenerates to the classic serial
// event loop, the differential oracle the `pdes` tests pin every partitioned
// run against.
#include "sim/packet_sim.hpp"

#include <algorithm>

#include "sim/engine_core.hpp"
#include "sim/partition.hpp"

namespace ftcf::sim {

PacketSim::PacketSim(const topo::Fabric& fabric,
                     const route::ForwardingTables& tables,
                     Calibration calibration) {
  cfg_.fabric = &fabric;
  cfg_.tables = &tables;
  cfg_.calib = calibration;
}

RunResult PacketSim::run(const std::vector<StageTraffic>& stages,
                         Progression progression, std::uint64_t event_limit) {
  const PartitionMap map =
      partition_fabric(*cfg_.fabric, std::max(partitions_, 1u));
  return detail::run_core(cfg_, map, stages, progression, event_limit, stats_);
}

}  // namespace ftcf::sim
