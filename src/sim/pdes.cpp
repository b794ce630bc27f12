// ParallelPacketSim: the partitioned shell over the shared engine core.
// See pdes.hpp for the synchronization scheme and determinism contract.
#include "sim/pdes.hpp"

#include "sim/engine_core.hpp"

namespace ftcf::sim {

ParallelPacketSim::ParallelPacketSim(const topo::Fabric& fabric,
                                     const route::ForwardingTables& tables,
                                     Calibration calibration)
    : fabric_(&fabric), tables_(&tables), calib_(calibration) {}

RunResult ParallelPacketSim::run(const std::vector<StageTraffic>& stages,
                                 Progression progression,
                                 std::uint64_t event_limit) {
  detail::EngineConfig cfg;
  cfg.fabric = fabric_;
  cfg.tables = tables_;
  cfg.calib = calib_;
  cfg.up_selection = up_selection_;
  cfg.jitter_max_ns = jitter_max_ns_;
  cfg.jitter_seed = jitter_seed_;
  cfg.obs = obs_;
  cfg.faults = faults_;
  cfg.resilience = resilience_;
  cfg.resilience_forced = resilience_forced_;
  const PartitionMap map =
      partition_fabric(*fabric_, partitions_ == 0 ? 1 : partitions_);
  stats_ = PdesStats{};
  RunResult result =
      detail::run_core(cfg, map, stages, progression, event_limit, &stats_);
  return result;
}

}  // namespace ftcf::sim
