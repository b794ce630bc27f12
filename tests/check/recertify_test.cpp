// Direct IncrementalCertifier coverage: the per-event delta counts and the
// incremental-vs-full certificate equality it promises. The streaming
// engine's end-to-end behaviour (timelines, oracles, reports) lives in
// tests/churn/.
#include <gtest/gtest.h>

#include <sstream>

#include "check/certify.hpp"
#include "check/recertify.hpp"
#include "cps/generators.hpp"
#include "fault/degraded.hpp"
#include "routing/incremental.hpp"
#include "topology/presets.hpp"

namespace ftcf::check {
namespace {

struct Rig {
  Rig()
      : fabric(topo::fig4b_pgft16()),
        state(fabric, fault::parse_faults("")),
        repair(state),
        ordering(order::NodeOrdering::topology(fabric)),
        sequence(cps::shift(fabric.num_hosts())),
        recert(fabric, repair.tables(), ordering, sequence) {}

  [[nodiscard]] std::string full_json() const {
    const Certificate cert = certify_contention_freedom(
        fabric, repair.tables(), ordering, sequence);
    std::ostringstream oss;
    write_certificate_json(oss, cert, {});
    return oss.str();
  }
  [[nodiscard]] std::string incremental_json() const {
    std::ostringstream oss;
    write_certificate_json(oss, recert.certificate(), {});
    return oss.str();
  }

  topo::Fabric fabric;
  fault::FaultState state;
  route::IncrementalRepair repair;
  order::NodeOrdering ordering;
  cps::Sequence sequence;
  IncrementalCertifier recert;
};

TEST(Recertify, CertificateTracksFullCertifyThroughFailAndRepair) {
  Rig rig;
  const topo::NodeId leaf = rig.fabric.switch_node(1, 0);
  const topo::PortId cable =
      rig.fabric.port_id(leaf, rig.fabric.node(leaf).num_down_ports);

  EXPECT_EQ(rig.incremental_json(), rig.full_json());
  const CertificateDelta failed =
      rig.recert.update(rig.repair.fail_cable(cable));
  EXPECT_TRUE(failed.applied);
  EXPECT_GT(failed.flows_rewalked, 0u);
  EXPECT_EQ(rig.incremental_json(), rig.full_json());
  (void)rig.recert.update(rig.repair.repair_cable(cable));
  EXPECT_EQ(rig.incremental_json(), rig.full_json());

  // A delta that routed nothing new re-walks nothing and keeps the verdict.
  const CertificateDelta idle = rig.recert.update(route::RepairDelta{});
  EXPECT_FALSE(idle.applied);
  EXPECT_EQ(idle.flows_rewalked, 0u);
  EXPECT_TRUE(idle.contention_free);
}

}  // namespace
}  // namespace ftcf::check
