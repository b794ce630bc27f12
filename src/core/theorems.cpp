#include "core/theorems.hpp"

#include <algorithm>
#include <sstream>

#include "check/certify.hpp"
#include "core/grouped_rd.hpp"
#include "cps/generators.hpp"
#include "routing/dmodk.hpp"

namespace ftcf::core {

namespace {

// The Shift is certified in windows of stages, so it holds
// kShiftWindow * n pairs at a time instead of n^2 (2.2 GB at 11664 hosts).
constexpr std::uint64_t kShiftWindow = 1024;

/// Fold the witnesses of `cert`, whose stage 0 is stage `first` of the
/// theorem's sequence, into `report`. `violates` picks the stages that break
/// the theorem; `describe` renders the first of them.
template <typename Violates, typename Describe>
void fold(TheoremReport& report, const check::Certificate& cert,
          std::uint64_t first, Violates violates, Describe describe) {
  for (std::size_t i = 0; i < cert.stages.size(); ++i) {
    const check::StageWitness& w = cert.stages[i];
    ++report.stages_checked;
    report.worst_up_hsd = std::max(report.worst_up_hsd, w.max_up_hsd);
    report.worst_down_hsd = std::max(report.worst_down_hsd, w.max_down_hsd);
    if (report.holds && violates(w)) {
      report.holds = false;
      std::ostringstream oss;
      describe(oss, first + i, w);
      report.detail = oss.str();
    }
  }
}

TheoremReport check_shift(const topo::Fabric& fabric, bool check_up,
                          bool check_down) {
  const route::ForwardingTables tables = route::DModKRouter{}.compute(fabric);
  const auto ordering = order::NodeOrdering::topology(fabric);
  const std::uint64_t n = fabric.num_hosts();
  TheoremReport report;
  // Stage index s is the Shift stage of displacement s + 1.
  for (std::uint64_t first = 0; first + 1 < n; first += kShiftWindow) {
    cps::Sequence window{.name = "shift", .num_ranks = n, .stages = {}};
    for (std::uint64_t s = first; s + 1 < n && s < first + kShiftWindow; ++s)
      window.stages.push_back(cps::shift_stage(n, s + 1));
    fold(
        report,
        check::certify_contention_freedom(fabric, tables, ordering, window),
        first,
        [&](const check::StageWitness& w) {
          return (check_up && w.max_up_hsd > 1) ||
                 (check_down && w.max_down_hsd > 1);
        },
        [](std::ostream& os, std::uint64_t s, const check::StageWitness& w) {
          os << "shift stage s=" << s + 1 << " has up HSD " << w.max_up_hsd
             << ", down HSD " << w.max_down_hsd;
        });
  }
  return report;
}

}  // namespace

TheoremReport check_theorem1(const topo::Fabric& fabric) {
  return check_shift(fabric, /*check_up=*/true, /*check_down=*/false);
}

TheoremReport check_theorem2(const topo::Fabric& fabric) {
  return check_shift(fabric, /*check_up=*/false, /*check_down=*/true);
}

TheoremReport check_theorem3(const topo::Fabric& fabric) {
  TheoremReport report;
  fold(
      report,
      check::certify_contention_freedom(
          fabric, route::DModKRouter{}.compute(fabric),
          order::NodeOrdering::topology(fabric),
          grouped_recursive_doubling(fabric)),
      0, [](const check::StageWitness& w) { return w.max_hsd > 1; },
      [](std::ostream& os, std::uint64_t s, const check::StageWitness& w) {
        os << "grouped RD stage " << s << " has HSD " << w.max_hsd;
      });
  return report;
}

}  // namespace ftcf::core
