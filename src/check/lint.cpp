#include "check/lint.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "topology/validate.hpp"

namespace ftcf::check {

using topo::Fabric;
using topo::NodeId;
using topo::PgftSpec;

namespace {

constexpr std::size_t kMaxPerRule = 8;  ///< findings cap per repeated rule

void lint_structure(const Fabric& fabric, Diagnostics& diagnostics) {
  const topo::ValidationReport report = topo::validate_fabric(fabric);
  std::size_t shown = 0;
  for (const std::string& problem : report.problems) {
    if (shown == kMaxPerRule) {
      diagnostics.note("pgft-structure", "",
                       std::to_string(report.problems.size() - kMaxPerRule) +
                           " further structure problem(s) not shown");
      break;
    }
    diagnostics.error("pgft-structure", "", problem);
    ++shown;
  }
}

void lint_cbb(const Fabric& fabric, Diagnostics& diagnostics) {
  const PgftSpec& spec = fabric.spec();
  for (std::uint32_t l = 1; l < spec.height(); ++l) {
    const std::uint64_t below =
        static_cast<std::uint64_t>(spec.m(l)) * spec.p(l);
    const std::uint64_t above =
        static_cast<std::uint64_t>(spec.w(l + 1)) * spec.p(l + 1);
    if (below == above) continue;
    std::ostringstream oss;
    oss << "cross-bisectional bandwidth is not constant at level " << l
        << ": m_" << l << "*p_" << l << " = " << below << " but w_" << l + 1
        << "*p_" << l + 1 << " = " << above
        << "; Theorems 1-2 (contention-free shift under D-Mod-K) "
           "do not apply";
    diagnostics.warning("rlft-cbb", "level " + std::to_string(l),
                        oss.str());
    return;
  }
  // Spec-level CBB holds; confirm the instantiated graph agrees (imported
  // fabrics could in principle diverge from their spec line).
  const topo::ValidationReport cbb = topo::validate_constant_cbb(fabric);
  if (!cbb.ok)
    diagnostics.warning("rlft-cbb", "", cbb.problems.front() +
                            "; Theorems 1-2 do not apply");
}

void lint_radix(const Fabric& fabric, Diagnostics& diagnostics) {
  const PgftSpec& spec = fabric.spec();
  if (spec.has_constant_arity()) return;
  std::ostringstream oss;
  oss << "switch radix varies across levels (";
  for (std::uint32_t l = 1; l <= spec.height(); ++l) {
    if (l > 1) oss << ", ";
    oss << "level " << l << ": "
        << static_cast<std::uint64_t>(spec.m(l)) * spec.p(l) << " down-ports";
  }
  oss << "); the fabric is not an RLFT, so the paper's closed-form "
         "guarantees are void";
  diagnostics.warning("rlft-radix", "", oss.str());
}

void lint_single_cable(const Fabric& fabric, Diagnostics& diagnostics) {
  const PgftSpec& spec = fabric.spec();
  if (spec.has_single_cable_hosts()) return;
  std::ostringstream oss;
  oss << "hosts have w_1*p_1 = "
      << static_cast<std::uint64_t>(spec.w(1)) * spec.p(1)
      << " cables; RLFTs require single-cable hosts (w_1 == p_1 == 1), and "
         "the D-Mod-K node-order guarantees assume it";
  diagnostics.warning("rlft-single-cable", "", oss.str());
}

void lint_parallel_ports(const Fabric& fabric, Diagnostics& diagnostics) {
  const PgftSpec& spec = fabric.spec();
  // Every (lower, upper) adjacent node pair must be joined by exactly
  // p_{l+1} parallel cables, and a level-l node must see exactly w_{l+1}
  // distinct parents.
  for (NodeId id = 0; id < fabric.num_nodes(); ++id) {
    const topo::Node& node = fabric.node(id);
    if (node.level >= spec.height()) continue;  // top level has no up-ports
    const std::uint32_t expect_parallel = spec.p(node.level + 1);
    const std::uint32_t expect_parents = spec.w(node.level + 1);
    std::map<NodeId, std::uint32_t> per_parent;
    for (std::uint32_t i = 0; i < node.num_up_ports; ++i)
      ++per_parent[fabric.neighbor(id, node.num_down_ports + i)];
    if (per_parent.size() != expect_parents) {
      std::ostringstream oss;
      oss << fabric.node_name(id) << " connects to " << per_parent.size()
          << " parent(s), spec requires w_" << node.level + 1 << " = "
          << expect_parents;
      diagnostics.warning("rlft-parallel-ports", fabric.node_name(id),
                          oss.str());
      return;
    }
    for (const auto& [parent, cables] : per_parent) {
      if (cables == expect_parallel) continue;
      std::ostringstream oss;
      oss << fabric.node_name(id) << " -> " << fabric.node_name(parent)
          << " has " << cables << " parallel cable(s), spec requires p_"
          << node.level + 1 << " = " << expect_parallel
          << "; grouped parallel-port displacement arguments assume "
             "uniform rails";
      diagnostics.warning("rlft-parallel-ports", fabric.node_name(id),
                          oss.str());
      return;
    }
  }
}

/// Degraded-wiring notes: with cables or switches removed, the *surviving*
/// fabric no longer satisfies the structural premises even when the
/// pristine wiring does. Fabric objects always describe the pristine graph
/// (faults overlay it), so these fire as notes alongside the pristine lints.
void lint_degraded_structure(const Fabric& fabric,
                             const fault::FaultState& faults,
                             Diagnostics& diagnostics) {
  if (faults.pristine()) return;
  const std::uint64_t cables = faults.cables_down();
  const std::uint64_t switches = faults.switches_down();
  if (cables == 0 && switches == 0) return;  // rate-only degradation
  {
    std::ostringstream oss;
    oss << "fault state removes " << cables << " cable(s) and " << switches
        << " switch(es); the surviving fabric violates the PGFT wiring rule "
           "(structural lints above describe the pristine wiring)";
    diagnostics.note("pgft-structure", "degraded", oss.str());
  }
  {
    std::ostringstream oss;
    oss << "cross-bisectional bandwidth is not constant on the surviving "
           "fabric ("
        << faults.surviving_hosts().size() << " of " << fabric.num_hosts()
        << " hosts reachable); Theorems 1-2 apply to the pristine wiring "
           "only";
    diagnostics.note("rlft-cbb", "degraded", oss.str());
  }
}

}  // namespace

const char* stage_shape_name(StageShape shape) noexcept {
  switch (shape) {
    case StageShape::kEmpty: return "empty";
    case StageShape::kConstantShift: return "constant-shift";
    case StageShape::kSymmetricExchange: return "symmetric-exchange";
    case StageShape::kIrregular: return "irregular";
  }
  return "?";
}

StageShape classify_stage_shape(const cps::Stage& stage,
                                std::uint64_t num_ranks) {
  if (stage.pairs.empty() || num_ranks == 0) return StageShape::kEmpty;
  const std::uint64_t n = num_ranks;

  // Constant shift: the same (dst - src) mod N for every pair.
  bool constant_shift = true;
  const std::uint64_t d0 = cps::displacement(stage.pairs.front(), n);
  for (const cps::Pair& pr : stage.pairs) {
    if (cps::displacement(pr, n) != d0) {
      constant_shift = false;
      break;
    }
  }
  if (constant_shift) return StageShape::kConstantShift;

  // Symmetric constant-distance exchange: |dst - src| constant and the
  // pair set is an involution (grouped-RD / recursive-doubling shape).
  const cps::Pair& f = stage.pairs.front();
  const std::uint64_t dist0 = f.dst > f.src ? f.dst - f.src : f.src - f.dst;
  std::vector<cps::Pair> sorted = stage.pairs;
  std::sort(sorted.begin(), sorted.end());
  for (const cps::Pair& pr : stage.pairs) {
    const std::uint64_t dist =
        pr.dst > pr.src ? pr.dst - pr.src : pr.src - pr.dst;
    if (dist != dist0 ||
        !std::binary_search(sorted.begin(), sorted.end(),
                            cps::Pair{pr.dst, pr.src}))
      return StageShape::kIrregular;
  }
  return StageShape::kSymmetricExchange;
}

void lint_fabric(const Fabric& fabric, Diagnostics& diagnostics,
                 const fault::FaultState* faults) {
  lint_structure(fabric, diagnostics);
  lint_cbb(fabric, diagnostics);
  lint_radix(fabric, diagnostics);
  lint_single_cable(fabric, diagnostics);
  lint_parallel_ports(fabric, diagnostics);
  if (faults != nullptr) lint_degraded_structure(fabric, *faults, diagnostics);
}

void lint_ordering(const Fabric& fabric, const order::NodeOrdering& ordering,
                   Diagnostics& diagnostics) {
  const std::uint64_t ranks = ordering.num_ranks();
  const bool partial = ranks < fabric.num_hosts();
  if (partial)
    diagnostics.note("order-partial", "",
                     "ordering covers " + std::to_string(ranks) + " of " +
                         std::to_string(fabric.num_hosts()) +
                         " hosts; Theorems 1-2 assume a full job (a single "
                         "sub-allocation residue class also shifts "
                         "contention-free, see paper Sec. V)");

  // Full jobs must place rank r on host r; partial jobs must keep ranks in
  // ascending host order (the compact restriction of the topology order).
  std::uint64_t mismatches = 0;
  std::string first;
  std::uint64_t prev_host = 0;
  for (std::uint64_t r = 0; r < ranks; ++r) {
    const std::uint64_t host = ordering.host_of(r);
    const bool bad = partial ? (r > 0 && host <= prev_host) : (host != r);
    if (bad) {
      ++mismatches;
      if (first.empty()) {
        std::ostringstream oss;
        oss << "rank " << r << " -> host " << host;
        if (!partial) oss << ", topology order requires host " << r;
        first = oss.str();
      }
    }
    prev_host = host;
  }
  if (mismatches != 0) {
    std::ostringstream oss;
    oss << "node order differs from the RLFT index order at " << mismatches
        << " rank(s) (first: " << first
        << "); D-Mod-K loses the HSD=1 guarantee of Theorems 1-2 under "
           "this placement";
    diagnostics.warning("order-mismatch", "", oss.str());
  }
}

void lint_sequence(const cps::Sequence& sequence, Diagnostics& diagnostics) {
  const std::uint64_t n = sequence.num_ranks;
  std::size_t shown = 0;
  std::uint64_t violations = 0;
  for (std::size_t s = 0; s < sequence.stages.size(); ++s) {
    if (classify_stage_shape(sequence.stages[s], n) != StageShape::kIrregular)
      continue;
    ++violations;
    if (shown < 4) {
      ++shown;
      diagnostics.warning(
          "cps-displacement", "stage " + std::to_string(s),
          "stage has no constant displacement (neither a constant shift "
          "nor a symmetric constant-distance exchange); the stage-"
          "displacement premise of Theorem 3 does not hold, so HSD=1 is "
          "not guaranteed even under D-Mod-K with topology order");
    }
  }
  if (violations > shown)
    diagnostics.note("cps-displacement", "",
                     std::to_string(violations - shown) +
                         " further stage(s) with non-constant displacement");
}

void lint_tables(const Fabric& fabric, const route::ForwardingTables& tables,
                 bool degraded_expected, Diagnostics& diagnostics) {
  if (tables.complete()) return;
  std::uint64_t missing = 0;
  for (const NodeId sw : fabric.switch_ids())
    for (std::uint64_t d = 0; d < fabric.num_hosts(); ++d)
      if (!tables.has_entry(sw, d)) ++missing;
  std::ostringstream oss;
  oss << missing << " unprogrammed (switch, destination) entr"
      << (missing == 1 ? "y" : "ies");
  if (degraded_expected) {
    oss << " (expected on a degraded fabric: destinations with no "
           "surviving path stay unrouted)";
    diagnostics.note("lft-incomplete", "", oss.str());
  } else {
    oss << " on a pristine fabric; affected pairs cannot communicate";
    diagnostics.warning("lft-incomplete", "", oss.str());
  }
}

}  // namespace ftcf::check
