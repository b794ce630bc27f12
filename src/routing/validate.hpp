// Routing validation: reachability of every (src, dst) pair and the up*/down*
// property (a route never turns upward after its first descent), which is
// what makes fat-tree deterministic routing deadlock-free.
//
// Two entry points:
//   * validate_routing — the historical audit for complete tables; any
//     failure (including a missing entry) is a problem.
//   * validate_lft — usable on ANY tables, including degraded ones with
//     unprogrammed entries: unreachable destinations come back as typed
//     (src, dst) pairs instead of exceptions, while loops, diversions,
//     up-after-down turns and routes crossing dead links remain problems.
#pragma once

#include <optional>

#include "fault/degraded.hpp"
#include "routing/trace.hpp"
#include "topology/validate.hpp"

namespace ftcf::route {

/// Audit the tables. For fabrics above `exhaustive_limit` hosts, (src, dst)
/// pairs are sampled deterministically instead of enumerated.
topo::ValidationReport validate_routing(const topo::Fabric& fabric,
                                        const ForwardingTables& tables,
                                        std::uint64_t exhaustive_limit = 512);

struct RouteWalk {
  RouteStatus status = RouteStatus::kOk;
  std::vector<topo::PortId> links;  ///< links walked (up to the failure)
};

/// Non-throwing route walk: follows the tables from src towards dst and
/// classifies the outcome. With `faults`, additionally flags routes that
/// cross statically-down links or dead switches.
[[nodiscard]] RouteWalk walk_route(const topo::Fabric& fabric,
                                   const ForwardingTables& tables,
                                   std::uint64_t src, std::uint64_t dst,
                                   const fault::FaultState* faults = nullptr);

/// Externally-computed channel-dependency-graph verdict (produced by
/// check::analyze_cdg) that validate_lft cross-checks against its walks:
/// the walk audit samples (src, dst) pairs, the CDG covers every programmed
/// entry, and the two must never contradict each other.
struct CdgVerdict {
  bool acyclic = true;               ///< no dependency cycle: deadlock-free
  std::uint64_t down_up_turns = 0;   ///< dependencies turning up after down
  /// Virtual lanes the verdict was established over: 1 = the classic
  /// single-lane CDG; > 1 = `acyclic` means every lane's restricted graph is
  /// acyclic under a destination-based assignment (check::analyze_cdg_per_vl)
  /// with `down_up_turns` summed across lanes — the walk cross-check
  /// invariant (a bad walk turn implies a down->up dependency in the lane of
  /// the walk's destination) holds for any lane count.
  std::uint32_t lanes = 1;
};

/// Full reachability + deadlock-freedom audit of possibly-degraded tables.
struct LftAudit {
  std::uint64_t pairs_checked = 0;
  std::uint64_t pairs_reachable = 0;
  /// Walks that turned upward after descending (kNotUpDown outcomes).
  std::uint64_t not_updown_routes = 0;
  /// Surviving pairs whose walk hit an unprogrammed entry. Typed data, not
  /// an error: degraded fabrics legitimately strand host pairs.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> unreachable;
  /// Hard routing bugs: loops, diversions, up-after-down, dead-link usage.
  std::vector<std::string> problems;
  /// Set when a CdgVerdict was supplied: true = deadlock-freedom proved.
  std::optional<bool> deadlock_free;
  /// Walks hit an up-after-down turn the CDG claims cannot exist — an
  /// internal inconsistency between the two analyses.
  bool cdg_mismatch = false;

  /// No loops/diversions/up-after-down/dead links (unreachable pairs OK),
  /// and the CDG — when consulted — proved deadlock-freedom.
  [[nodiscard]] bool clean() const noexcept {
    return problems.empty() && deadlock_free.value_or(true);
  }
  /// clean() and every checked pair delivered.
  [[nodiscard]] bool all_reachable() const noexcept {
    return clean() && unreachable.empty();
  }
  /// First problem for one-line reports; synthesizes the CDG verdict when
  /// the walks themselves were clean. Empty when clean().
  [[nodiscard]] std::string first_problem() const;
};

/// Walk every ordered pair of surviving hosts (all hosts when `faults` is
/// null). Pairs are sampled deterministically above `exhaustive_limit`
/// hosts, like validate_routing. With `cdg`, the graph-based verdict is
/// folded in: a dependency cycle fails the audit even when no sampled walk
/// exposes it, and walk/CDG contradictions are reported as problems.
[[nodiscard]] LftAudit validate_lft(const topo::Fabric& fabric,
                                    const ForwardingTables& tables,
                                    const fault::FaultState* faults = nullptr,
                                    std::uint64_t exhaustive_limit = 512,
                                    const CdgVerdict* cdg = nullptr);

}  // namespace ftcf::route
