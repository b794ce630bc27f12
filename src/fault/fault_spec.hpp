// Fault specifications: a declarative description of what is broken (or will
// break) in a fabric, before it is resolved against concrete nodes/ports.
//
// Zahavi's theorems assume a pristine RLFT; production fabrics are never
// pristine. A FaultSpec captures the fault classes we model:
//   * link down       — one cable dead from t=0 (both directions);
//   * switch down     — a switch dead with all of its cables;
//   * degraded rate   — a cable running at a fraction of nominal bandwidth
//                       (a renegotiated-width/speed port);
//   * flap schedule   — a cable dying at a scripted sim time, optionally
//                       reviving later (the mid-run fault event);
//   * random links    — a seed-reproducible sample of switch-switch cables
//                       to kill (deterministic: same seed, same cables);
//   * repair          — a previously-failed cable or switch coming back at a
//                       scripted time (churn timelines; repair:link also
//                       drives the packet simulator's mid-run revival);
//   * mtbf schedule   — a random fail/repair timeline over sampled cables,
//                       MTBF/MTTR driven, seeded via util::derive_seed.
//
// Text grammar (one spec = comma-separated faults; see docs/FAULTS.md):
//   link:NODE:PORT[@t=T]        rate:NODE:PORT:FACTOR
//   switch:NODE[@t=T]           flap:NODE:PORT:DOWN_US[:UP_US]
//   rand-links:COUNT:SEED[@t=T]
//   repair:link:NODE:PORT@t=T   repair:switch:NODE@t=T
//   mtbf:COUNT:MTBF_US:MTTR_US:HORIZON_US:SEED
// T is a number with an optional unit suffix (us, ms, s; default us).
// NODE is a fabric node name ("S2_005", "H0013") or one of the aliases
// leafK (level-1 switch K), spineK (top-level switch K), or Ll_Sk (level l,
// ordinal k). Parse failures throw util::ParseError naming the bad token.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace ftcf::fault {

enum class FaultKind : std::uint8_t {
  kLinkDown,
  kSwitchDown,
  kDegradedRate,
  kLinkFlap,
  kRandomLinks,
  kRepairLink,
  kRepairSwitch,
  kMtbf,
};

/// One fault, still in name space (unresolved against a Fabric).
struct Fault {
  FaultKind kind = FaultKind::kLinkDown;
  std::string node;              ///< target node name/alias (not kRandomLinks)
  std::uint32_t port = 0;        ///< port index on `node` (link/rate/flap)
  double rate_factor = 1.0;      ///< kDegradedRate: fraction of nominal, (0,1]
  sim::SimTime down_at = 0;      ///< kLinkFlap: death time; kMtbf: MTBF (ns)
  sim::SimTime up_at = sim::kNever;  ///< kLinkFlap: revival; kMtbf: MTTR (ns)
  std::uint64_t count = 0;       ///< kRandomLinks/kMtbf: cables to touch
  std::uint64_t seed = 1;        ///< kRandomLinks/kMtbf: sampling seed
  /// Event time of the `@t=` suffix (ns); 0 = static (present from t=0).
  /// Repairs require a positive time — a fault cannot be repaired before
  /// it exists.
  sim::SimTime at = 0;
  sim::SimTime horizon = 0;      ///< kMtbf: schedule end (ns)

  [[nodiscard]] std::string to_string() const;
};

/// An ordered list of faults. Order matters only for reporting and for
/// repair tokens (a repair applies to the state built so far); the resolved
/// FaultState is otherwise the union of all faults.
struct FaultSpec {
  std::vector<Fault> faults;

  [[nodiscard]] bool empty() const noexcept { return faults.empty(); }
  [[nodiscard]] std::string to_string() const;
};

/// Parse the comma-separated grammar above. Throws util::ParseError with the
/// offending token on any malformed input; never crashes on garbage.
[[nodiscard]] FaultSpec parse_faults(const std::string& text);

}  // namespace ftcf::fault
