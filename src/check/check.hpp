// ftcf::check — static routing/ordering analyzer and prover (the library's
// "compiler warnings for route plans", grown into a certificate emitter).
//
// run_check combines, over any ForwardingTables:
//   1. the CDG deadlock prover (check/cdg.hpp): proves deadlock-freedom or
//      produces a concrete dependency cycle;
//   2. the theorem-precondition linter (check/lint.hpp): which of the
//      paper's guarantees still apply to this fabric/ordering/CPS;
//   3. the walk-based table audit (route::validate_lft), rewired to consume
//      the CDG verdict so the two analyses cross-check each other;
//   4. optionally, the contention-freedom certifier (check/certify.hpp):
//      per-stage HSD = 1 witnesses or root-cause blame;
//   5. optionally, the per-virtual-lane CDG search (check/vl.hpp): the
//      minimum destination->lane assignment breaking every cycle;
//   6. optionally, the adaptive-relation CDG (check/cdg.hpp): the same
//      Dally–Seitz proof over every up-port choice adaptive routing admits.
//
// All findings land in one Diagnostics sink with stable rule IDs; the JSON
// report is deterministic and byte-identical at any --threads count. CI
// gates on the exit-code contract: 0 clean, 1 findings at the gate severity.
#pragma once

#include <optional>

#include "check/cdg.hpp"
#include "check/certify.hpp"
#include "check/diagnostics.hpp"
#include "check/lint.hpp"
#include "check/replay.hpp"
#include "check/symbolic.hpp"
#include "check/vl.hpp"
#include "check/vl_optimal.hpp"
#include "fault/degraded.hpp"
#include "obs/metrics.hpp"
#include "routing/validate.hpp"

namespace ftcf::check {

struct CheckOptions {
  /// Fault state the tables were (or should have been) built against; when
  /// set, unreachable pairs and unprogrammed entries demote to notes and the
  /// structural lints additionally describe the degraded wiring.
  const fault::FaultState* faults = nullptr;
  /// When set, lint the node ordering against the RLFT index order.
  const order::NodeOrdering* ordering = nullptr;
  /// When set, lint the CPS's stage displacements (Theorem 3 premise).
  const cps::Sequence* sequence = nullptr;
  /// Pair-sampling threshold forwarded to route::validate_lft.
  std::uint64_t exhaustive_limit = 512;
  /// Baseline findings to silence. Entries naming rules outside the
  /// known-rule catalog raise `suppress-unknown-rule` warnings.
  Suppressions suppressions;
  /// Run the contention-freedom certifier (requires `ordering` and
  /// `sequence`; rules cert-ok / hsd-violation / blame-<rule>).
  bool certify = false;
  /// With `certify`: try the symbolic prover (check/symbolic.hpp) first.
  /// When it applies, the certificate is derived algebraically (rule
  /// cert-symbolic-ok names the per-level digit permutations); when it
  /// declines, rule symbolic-inapplicable records the pinpointed reason and
  /// the enumerative certifier runs as before. Requires
  /// `tables_canonical_dmodk` for the proof to apply.
  bool symbolic = false;
  /// With `symbolic`: additionally run the enumerative certifier and
  /// byte-compare the two certificates (differential cross-check). Any
  /// divergence raises cert-symbolic-mismatch (an error) and the enumerative
  /// certificate wins.
  bool symbolic_cross_check = false;
  /// Caller's provenance statement: the tables are exactly
  /// route::DModKRouter::compute on the pristine fabric (no --lft load, no
  /// degraded reroute, no other router). The symbolic prover declines
  /// without it — a wrong proof must be impossible.
  bool tables_canonical_dmodk = false;
  /// Re-simulate a deterministic sample of the certified stages through
  /// sim::PacketSim and compare the per-link telemetry against the static
  /// witnesses (requires `certify`; rules cert-telemetry-ok /
  /// cert-telemetry-mismatch).
  bool replay_telemetry = false;
  /// Stage-sample size and message size for the telemetry replay.
  TelemetryReplayOptions replay;
  /// > 0: search for a destination->VL assignment with at most this many
  /// lanes whose per-lane dependency graphs are all acyclic (rules
  /// vl-assignment / vl-cycle).
  std::uint32_t propose_vls = 0;
  /// With propose_vls: also run the exact branch-and-bound lane-minimality
  /// prover. A certified-minimal proposal upgrades to rule vl-optimal (with
  /// the clique witness); a search that beats the greedy proposal replaces
  /// it; a tripped node budget reports the proven [lower, upper] gap as
  /// vl-bound-gap.
  bool prove_vl_optimal = false;
  /// Vertex-placement budget for the branch-and-bound search.
  std::uint64_t vl_node_budget = 1'000'000;
  /// Prove Dally–Seitz deadlock freedom over the *adaptive* routing relation
  /// (route::adaptive_candidates: deterministic descents, any-up-port
  /// ascents) instead of just the deterministic tables (rules
  /// cdg-adaptive-ok / cdg-adaptive-cycle).
  bool adaptive_closure = false;
  /// When set, findings counters and CDG/walk sizes are recorded here.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Outcome of the per-VL search: the proposed assignment and the per-lane
/// verdicts it was validated with.
struct VlProposal {
  VlAssignment assignment;
  VlCdgAnalysis analysis;
  /// Present when CheckOptions::prove_vl_optimal was set. When it marked the
  /// greedy proposal `improved`, `assignment` already is the replacement.
  std::optional<VlOptimality> optimality;
};

struct CheckReport {
  Diagnostics diagnostics;
  CdgAnalysis cdg;
  route::LftAudit walk;
  /// Present when CheckOptions::certify was set (with ordering + sequence).
  std::optional<Certificate> certificate;
  /// Present when CheckOptions::symbolic was set: the symbolic prover's
  /// outcome (applicable proof, or the pinpointed decline reason).
  std::optional<SymbolicProof> symbolic;
  /// Present when CheckOptions::replay_telemetry was set (with certify).
  std::optional<TelemetryReplay> telemetry;
  /// Present when CheckOptions::propose_vls > 0.
  std::optional<VlProposal> vl;
  /// Present when CheckOptions::adaptive_closure was set.
  std::optional<AdaptiveCdgAnalysis> adaptive;

  /// Deadlock-freedom was proved (CDG acyclic) and the walks agree.
  [[nodiscard]] bool deadlock_free() const noexcept {
    return cdg.acyclic && !walk.cdg_mismatch;
  }
};

/// Run the full static analysis. Deterministic: the same inputs produce the
/// same report (and byte-identical JSON) at any thread count.
[[nodiscard]] CheckReport run_check(const topo::Fabric& fabric,
                                    const route::ForwardingTables& tables,
                                    const CheckOptions& options = {});

}  // namespace ftcf::check
