// Contention-freedom certifier: the paper's Theorems 1-3 as a
// machine-checkable artifact.
//
// The theorems' claim is *static*: under D-Mod-K routing with the topology
// node order, every stage of a constant-shift CPS (Theorems 1-2) or of
// grouped recursive doubling (Theorem 3) loads every directed link with at
// most one flow — HSD = 1, contention-free. The certifier derives the
// per-link flow counts of every stage from the (topology, LFT, order, CPS)
// tuple — each distinct (destination, entry leaf) route is walked once into
// a shared cache (check/leaf_paths.hpp), every stage's loads are folded from
// it over ftcf::par and merged in stage order, so the certificate is
// byte-identical at any thread count — and emits either
//   * a per-stage witness table (max HSD on up/down/all links, flows walked,
//     links loaded, the stage's displacement shape), proving the claim, or
//   * a root-cause blame per violating stage: the hot link, the colliding
//     (src, dst) host pairs crossing it, and which lint rule
//     (order-mismatch, cps-displacement, rlft-cbb, ...) explains the
//     collision.
//
// report_certificate maps the outcome onto the diagnostics engine
// (`cert-ok` note / `hsd-violation` error / `blame-<rule>` cross-reference
// notes); write_certificate_json emits the deterministic certificate
// document (sorted keys, stage-ordered arrays, no timestamps).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "check/diagnostics.hpp"
#include "check/lint.hpp"
#include "cps/stage.hpp"
#include "ordering/ordering.hpp"
#include "routing/lft.hpp"

namespace ftcf::check {

/// One flow crossing a violating stage's hot link, in host-index space.
struct CollidingFlow {
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
};

/// Per-stage HSD witness (the proof row when max_hsd <= 1).
struct StageWitness {
  StageShape shape = StageShape::kEmpty;
  std::uint32_t max_hsd = 0;
  std::uint32_t max_up_hsd = 0;
  std::uint32_t max_down_hsd = 0;
  std::uint64_t num_flows = 0;        ///< routed flows (src != dst)
  std::uint64_t links_loaded = 0;     ///< directed links carrying >= 1 flow
  std::uint64_t unroutable_flows = 0; ///< flows stranded by incomplete tables
};

/// Root cause of one violating stage.
struct StageBlame {
  std::size_t stage = 0;
  std::uint32_t max_hsd = 0;
  topo::PortId hot_link = topo::kInvalidPort;
  std::string hot_link_name;  ///< rendered "NODE[port i] -> NODE[port j]"
  /// Flows crossing the hot link (exactly max_hsd exist; the first
  /// kMaxCollidingShown are listed, ascending in stage-pair order).
  std::vector<CollidingFlow> colliding;
  /// The lint rule that explains the collision (priority: order-mismatch,
  /// stage-specific cps-displacement, rlft-cbb, other rlft-*,
  /// pgft-structure, lft-incomplete); empty = no rule explains it.
  std::string blamed_rule;
};

inline constexpr std::size_t kMaxCollidingShown = 8;

/// The machine-checkable certificate for one (tables, order, CPS) tuple.
struct Certificate {
  bool contention_free = false;  ///< HSD <= 1 everywhere and no stranded flow
  std::uint64_t num_ranks = 0;
  std::string sequence_name;
  std::vector<StageWitness> stages;  ///< one per CPS stage, stage order
  std::vector<StageBlame> blames;    ///< violating stages, ascending
};

/// Derive the certificate. Routes are walked once per (destination, entry
/// leaf), stages are folded from them in parallel and merged in stage order
/// — the result (and its JSON) is byte-identical for every thread count.
[[nodiscard]] Certificate certify_contention_freedom(
    const topo::Fabric& fabric, const route::ForwardingTables& tables,
    const order::NodeOrdering& ordering, const cps::Sequence& sequence);

/// The paper's whole-sequence HSD numbers, read off a certificate.
struct SequenceMetrics {
  /// The paper's headline metric: "the average of the maximal hot-spot-
  /// degree of all links, over all stages", over the stages that load a
  /// link.
  double avg_max_hsd = 0.0;
  std::uint32_t worst_stage_hsd = 0;   ///< max over stages
  std::uint32_t worst_up_hsd = 0;
  std::uint32_t worst_down_hsd = 0;
  std::uint64_t unroutable_flows = 0;  ///< stranded flows, all stages
};

/// Fold the certificate's stage witnesses in stage order.
[[nodiscard]] SequenceMetrics summarize(const Certificate& certificate);

/// Map the certificate onto the diagnostics engine: `cert-ok` (note) when
/// contention-free, else one `hsd-violation` error per violating stage
/// (capped) with a `blame-<rule>` cross-reference note when a lint rule
/// explains the collision.
void report_certificate(const Certificate& certificate,
                        Diagnostics& diagnostics);

/// Deterministic certificate document:
/// {"meta":{...},"certificate":{...},"stages":[...],"violations":[...]}.
/// Keys sorted within every object; arrays in stage order; no timestamps or
/// thread-dependent content.
void write_certificate_json(
    std::ostream& os, const Certificate& certificate,
    const std::map<std::string, std::string>& meta = {});

namespace detail {

/// One stage-witness JSON row (sorted keys, no surrounding whitespace), as
/// write_certificate_json emits it; symbolic_bench compares single rows.
void write_stage_row(std::ostream& os, const StageWitness& witness,
                     std::size_t stage);

/// Pick the highest-priority lint rule that explains a collision at `stage`
/// (order-mismatch, stage cps-displacement, rlft-*, pgft-structure,
/// lft-incomplete); "" when nothing applies. Shared by the one-shot
/// certifier and the incremental re-certifier.
[[nodiscard]] std::string blame_rule(const Diagnostics& lints,
                                     std::size_t stage);

}  // namespace detail

}  // namespace ftcf::check
