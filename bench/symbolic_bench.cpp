// Symbolic-vs-enumerative certifier benchmark, three scales:
//
//   * 648 (3-level RLFT): every CPS kind through both certifiers, with a
//     hard field-equality assertion — the bench doubles as a differential
//     check and records both timings;
//   * 11664 (maximal 3-level 36-port RLFT): the full 11663-displacement
//     Shift set certified symbolically from the tuple alone, against the
//     enumerative walk timed over a deterministic per-stage sample and
//     extrapolated (materializing all 11663 stages at once would need
//     ~2 GiB; the extrapolation is labeled as such in the gauge name).
//     Exports speedup.symbolic_vs_enumerative_11664 — the ISSUE floor is
//     >= 100x;
//   * ~1M endpoints (PGFT(3; 80,80,160; 1,80,80; 1,1,1), N = 1,024,000):
//     the full Shift set (1,023,999 stages, ~10^12 flows) certified purely
//     from the tuple; seconds.symbolic_certify_1m must stay below 1.
//
// Plain main (no google-benchmark): each case is a one-shot wall-clock
// measurement of a deterministic computation, exported through the same
// BENCH_*.json schema (ns_per_op.* lower-better, items_per_second.*
// higher-better, speedup.*/seconds.* floor-gated via bench_diff
// --min-gauge). --quick shrinks the enumerative sample for smoke tests.
#include <chrono>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_export.hpp"
#include "check/certify.hpp"
#include "check/symbolic.hpp"
#include "cps/generators.hpp"
#include "cps/symbolic.hpp"
#include "ordering/ordering.hpp"
#include "routing/dmodk.hpp"
#include "topology/presets.hpp"
#include "util/cli.hpp"

namespace {

using namespace ftcf;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string cert_json(const check::Certificate& cert) {
  std::ostringstream os;
  check::write_certificate_json(os, cert);
  return os.str();
}

std::string stage_row(const check::StageWitness& witness) {
  std::ostringstream os;
  check::detail::write_stage_row(os, witness, 0);
  return os.str();
}

/// Single-stage Shift(d) sequence over n ranks, materialized — the
/// enumerative certifier's unit of work in the 11664 sample.
cps::Sequence one_shift_stage(std::uint64_t n, std::uint64_t d) {
  cps::Sequence seq;
  seq.name = "shift";
  seq.num_ranks = n;
  cps::Stage stage;
  stage.pairs.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) stage.pairs.push_back({i, (i + d) % n});
  seq.stages.push_back(std::move(stage));
  return seq;
}

int run(bool quick) {
  obs::MetricsRegistry registry;
  registry.set_meta("bench", "symbolic");

  {  // --- 648: all CPS kinds, differential + both timings ----------------
    const topo::Fabric fabric(topo::paper_cluster(648));
    const auto tables = route::DModKRouter{}.compute(fabric);
    const auto ordering = order::NodeOrdering::topology(fabric);
    double symbolic_s = 0.0;
    double enumerative_s = 0.0;
    for (const cps::CpsKind kind : cps::kAllCpsKinds) {
      const cps::Sequence sequence = cps::generate(kind, fabric.num_hosts());
      auto t0 = Clock::now();
      const check::SymbolicProof proof = check::symbolic_certify(
          fabric, ordering, sequence, /*tables_canonical_dmodk=*/true);
      symbolic_s += seconds_since(t0);
      t0 = Clock::now();
      const check::Certificate enumerative = check::certify_contention_freedom(
          fabric, tables, ordering, sequence);
      enumerative_s += seconds_since(t0);
      if (proof.applicable &&
          cert_json(proof.certificate) != cert_json(enumerative)) {
        std::cerr << "FAIL: symbolic certificate diverges from enumerative "
                     "on 648 " << cps::cps_name(kind) << "\n";
        return 1;
      }
      if (!proof.applicable &&
          (kind == cps::CpsKind::kShift || kind == cps::CpsKind::kRing)) {
        std::cerr << "FAIL: symbolic prover declined a closed-form 648 case ("
                  << cps::cps_name(kind) << "): " << proof.inapplicable_reason
                  << "\n";
        return 1;
      }
    }
    registry.gauge("ns_per_op.symbolic_certify_648_all_cps")
        .set(symbolic_s * 1e9);
    registry.gauge("ns_per_op.enumerative_certify_648_all_cps")
        .set(enumerative_s * 1e9);
    std::cout << "648 all-CPS: symbolic " << symbolic_s << " s, enumerative "
              << enumerative_s << " s (certificates field-identical)\n";
  }

  {  // --- 11664: full Shift set symbolic vs sampled enumerative -----------
    const topo::PgftSpec spec = topo::paper_cluster(11664);
    const std::uint64_t n = spec.num_hosts();

    auto t0 = Clock::now();
    const cps::SequenceAlgebra algebra =
        cps::symbolic_sequence(cps::CpsKind::kShift, n);
    const check::SymbolicProof proof = check::symbolic_certify(spec, algebra);
    const double symbolic_s = seconds_since(t0);
    if (!proof.applicable) {
      std::cerr << "FAIL: 11664 Shift set declined: "
                << proof.inapplicable_reason << "\n";
      return 1;
    }

    // Enumerative reference: fabric + tables once, then a deterministic
    // evenly-spaced displacement sample, one single-stage certify each.
    const topo::Fabric fabric(spec);
    const auto tables = route::DModKRouter{}.compute(fabric);
    const auto ordering = order::NodeOrdering::topology(fabric);
    const std::uint64_t sample = quick ? 8 : 128;
    const std::uint64_t stages = n - 1;
    double enumerative_sample_s = 0.0;
    for (std::uint64_t k = 0; k < sample; ++k) {
      const std::uint64_t d = 1 + k * stages / sample;
      const cps::Sequence single = one_shift_stage(n, d);
      t0 = Clock::now();
      const check::Certificate cert = check::certify_contention_freedom(
          fabric, tables, ordering, single);
      enumerative_sample_s += seconds_since(t0);
      // Differential: the sampled stage's witness row must equal the
      // symbolic full-set row for the same displacement (stage d-1).
      if (stage_row(cert.stages.at(0)) !=
          stage_row(proof.certificate.stages.at(d - 1))) {
        std::cerr << "FAIL: witness row mismatch at displacement " << d
                  << "\n symbolic:    "
                  << stage_row(proof.certificate.stages.at(d - 1))
                  << "\n enumerative: " << stage_row(cert.stages.at(0))
                  << "\n";
        return 1;
      }
    }
    const double enumerative_s =
        enumerative_sample_s * static_cast<double>(stages) /
        static_cast<double>(sample);
    const double speedup = enumerative_s / symbolic_s;
    registry.gauge("ns_per_op.symbolic_certify_11664_shift_full")
        .set(symbolic_s * 1e9);
    registry.gauge("seconds.enumerative_certify_11664_shift_extrapolated")
        .set(enumerative_s);
    registry.gauge("speedup.symbolic_vs_enumerative_11664").set(speedup);
    std::cout << "11664 Shift set: symbolic " << symbolic_s
              << " s (full, " << stages << " stages), enumerative "
              << enumerative_sample_s << " s over " << sample
              << " sampled stage(s) -> " << enumerative_s
              << " s extrapolated; speedup " << speedup << "x\n";
  }

  {  // --- ~1M endpoints: pure-tuple Shift set -----------------------------
    const topo::PgftSpec spec({80, 80, 160}, {1, 80, 80}, {1, 1, 1});
    const std::uint64_t n = spec.num_hosts();  // 1,024,000
    const auto t0 = Clock::now();
    const cps::SequenceAlgebra algebra =
        cps::symbolic_sequence(cps::CpsKind::kShift, n);
    const check::SymbolicProof proof = check::symbolic_certify(spec, algebra);
    const double elapsed = seconds_since(t0);
    if (!proof.applicable) {
      std::cerr << "FAIL: 1M Shift set declined: "
                << proof.inapplicable_reason << "\n";
      return 1;
    }
    registry.gauge("seconds.symbolic_certify_1m").set(elapsed);
    registry.gauge("items_per_second.symbolic_stages_1m")
        .set(static_cast<double>(proof.stages.size()) / elapsed);
    std::cout << "1M endpoints (" << spec.to_string() << ", N = " << n
              << "): " << proof.stages.size() << " Shift stages certified in "
              << elapsed << " s\n";
    if (elapsed >= 1.0) {
      std::cerr << "FAIL: 1M certification took " << elapsed
                << " s (>= 1 s budget)\n";
      return 1;
    }
  }

  return benchio::write_bench_json(registry, "BENCH_symbolic.json");
}

int run_main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::cerr << "usage: symbolic_bench [--quick]\n";
      return 2;
    }
  }
  return run(quick);
}

}  // namespace

int main(int argc, char** argv) {
  return ftcf::util::guarded_main(argc, argv, run_main);
}
