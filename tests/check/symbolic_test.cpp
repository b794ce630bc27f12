// Symbolic contention certifier: the Euclidean counting kernels against
// brute force, the displacement-algebra classifier against the generators,
// the prover against the enumerative certifier (byte-identical certificates
// whenever the proof applies), and the honesty contract — every input
// outside the closed form declines with a pinpointed reason, never a wrong
// proof. Includes the randomized-PGFT differential property sweep.
#include "check/symbolic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "cps/generators.hpp"
#include "routing/dmodk.hpp"
#include "topology/presets.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ftcf::check {
namespace {

using cps::AlgebraKind;
using cps::CpsKind;
using cps::SourceSet;
using cps::StageAlgebra;
using route::ForwardingTables;
using topo::Fabric;

bool has_rule(const Diagnostics& diag, const std::string& rule) {
  return std::any_of(diag.findings().begin(), diag.findings().end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

std::uint64_t brute_floor_sum(std::uint64_t n, std::uint64_t m,
                              std::uint64_t a, std::uint64_t b) {
  std::uint64_t sum = 0;
  for (std::uint64_t k = 0; k < n; ++k) sum += (a * k + b) / m;
  return sum;
}

std::uint64_t brute_count(std::uint64_t n, std::uint64_t base,
                          std::uint64_t stride, std::uint64_t m,
                          std::uint64_t w) {
  std::uint64_t count = 0;
  for (std::uint64_t k = 0; k < n; ++k)
    count += (base + stride * k) % m < w ? 1 : 0;
  return count;
}

TEST(SymbolicKernels, FloorSumMatchesBruteForce) {
  for (std::uint64_t n : {0ULL, 1ULL, 2ULL, 7ULL, 36ULL, 100ULL}) {
    for (std::uint64_t m : {1ULL, 2ULL, 3ULL, 6ULL, 17ULL, 36ULL}) {
      for (std::uint64_t a : {0ULL, 1ULL, 5ULL, 17ULL, 40ULL}) {
        for (std::uint64_t b : {0ULL, 1ULL, 11ULL, 35ULL, 99ULL}) {
          EXPECT_EQ(detail::floor_sum(n, m, a, b),
                    brute_floor_sum(n, m, a, b))
              << "n=" << n << " m=" << m << " a=" << a << " b=" << b;
        }
      }
    }
  }
}

TEST(SymbolicKernels, CountStridedModLtMatchesBruteForce) {
  for (std::uint64_t n : {0ULL, 1ULL, 5ULL, 48ULL, 101ULL}) {
    for (std::uint64_t base : {0ULL, 1ULL, 7ULL, 50ULL}) {
      for (std::uint64_t stride : {1ULL, 2ULL, 3ULL, 9ULL, 25ULL}) {
        for (std::uint64_t m : {1ULL, 2ULL, 6ULL, 16ULL, 35ULL}) {
          for (std::uint64_t w = 0; w <= m; w += (m > 4 ? m / 4 : 1)) {
            EXPECT_EQ(detail::count_strided_mod_lt(n, base, stride, m, w),
                      brute_count(n, base, stride, m, w))
                << "n=" << n << " base=" << base << " stride=" << stride
                << " m=" << m << " w=" << w;
          }
        }
      }
    }
  }
}

TEST(AlgebraClassify, DuplicateSourcesAreOpaque) {
  cps::Stage stage;
  stage.pairs = {{0, 1}, {0, 2}};
  EXPECT_EQ(cps::classify_stage_algebra(stage, 8).kind, AlgebraKind::kOpaque);
}

TEST(AlgebraClassify, OutOfRangeEndpointsAreOpaque) {
  cps::Stage stage;
  stage.pairs = {{0, 9}};
  EXPECT_EQ(cps::classify_stage_algebra(stage, 8).kind, AlgebraKind::kOpaque);
}

TEST(AlgebraClassify, RecognizesXorAndStridedSources) {
  cps::Stage stage;
  for (std::uint64_t i = 0; i < 8; ++i) stage.pairs.push_back({i, i ^ 2});
  const StageAlgebra a = cps::classify_stage_algebra(stage, 8);
  EXPECT_EQ(a.kind, AlgebraKind::kXor);
  EXPECT_EQ(a.xor_mask, 2u);
  ASSERT_TRUE(a.sources.strided);
  EXPECT_EQ(a.sources.base, 0u);
  EXPECT_EQ(a.sources.stride, 1u);
  EXPECT_EQ(a.sources.count, 8u);
}

TEST(AlgebraClassify, MixedDisplacementsAreOpaque) {
  cps::Stage stage;
  stage.pairs = {{0, 1}, {1, 3}};  // d = 1 then d = 2, masks 1 then 2
  EXPECT_EQ(cps::classify_stage_algebra(stage, 8).kind, AlgebraKind::kOpaque);
}

std::vector<std::uint64_t> expand(const SourceSet& s) {
  if (!s.strided) return s.values;
  std::vector<std::uint64_t> out;
  out.reserve(s.count);
  for (std::uint64_t k = 0; k < s.count; ++k) out.push_back(s.base + s.stride * k);
  return out;
}

// The analytic algebra (symbolic_sequence) must agree stage-by-stage with
// what the classifier recovers from the materialized generator output —
// this is what lets the pure-tuple prover skip materialization entirely.
TEST(AlgebraClassify, SymbolicSequenceMatchesGeneratedStages) {
  for (const CpsKind kind : cps::kAllCpsKinds) {
    for (const std::uint64_t n : {2ULL, 6ULL, 10ULL, 16ULL, 27ULL, 32ULL}) {
      const cps::Sequence generated = cps::generate(kind, n);
      const cps::SequenceAlgebra analytic = cps::symbolic_sequence(kind, n);
      ASSERT_EQ(analytic.stages.size(), generated.stages.size())
          << cps::cps_name(kind) << " n=" << n;
      EXPECT_EQ(analytic.name, generated.name);
      for (std::size_t s = 0; s < generated.stages.size(); ++s) {
        const StageAlgebra from_pairs =
            cps::classify_stage_algebra(generated.stages[s], n);
        const StageAlgebra& from_tuple = analytic.stages[s];
        ASSERT_EQ(from_tuple.kind, from_pairs.kind)
            << cps::cps_name(kind) << " n=" << n << " stage=" << s;
        EXPECT_NE(from_tuple.kind, AlgebraKind::kOpaque);
        if (from_tuple.kind == AlgebraKind::kShift) {
          EXPECT_EQ(from_tuple.displacement % n, from_pairs.displacement % n);
        }
        if (from_tuple.kind == AlgebraKind::kXor) {
          EXPECT_EQ(from_tuple.xor_mask, from_pairs.xor_mask);
        }
        if (from_tuple.kind != AlgebraKind::kEmpty) {
          EXPECT_EQ(expand(from_tuple.sources), expand(from_pairs.sources))
              << cps::cps_name(kind) << " n=" << n << " stage=" << s;
        }
      }
    }
  }
}

std::string cert_json(const Certificate& cert) {
  std::ostringstream os;
  write_certificate_json(os, cert);
  return os.str();
}

// Fabric-path prover vs the enumerative walk: whenever the proof applies,
// the certificates must render byte-identically.
TEST(SymbolicCertify, MatchesEnumerativeOnPaperClusterAllKinds) {
  const Fabric fabric(topo::paper_cluster(128));
  const auto tables = route::DModKRouter{}.compute(fabric);
  const auto ordering = order::NodeOrdering::topology(fabric);
  for (const CpsKind kind : cps::kAllCpsKinds) {
    const cps::Sequence sequence = cps::generate(kind, fabric.num_hosts());
    const SymbolicProof proof = symbolic_certify(
        fabric, ordering, sequence, /*tables_canonical_dmodk=*/true);
    ASSERT_TRUE(proof.applicable)
        << cps::cps_name(kind) << ": " << proof.inapplicable_reason;
    const Certificate enumerative =
        certify_contention_freedom(fabric, tables, ordering, sequence);
    EXPECT_EQ(cert_json(proof.certificate), cert_json(enumerative))
        << cps::cps_name(kind);
  }
}

// Pure-tuple prover (never touches a Fabric) vs the fabric-path prover.
TEST(SymbolicCertify, TupleOverloadMatchesFabricOverload) {
  const topo::PgftSpec spec = topo::paper_cluster(128);
  const Fabric fabric(spec);
  const auto ordering = order::NodeOrdering::topology(fabric);
  for (const CpsKind kind : cps::kAllCpsKinds) {
    const SymbolicProof from_tuple = symbolic_certify(
        spec, cps::symbolic_sequence(kind, spec.num_hosts()));
    const SymbolicProof from_fabric = symbolic_certify(
        fabric, ordering, cps::generate(kind, spec.num_hosts()),
        /*tables_canonical_dmodk=*/true);
    ASSERT_TRUE(from_tuple.applicable) << cps::cps_name(kind);
    ASSERT_TRUE(from_fabric.applicable) << cps::cps_name(kind);
    EXPECT_EQ(cert_json(from_tuple.certificate),
              cert_json(from_fabric.certificate))
        << cps::cps_name(kind);
  }
}

TEST(SymbolicCertify, NonCanonicalTablesDecline) {
  const Fabric fabric(topo::paper_cluster(128));
  const auto ordering = order::NodeOrdering::topology(fabric);
  const auto sequence = cps::shift(fabric.num_hosts());
  const SymbolicProof proof = symbolic_certify(
      fabric, ordering, sequence, /*tables_canonical_dmodk=*/false);
  EXPECT_FALSE(proof.applicable);
  EXPECT_NE(proof.inapplicable_reason.find("provenance"), std::string::npos);
}

TEST(SymbolicCertify, NonIdentityOrderDeclinesNamingTheRank) {
  const Fabric fabric(topo::paper_cluster(128));
  const auto ordering = order::NodeOrdering::random(fabric, 7);
  const auto sequence = cps::shift(fabric.num_hosts());
  const SymbolicProof proof = symbolic_certify(
      fabric, ordering, sequence, /*tables_canonical_dmodk=*/true);
  EXPECT_FALSE(proof.applicable);
  EXPECT_NE(proof.inapplicable_reason.find("rank"), std::string::npos);
}

TEST(SymbolicCertify, NonClosedFormTupleDeclinesNamingTheLevel) {
  // Oversubscribed spine layer: PGFT(2; 4,4; 1,2; 1,1) has
  // W_2 * p_2 = 2 != M_1 = 4, so "up-link key == j mod M_2" is false.
  const topo::PgftSpec spec({4, 4}, {1, 2}, {1, 1});
  const SymbolicProof proof =
      symbolic_certify(spec, cps::symbolic_sequence(CpsKind::kShift, 16));
  ASSERT_FALSE(proof.applicable);
  ASSERT_TRUE(proof.inapplicable_level.has_value());
  EXPECT_EQ(*proof.inapplicable_level, 2u);
}

TEST(SymbolicCertify, MisalignedXorMaskDeclinesNamingStageAndLevel) {
  // rlft3_top(6, 9): M_1 = 6 — mask 2 has span 4, 6 % 4 != 0, and 6 is not
  // a power of two, so recursive doubling's second stage has no digit map.
  const topo::PgftSpec spec = topo::rlft3_top(6, 9);
  const SymbolicProof proof = symbolic_certify(
      spec, cps::symbolic_sequence(CpsKind::kRecursiveDoubling,
                                   spec.num_hosts()));
  ASSERT_FALSE(proof.applicable);
  EXPECT_TRUE(proof.inapplicable_stage.has_value());
  ASSERT_TRUE(proof.inapplicable_level.has_value());
  EXPECT_EQ(*proof.inapplicable_level, 1u);
}

TEST(SymbolicCertify, ReportEmitsCertSymbolicOk) {
  const topo::PgftSpec spec = topo::paper_cluster(128);
  const SymbolicProof proof = symbolic_certify(
      spec, cps::symbolic_sequence(CpsKind::kRing, spec.num_hosts()));
  ASSERT_TRUE(proof.applicable);
  Diagnostics diag;
  report_symbolic_proof(proof, diag);
  EXPECT_TRUE(has_rule(diag, "cert-symbolic-ok"));
  EXPECT_EQ(diag.exit_code(/*strict=*/true), 0);
}

TEST(SymbolicCertify, ProofJsonIsDeterministicAcrossThreadCounts) {
  const Fabric fabric(topo::paper_cluster(128));
  const auto ordering = order::NodeOrdering::topology(fabric);
  const auto sequence = cps::generate(CpsKind::kShift, fabric.num_hosts());
  std::vector<std::string> documents;
  for (const std::uint32_t threads : {1u, 2u, 8u}) {
    par::set_default_threads(threads);
    const SymbolicProof proof = symbolic_certify(
        fabric, ordering, sequence, /*tables_canonical_dmodk=*/true);
    std::ostringstream os;
    write_symbolic_proof_json(os, proof, {{"tool", "symbolic_test"}});
    documents.push_back(os.str());
  }
  par::set_default_threads(0);
  EXPECT_EQ(documents[0], documents[1]);
  EXPECT_EQ(documents[0], documents[2]);
}

TEST(RunCheck, SymbolicPathEmitsOkAndMatchingCertificate) {
  const Fabric fabric(topo::paper_cluster(128));
  const auto tables = route::DModKRouter{}.compute(fabric);
  const auto ordering = order::NodeOrdering::topology(fabric);
  const auto sequence = cps::shift(fabric.num_hosts());
  CheckOptions options;
  options.ordering = &ordering;
  options.sequence = &sequence;
  options.certify = true;
  options.symbolic = true;
  options.symbolic_cross_check = true;
  options.tables_canonical_dmodk = true;
  const CheckReport report = run_check(fabric, tables, options);
  ASSERT_TRUE(report.symbolic.has_value());
  EXPECT_TRUE(report.symbolic->applicable);
  EXPECT_TRUE(has_rule(report.diagnostics, "cert-symbolic-ok"));
  EXPECT_TRUE(has_rule(report.diagnostics, "cert-ok"));
  EXPECT_FALSE(has_rule(report.diagnostics, "cert-symbolic-mismatch"));
  ASSERT_TRUE(report.certificate.has_value());
  EXPECT_TRUE(report.certificate->contention_free);
}

TEST(RunCheck, SymbolicFallsBackWhenProvenanceIsMissing) {
  const Fabric fabric(topo::paper_cluster(128));
  const auto tables = route::DModKRouter{}.compute(fabric);
  const auto ordering = order::NodeOrdering::topology(fabric);
  const auto sequence = cps::shift(fabric.num_hosts());
  CheckOptions options;
  options.ordering = &ordering;
  options.sequence = &sequence;
  options.certify = true;
  options.symbolic = true;
  options.tables_canonical_dmodk = false;
  const CheckReport report = run_check(fabric, tables, options);
  ASSERT_TRUE(report.symbolic.has_value());
  EXPECT_FALSE(report.symbolic->applicable);
  EXPECT_TRUE(has_rule(report.diagnostics, "symbolic-inapplicable"));
  EXPECT_TRUE(has_rule(report.diagnostics, "cert-ok"));  // enumerative ran
  ASSERT_TRUE(report.certificate.has_value());
  EXPECT_TRUE(report.certificate->contention_free);
}

// The randomized differential property: over a pool of PGFT tuples (closed
// form and not), node orders, and every CPS kind, the symbolic prover either
// (a) applies and reproduces the enumerative certificate byte-for-byte, or
// (b) declines with a reason — and the enumerative certifier always stands.
TEST(SymbolicProperty, RandomizedPgftDifferentialSweep) {
  const std::vector<topo::PgftSpec> pool = {
      topo::paper_cluster(128),   // closed form, 2-level
      topo::paper_cluster(324),   // closed form with p_2 = 2
      topo::rlft2_full(4),        // closed form, N = 32 (power of two)
      topo::rlft3_top(4, 4),      // closed form, 3-level, N = 64
      topo::rlft3_top(6, 9),      // closed form, M_1 = 6 (kills XOR)
      topo::fig4b_pgft16(),       // closed form with parallel ports (p_2 = 2)
      {{4, 4}, {1, 2}, {1, 1}},   // NOT closed form (oversubscribed spines)
  };
  std::uint64_t applicable_runs = 0;
  std::uint64_t declined_runs = 0;
  for (std::size_t spec_idx = 0; spec_idx < pool.size(); ++spec_idx) {
    const topo::PgftSpec& spec = pool[spec_idx];
    const Fabric fabric(spec);
    const auto tables = route::DModKRouter{}.compute(fabric);
    for (int order_case = 0; order_case < 2; ++order_case) {
      const auto ordering =
          order_case == 0
              ? order::NodeOrdering::topology(fabric)
              : order::NodeOrdering::random(
                    fabric, util::derive_seed(0xf17c5, spec_idx));
      for (const CpsKind kind : cps::kAllCpsKinds) {
        const cps::Sequence sequence =
            cps::generate(kind, fabric.num_hosts());
        const SymbolicProof proof = symbolic_certify(
            fabric, ordering, sequence, /*tables_canonical_dmodk=*/true);
        const Certificate enumerative =
            certify_contention_freedom(fabric, tables, ordering, sequence);
        if (proof.applicable) {
          ++applicable_runs;
          EXPECT_EQ(cert_json(proof.certificate), cert_json(enumerative))
              << spec.to_string() << " order=" << order_case << " "
              << cps::cps_name(kind);
        } else {
          ++declined_runs;
          EXPECT_FALSE(proof.inapplicable_reason.empty());
        }
      }
    }
  }
  // The sweep must genuinely exercise both sides of the frontier.
  EXPECT_GT(applicable_runs, 20u);
  EXPECT_GT(declined_runs, 20u);
}

}  // namespace
}  // namespace ftcf::check
