#include "topology/validate.hpp"

#include <gtest/gtest.h>

#include "topology/presets.hpp"

namespace ftcf::topo {
namespace {

struct Preset {
  std::string name;
  PgftSpec spec;
};

// Print the preset name, so test names never carry pointer bytes; gtest
// finds it by ADL on Preset.
void PrintTo(const Preset& p, std::ostream* os) { *os << p.name; }

class ValidatePresetTest : public ::testing::TestWithParam<Preset> {};

TEST_P(ValidatePresetTest, FabricPassesStructuralAudit) {
  const Fabric fabric(GetParam().spec);
  const ValidationReport report = validate_fabric(fabric);
  EXPECT_TRUE(report.ok) << (report.problems.empty()
                                 ? ""
                                 : report.problems.front());
}

TEST_P(ValidatePresetTest, CbbAuditAgreesWithSpecPredicate) {
  // The instantiated-fabric CBB audit and the spec-level predicate must
  // agree — on RLFTs (constant CBB) and on the asymmetric XGFT alike.
  const Preset& preset = GetParam();
  const Fabric fabric(preset.spec);
  const ValidationReport report = validate_constant_cbb(fabric);
  EXPECT_EQ(report.ok, preset.spec.has_constant_cbb())
      << (report.problems.empty() ? "" : report.problems.front());
}

// The two big 3-level fabrics take seconds to audit; cover the rest densely.
INSTANTIATE_TEST_SUITE_P(
    Presets, ValidatePresetTest,
    ::testing::Values(Preset{"fig4a", fig4a_xgft16()},
                      Preset{"fig4b", fig4b_pgft16()},
                      Preset{"rlft2-128", paper_cluster(128)},
                      Preset{"rlft2-324", paper_cluster(324)},
                      Preset{"rlft3-tiny", rlft3_top(2, 2)},
                      Preset{"rlft3-small", rlft3_top(4, 4)},
                      Preset{"xgft-asym",
                             PgftSpec::xgft({3, 5, 2}, {1, 3, 5})}),
    [](const ::testing::TestParamInfo<Preset>& param_info) {
      std::string name = param_info.param.name;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(Validate, CbbAuditFlagsOversubscription) {
  const Fabric fabric(PgftSpec::xgft({4, 4}, {1, 2}));  // 2:1 taper
  EXPECT_FALSE(validate_constant_cbb(fabric).ok);
}

}  // namespace
}  // namespace ftcf::topo
