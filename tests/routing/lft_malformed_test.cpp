// Malformed-input table for the LFT reader: every case must surface as a
// typed ftcf::util error with line context, never an uncaught std::stoull
// exception or an out-of-range table write.
#include <gtest/gtest.h>

#include <string>

#include "routing/lft_io.hpp"
#include "topology/presets.hpp"
#include "util/error.hpp"

namespace ftcf::route {
namespace {

enum class Expect { kParse, kSpec };

struct Case {
  const char* name;
  std::string input;
  Expect expect;
};

// Print the case name, so test names never carry pointer bytes.
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

class MalformedLft : public ::testing::TestWithParam<Case> {};

TEST_P(MalformedLft, RaisesTypedError) {
  const topo::Fabric fabric(topo::fig4b_pgft16());
  const Case& c = GetParam();
  try {
    (void)from_lft_string(fabric, c.input);
    FAIL() << c.name << ": expected an ftcf::util error";
  } catch (const util::ParseError&) {
    EXPECT_EQ(c.expect, Expect::kParse) << c.name;
  } catch (const util::SpecError&) {
    EXPECT_EQ(c.expect, Expect::kSpec) << c.name;
  } catch (const std::exception& e) {
    FAIL() << c.name << ": escaped non-ftcf exception: " << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table, MalformedLft,
    ::testing::Values(
        Case{"entry_before_switch_header", "0 : 1\n", Expect::kParse},
        Case{"switch_without_name", "switch\n", Expect::kParse},
        Case{"unknown_switch", "switch S9_9\n", Expect::kSpec},
        Case{"dest_not_a_number", "switch S1_0\nabc : 1\n", Expect::kParse},
        Case{"dest_trailing_junk", "switch S1_0\n3x : 1\n", Expect::kParse},
        Case{"missing_colon", "switch S1_0\n0 1\n", Expect::kParse},
        Case{"port_not_a_number", "switch S1_0\n0 : xy\n", Expect::kParse},
        Case{"port_negative", "switch S1_0\n0 : -1\n", Expect::kParse},
        Case{"dest_out_of_range", "switch S1_0\n99 : 1\n", Expect::kSpec},
        Case{"port_out_of_radix", "switch S1_0\n0 : 99\n", Expect::kSpec},
        Case{"incomplete_tables", "switch S1_0\n0 : 1\n", Expect::kSpec}),
    [](const ::testing::TestParamInfo<Case>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace ftcf::route
