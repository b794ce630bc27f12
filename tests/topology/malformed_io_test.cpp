// Malformed-input table for the topology reader: every case must surface as
// a typed ftcf::util error (ParseError/SpecError) — never std::stoi-family
// exceptions or out-of-bounds aborts.
#include <gtest/gtest.h>

#include <string>

#include "topology/topo_io.hpp"
#include "util/error.hpp"

namespace ftcf::topo {
namespace {

constexpr const char* kHeader = "pgft PGFT(2; 4,4; 1,2; 1,2)\n";

enum class Expect { kParse, kSpec };

struct Case {
  const char* name;
  std::string input;
  Expect expect;
};

// Print the case name, so test names never carry pointer bytes.
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

class MalformedTopo : public ::testing::TestWithParam<Case> {};

TEST_P(MalformedTopo, RaisesTypedError) {
  const Case& c = GetParam();
  try {
    from_topo_string(c.input);
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
    Table, MalformedTopo,
    ::testing::Values(
        Case{"no_header", "node H0 kind=host level=0 ports=1\n", Expect::kParse},
        Case{"garbage_header", "pgft PGFT(nope\n", Expect::kParse},
        Case{"duplicate_header", std::string(kHeader) + kHeader, Expect::kParse},
        Case{"node_without_name", std::string(kHeader) + "node\n", Expect::kParse},
        Case{"ports_not_a_number",
             std::string(kHeader) + "node H0 ports=abc\n", Expect::kParse},
        Case{"ports_trailing_junk",
             std::string(kHeader) + "node H0 ports=1x\n", Expect::kParse},
        Case{"ports_negative",
             std::string(kHeader) + "node H0 ports=-1\n", Expect::kParse},
        Case{"link_one_endpoint",
             std::string(kHeader) + "link H0:0\n", Expect::kParse},
        Case{"endpoint_without_colon",
             std::string(kHeader) + "link H0 S1_0:0\n", Expect::kParse},
        Case{"endpoint_port_not_a_number",
             std::string(kHeader) + "link H0:zz S1_0:0\n", Expect::kParse},
        Case{"endpoint_port_negative",
             std::string(kHeader) + "link H0:-1 S1_0:0\n", Expect::kParse},
        Case{"endpoint_empty_name",
             std::string(kHeader) + "link :0 S1_0:0\n", Expect::kParse},
        Case{"unknown_keyword",
             std::string(kHeader) + "cable H0:0 S1_0:0\n", Expect::kParse},
        Case{"unknown_node_name",
             std::string(kHeader) + "node H99 ports=1\n", Expect::kSpec},
        Case{"port_index_out_of_range",
             std::string(kHeader) + "link H0:9 S1_0:0\n", Expect::kSpec},
        Case{"declared_port_count_wrong",
             std::string(kHeader) + "node H0 ports=3\n", Expect::kSpec}),
    [](const ::testing::TestParamInfo<Case>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace ftcf::topo
