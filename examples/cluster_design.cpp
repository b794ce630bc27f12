// Cluster design walkthrough: size a real-life fat-tree for a node count and
// switch radix, inspect the PGFT tuple trade-offs (the paper's Fig. 4
// XGFT-vs-PGFT comparison generalized), validate the wiring, and export an
// ibdm-style topo file.
//
//   $ ./cluster_design --nodes 324 --radix 36
#include <fstream>
#include <iostream>

#include "core/theorems.hpp"
#include "routing/dmodk.hpp"
#include "topology/presets.hpp"
#include "topology/topo_io.hpp"
#include "topology/validate.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace ftcf;

void describe(const topo::PgftSpec& spec, const std::string& label,
              util::Table& table) {
  std::uint64_t switches = 0;
  std::uint64_t cables = 0;
  for (std::uint32_t l = 1; l <= spec.height(); ++l) {
    switches += spec.nodes_at_level(l);
    cables += spec.nodes_at_level(l - 1) * spec.up_ports_at_level(l - 1);
  }
  table.add_row({label, spec.to_string(), std::to_string(spec.num_hosts()),
                 std::to_string(switches), std::to_string(cables),
                 spec.is_rlft() ? "yes" : "no"});
}

int run_main(int argc, char** argv) {
  util::Cli cli("cluster_design",
                "size an RLFT, compare PGFT alternatives, export a topo file");
  cli.add_option("nodes", "required node count (preset sizes)", "324");
  cli.add_option("out", "topo file to write ('-' = skip)", "-");
  if (!cli.parse(argc, argv)) return 0;

  const std::uint64_t nodes = cli.uinteger("nodes");

  // Alternatives for the requested size, PGFT parallel ports vs plain XGFT.
  util::Table table({"design", "tuple", "hosts", "switches", "cables", "RLFT"});
  table.set_title("Design alternatives for " + std::to_string(nodes) +
                  " nodes");
  if (nodes == 16) {
    describe(topo::fig4a_xgft16(), "XGFT (Fig. 4a, half-used spines)", table);
    describe(topo::fig4b_pgft16(), "PGFT (Fig. 4b, parallel ports)", table);
  } else {
    describe(topo::paper_cluster(nodes), "paper preset", table);
    if (nodes == 324) {
      // The naive single-link alternative wastes spine ports:
      describe(topo::PgftSpec({18, 18}, {1, 18}, {1, 1}),
               "single-link spines (18 half-used)", table);
    }
  }
  table.print(std::cout);

  const topo::Fabric fabric(topo::paper_cluster(nodes));
  const auto report = topo::validate_fabric(fabric);
  const auto cbb = topo::validate_constant_cbb(fabric);
  std::cout << "\nstructural audit: " << (report.ok ? "ok" : "FAILED")
            << ", constant CBB: " << (cbb.ok ? "ok" : "FAILED") << '\n';

  // The guarantee this fabric ships with:
  const auto t1 = core::check_theorem1(fabric);
  std::cout << "congestion-free shift guarantee (Theorem 1): "
            << (t1.holds ? "verified" : t1.detail) << '\n';

  const std::string out = cli.str("out");
  if (out != "-") {
    std::ofstream os(out);
    topo::write_topo(fabric, os);
    std::cout << "topo file written to " << out << '\n';
  } else {
    // Show the first lines of the export so the format is visible.
    const std::string text = topo::to_topo_string(fabric);
    std::cout << "\ntopo file preview (pass --out FILE to save all "
              << text.size() << " bytes):\n";
    std::size_t shown = 0, lines = 0;
    while (lines < 8 && shown < text.size()) {
      const auto nl = text.find('\n', shown);
      std::cout << "  " << text.substr(shown, nl - shown) << '\n';
      shown = nl + 1;
      ++lines;
    }
    std::cout << "  ...\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ftcf::util::guarded_main(argc, argv, run_main);
}
