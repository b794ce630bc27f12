// Table 2 reproduction: the formal definition of every Collective
// Permutation Sequence, audited against the generated sequences. For each
// CPS the bench prints the paper's formula, the measured stage count, the
// direction class and the two §III key observations (constant displacement
// per stage; unidirectional CPS ⊆ Shift).
#include <iostream>

#include "cps/classify.hpp"
#include "cps/generators.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace ftcf;

const char* formula(cps::CpsKind kind) {
  switch (kind) {
    case cps::CpsKind::kRing:
      return "n_i -> n_(i+1 mod N)";
    case cps::CpsKind::kShift:
      return "n_i -> n_(i+s mod N), 1<=s<N";
    case cps::CpsKind::kBinomial:
      return "n_i -> n_(i+2^s), i<2^s, i+2^s<N";
    case cps::CpsKind::kDissemination:
      return "n_i -> n_(i+2^s mod N)";
    case cps::CpsKind::kTournament:
      return "n_(i+2^s) -> n_i, i=0 mod 2^(s+1)";
    case cps::CpsKind::kLinear:
      return "n_0 -> n_s, 1<=s<N";
    case cps::CpsKind::kRecursiveDoubling:
      return "n_i <-> n_(i xor 2^s), s ascending";
    case cps::CpsKind::kRecursiveHalving:
      return "n_i <-> n_(i xor 2^s), s descending";
  }
  return "?";
}

const char* direction_name(cps::Direction dir) {
  switch (dir) {
    case cps::Direction::kUnidirectional: return "unidirectional";
    case cps::Direction::kBidirectional: return "bidirectional";
    case cps::Direction::kMixed: return "mixed (pre/post folds)";
  }
  return "?";
}

int run_main(int argc, char** argv) {
  util::Cli cli("table2_cps_properties",
                "Table 2: formal CPS definitions, audited on generated "
                "sequences");
  cli.add_option("nodes", "rank count to audit", "1944");
  cli.add_flag("csv", "CSV output");
  if (!cli.parse(argc, argv)) return 0;

  const std::uint64_t n = cli.uinteger("nodes");
  util::Table table({"CPS", "definition", "stages", "direction",
                     "const displ./stage", "subset of Shift"});
  table.set_title("Table 2 — audited at N = " + std::to_string(n));

  bool all_ok = true;
  for (const cps::CpsKind kind : cps::kAllCpsKinds) {
    const cps::Sequence seq = cps::generate(kind, n);
    const cps::Direction dir = cps::sequence_direction(seq);

    bool permutations_ok = true;
    bool displacement_ok = true;
    for (const cps::Stage& st : seq.stages) {
      if (st.empty()) continue;
      permutations_ok =
          permutations_ok && cps::is_partial_permutation(st, n);
      // Unidirectional: exactly one class; bidirectional: at most {d, N-d}.
      const auto classes = cps::displacement_classes(st, n);
      displacement_ok = displacement_ok && classes.size() <= 2 &&
                        (classes.size() == 1 || classes[0] + classes[1] == n);
    }
    const bool in_shift = dir == cps::Direction::kUnidirectional
                              ? cps::shift_contains(seq)
                              : false;
    all_ok = all_ok && permutations_ok && displacement_ok;

    table.add_row({cps::cps_name(kind), formula(kind),
                   std::to_string(seq.num_stages()), direction_name(dir),
                   displacement_ok ? "yes" : "NO",
                   dir == cps::Direction::kUnidirectional
                       ? (in_shift ? "yes" : "NO")
                       : "n/a (bidirectional)"});
  }

  if (cli.flag("csv")) table.print_csv(std::cout);
  else table.print(std::cout);
  std::cout << "\n§III observations verified: every stage is a partial "
               "permutation with constant\n(or xor-symmetric) displacement; "
               "Shift is a superset of every unidirectional CPS.\n";
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return ftcf::util::guarded_main(argc, argv, run_main);
}
