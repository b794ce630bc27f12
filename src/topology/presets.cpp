#include "topology/presets.hpp"

#include "util/error.hpp"
#include "util/expects.hpp"

namespace ftcf::topo {

PgftSpec fig4a_xgft16() { return PgftSpec::xgft({4, 4}, {1, 4}); }

PgftSpec fig4b_pgft16() { return PgftSpec({4, 4}, {1, 2}, {1, 2}); }

PgftSpec rlft2_full(std::uint32_t arity) {
  return PgftSpec({arity, 2 * arity}, {1, arity}, {1, 1});
}

PgftSpec rlft3_full(std::uint32_t arity) {
  return PgftSpec({arity, arity, 2 * arity}, {1, arity, arity}, {1, 1, 1});
}

PgftSpec rlft3_top(std::uint32_t arity, std::uint32_t top) {
  util::expects(top >= 1 && top <= 2 * arity,
                "3-level RLFT supports at most 2K top columns");
  return PgftSpec({arity, arity, top}, {1, arity, arity}, {1, 1, 1});
}

PgftSpec paper_cluster(std::uint64_t nodes) {
  switch (nodes) {
    case 16: return fig4b_pgft16();
    case 128: return rlft2_full(8);
    case 324: return PgftSpec({18, 18}, {1, 9}, {1, 2});
    case 648: return rlft2_full(18);
    case 1728: return rlft3_top(12, 12);
    case 1944: return rlft3_top(18, 6);
    case 11664: return rlft3_full(18);
    default:
      throw util::SpecError("no paper preset for " + std::to_string(nodes) +
                            " nodes (have 16/128/324/648/1728/1944/11664)");
  }
}

}  // namespace ftcf::topo
