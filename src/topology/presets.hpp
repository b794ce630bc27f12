// Named topology presets used by the paper's evaluation (§II, §VII) plus the
// worked examples of §IV. Where the paper names only a node count, the exact
// PGFT tuple is chosen to be the natural RLFT of that size built from
// same-radix switches; each preset documents that choice.
#pragma once

#include <cstdint>

#include "topology/spec.hpp"

namespace ftcf::topo {

/// Fig. 4(a): 16 nodes from 8-port switches as an XGFT — 4 spines, each with
/// only 4 of 8 ports used (the motivating inefficiency).
PgftSpec fig4a_xgft16();

/// Fig. 4(b): the same 16 nodes as a PGFT with 2 parallel ports — 2 spines,
/// fully used. PGFT(2; 4,4; 1,2; 1,2).
PgftSpec fig4b_pgft16();

/// Two-level RLFT of arity K fully populated: PGFT(2; K,2K; 1,K; 1,1),
/// N = 2K^2 (e.g. K=18 -> the classic 648-port InfiniBand director).
PgftSpec rlft2_full(std::uint32_t arity);

/// Three-level RLFT fully populated: PGFT(3; K,K,2K; 1,K,K; 1,1,1), N = 2K^3.
PgftSpec rlft3_full(std::uint32_t arity);

/// Three-level RLFT with reduced top: PGFT(3; K,K,T; 1,K,K; 1,1,1), N = K^2*T.
/// T <= 2K is the number of level-3 subtree columns ("m_3").
PgftSpec rlft3_top(std::uint32_t arity, std::uint32_t top);

/// The paper's cluster sizes:
///   128  -> 2-level K=8  (PGFT(2; 8,16; 1,8; 1,1))
///   324  -> 2-level K=18, 18 leaves, 9 dual-ported spines
///            (PGFT(2; 18,18; 1,9; 1,2))
///   1728 -> 3-level K=12, 12 top columns (PGFT(3; 12,12,12; 1,12,12; 1,1,1))
///   1944 -> 3-level K=18, 6 top columns (PGFT(3; 18,18,6; 1,18,18; 1,1,1))
///   11664-> maximal 3-level 36-port RLFT(3; 18,18,36; 1,18,18; 1,1,1)
PgftSpec paper_cluster(std::uint64_t nodes);

}  // namespace ftcf::topo
