// Task DAGs derived from a spec and the lowerings that run it — the exact
// DAGs the simulator (src/sim) and the work/span analysis price, with no
// second description of any recurrence:
//
//   derive_dataflow  one node per enumerate_base() tile, one edge per
//                    depends() key that some tile produces (the constraints
//                    the data-flow backends enforce, via
//                    for_each_dependency).
//   derive_forkjoin  the split walk of run_forkjoin, executed symbolically:
//                    every base task becomes a leaf, every stage with more
//                    than one child a zero-work fork node and join node —
//                    each join edge that is not also a data dependency is an
//                    artificial dependency in the paper's sense (§III-B).
//   derive_rway      the same recording of run_rway's r-way recursion.
//
// A spec's tile DAG depends only on the tile count T = n/base, so callers
// pricing large problems derive from an instance at (n = T, base = 1)
// (dp::tile_spec) and price every node at the real base via `work_base`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "dp/spec/spec.hpp"
#include "trace/task_graph.hpp"

namespace rdp::exec {

/// The spec's base tiles in enumerate_base() order (at least one).
std::vector<dp::tile4> base_tiles(const dp::recurrence& rec);

/// Producer index passed for a key no base tile produces.
inline constexpr std::uint32_t k_seed = ~std::uint32_t{0};

/// The one resolver of a spec's dependence edges, shared by the data-flow
/// derivation, the band plan (exec/banding.hpp) and prepared_graph's freeze.
/// Calls dep(producer, consumer, key) for every depends() key of every tile
/// of tiles = base_tiles(rec): consumers in `tiles` order, keys in depends()
/// order, producer and consumer as indices into `tiles`. A key no tile
/// produces is an environment seed (FW's round -1; producer k_seed), legal
/// only for a value-passing spec — a token spec could never receive it, so
/// its graph would deadlock (contract_error). Each tile's key count is
/// checked against max_dependencies().
void for_each_dependency(
    const dp::recurrence& rec, const std::vector<dp::tile4>& tiles,
    const std::function<void(std::uint32_t, std::uint32_t, const dp::tile3&)>&
        dep);

trace::task_graph derive_dataflow(const dp::recurrence& rec,
                                  std::uint64_t work_base);

/// Requires power-of-two size() and base(), like run_forkjoin's callers.
trace::task_graph derive_forkjoin(const dp::recurrence& rec,
                                  std::uint64_t work_base);

/// Requires size() == base() * r^L, like run_rway.
trace::task_graph derive_rway(const dp::recurrence& rec, std::size_t r,
                              std::uint64_t work_base);

}  // namespace rdp::exec
