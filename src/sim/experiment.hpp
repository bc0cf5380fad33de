// Experiment driver: derived task DAG × variant × machine -> seconds.
//
// This is the engine behind every figure bench (Figures 4-9): it prices
// each node of a spec's derived task DAG (exec/derive.hpp — fork-join with
// joins, or data-flow with true dependencies) with the machine's cost model
// plus the variant's runtime overheads, and runs the greedy DES. The
// simulator knows no benchmarks: the spec's structure_kind selects the
// data-movement model. The "Estimated" series of Figures 4-5 instead comes
// from the closed-form analytical model (rdp::model), exactly as in the
// paper.
#pragma once

#include <cstddef>

#include "dp/common.hpp"
#include "sim/des.hpp"
#include "sim/machine.hpp"
#include "trace/task_graph.hpp"

namespace rdp::sim {

struct variant_result {
  double seconds = 0;       // predicted wall-clock
  double utilization = 0;   // busy / (cores * makespan)
  std::uint64_t base_tasks = 0;
};

/// Simulate one variant on its DAG: `g` is the spec's fork-join DAG for
/// omp_tasking and its data-flow DAG for the CnC variants, with node work
/// priced at tile side `base`. `structure` selects the per-task data cost:
/// streamed tiles for wavefront specs, three-block kernels otherwise.
variant_result simulate_variant(const trace::task_graph& g,
                                dp::structure_kind structure,
                                exec_variant variant, std::size_t base,
                                const machine_profile& machine);

/// The analytical "Estimated" series (GE and FW only, as in the paper:
/// abcd_triangular and abcd_full).
double estimated_seconds(dp::structure_kind structure, std::size_t n,
                         std::size_t base, const machine_profile& machine);

}  // namespace rdp::sim
