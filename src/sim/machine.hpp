// Machine profiles for the many-core simulator.
//
// The paper's evaluation machines (AMD EPYC 7501 2×32c, Intel Xeon
// Platinum 8160 8×24c) are modelled rather than run on: core counts,
// per-level cache capacities and miss penalties, sustained per-update cost,
// and the per-task overheads of each runtime variant. The overhead numbers
// are order-of-magnitude calibrations from the real runtimes in this
// repository (bench/micro_runtimes) and published OpenMP/TBB task-overhead
// measurements; EXPERIMENTS.md discusses their provenance. Only *shapes*
// (who wins, where crossovers fall) are claimed, not absolute seconds.
#pragma once

#include <string>

#include "model/analytical.hpp"

namespace rdp::sim {

/// Execution-model variants benchmarked in §IV-B.
enum class exec_variant {
  omp_tasking,  // fork-join DAG (artificial join dependencies)
  cnc_native,   // data-flow DAG, blocking gets with abort/re-execute
  cnc_tuner,    // data-flow DAG, pre-scheduling tuner
  cnc_manual,   // data-flow DAG, flat pre-declared tags (serial setup)
};

constexpr const char* to_string(exec_variant v) {
  switch (v) {
    case exec_variant::omp_tasking: return "OpenMP";
    case exec_variant::cnc_native: return "CnC";
    case exec_variant::cnc_tuner: return "CnC_tuner";
    case exec_variant::cnc_manual: return "CnC_manual";
  }
  return "?";
}

/// Per-runtime cost knobs (seconds).
struct runtime_costs {
  // Fork-join: per-task spawn/dispatch + per-join bookkeeping.
  double fj_spawn = 1.2e-6;
  double fj_join = 0.4e-6;
  // Data-flow: per item-collection get/put (hash + lock), per tag put,
  // and the extra cost of an aborted execution under blocking gets.
  double df_get = 0.45e-6;
  double df_put = 0.55e-6;
  double df_tag = 0.35e-6;
  double df_abort_penalty = 1.1e-6;   // native only, per expected abort
  double df_predecl = 0.25e-6;        // manual: serial per-task declaration
  // Scheduling-order locality: fraction of a task's data-movement cost
  // saved by depth-first fork-join execution vs. scattered data-flow order.
  double fj_locality_reuse = 0.35;
  double df_locality_reuse = 0.10;
};

struct machine_profile {
  std::string name;
  unsigned cores = 1;
  model::model_machine model;  // cache capacities, penalties, flop time
  runtime_costs costs;
};

/// AMD EPYC 7501 (2 sockets × 32 cores) — Figures 4, 6, 8.
machine_profile epyc64();

/// Intel Xeon Platinum 8160 (8 sockets × 24 cores) — Figures 5, 7, 9.
machine_profile skylake192();

/// A profile with everything from `base` but a different core count
/// (used by the core-count crossover sweep E-X1).
machine_profile with_cores(machine_profile base, unsigned cores);

}  // namespace rdp::sim
