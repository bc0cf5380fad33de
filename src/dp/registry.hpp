// Runtime variant registry: every (benchmark × executor backend × mode)
// combination the repo can run, as data.
//
// Benches and tests used to hard-code the variant list ("oracle, rdp-serial,
// forkjoin, tiled, CnC, CnC_tuner, ...") in half a dozen places; each new
// backend meant touching all of them. The registry enumerates the pairs
// once — (benchmark, backend[:mode]) → runner — so consumers iterate it
// (equivalence tests, smoke benches) or resolve one entry from a CLI
// `--impl=backend[:mode]` string. Every entry is behavior-preserving with
// the per-benchmark entry points it wraps (ge_rdp_serial, ge_cnc, ...):
// same precondition checks, bit-identical outputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dp/spec/spec.hpp"  // cnc_run_info
#include "dp/sw.hpp"
#include "support/matrix.hpp"

namespace rdp::forkjoin {
class worker_pool;
}

namespace rdp::sim {
enum class exec_variant;
struct machine_profile;
struct variant_result;
}  // namespace rdp::sim

namespace rdp::dp {

enum class benchmark_id : std::uint8_t { ge, sw, fw, lcs, paren };
enum class backend_kind : std::uint8_t {
  serial,    ///< depth-first 2-way recursion on one thread
  forkjoin,  ///< 2-way recursion with task_group stages
  tiled,     ///< blocked rounds / tile wavefronts with barriers
  dataflow,  ///< CnC graph (modes: native, tuner, manual, nonblocking)
  rway,      ///< parametric r-way recursion (modes: r2, r4)
  prepared,  ///< frozen dependence DAG (exec::prepared_graph) built once
             ///< per run here; the batch server amortises the freeze
             ///< across requests
  sim,       ///< discrete-event simulated schedule (modes: cnc, tuner,
             ///< manual, omp); the table itself is computed by the serial
             ///< reference so outputs stay bit-identical
};

const char* to_string(benchmark_id b) noexcept;
const char* to_string(backend_kind b) noexcept;

/// Non-owning reference to one benchmark's problem data. GE/FW use `table`;
/// SW/LCS use `sw_table` + the sequences (SW also the scoring params);
/// Paren uses `table` (the cost triangle) + `dims` (the n+1 chain
/// dimensions).
struct problem_ref {
  benchmark_id bm;
  matrix<double>* table = nullptr;
  matrix<std::int32_t>* sw_table = nullptr;
  std::string_view a, b;
  const sw_params* params = nullptr;
  const std::vector<double>* dims = nullptr;
};

problem_ref ge_problem(matrix<double>& m);
problem_ref fw_problem(matrix<double>& m);
problem_ref sw_problem(matrix<std::int32_t>& s, std::string_view a,
                       std::string_view b, const sw_params& p);
problem_ref lcs_problem(matrix<std::int32_t>& s, std::string_view a,
                        std::string_view b);
problem_ref paren_problem(matrix<double>& c, const std::vector<double>& dims);

/// Problem size n of a reference (table side / sequence length).
std::size_t problem_size(const problem_ref& p);

/// Spec for one problem instance. The prepared rows, the batch server, and
/// every runner of a spec-only benchmark (LCS, Paren — which have no
/// per-benchmark entry points) build their execution from this.
std::unique_ptr<recurrence> make_problem_spec(const problem_ref& p,
                                              std::size_t base);

struct run_options {
  std::size_t base = 64;
  /// Worker count for parallel backends (and the data-flow context).
  unsigned workers = 4;
  /// Pool for the fork-join/tiled/r-way backends; when null each run owns a
  /// transient pool of `workers` threads. The data-flow backend always owns
  /// its context pool.
  forkjoin::worker_pool* pool = nullptr;
  /// compute_on tile pinning (data-flow GE only; ignored elsewhere).
  bool pin_tiles = false;
  /// Machine profile for sim:* rows; when null they price the schedule on
  /// sim::epyc64(). Ignored by every real backend.
  const sim::machine_profile* sim_machine = nullptr;
};

struct run_outcome {
  /// True when `info` carries data-flow run counters.
  bool used_dataflow = false;
  cnc_run_info info{};
  /// True for sim:* rows: the table was filled by the serial reference
  /// (simulation never changes outputs) and the fields below carry the
  /// discrete-event prediction for the requested variant.
  bool simulated = false;
  double sim_seconds = 0;       ///< predicted wall-clock
  double sim_utilization = 0;   ///< busy / (cores × makespan)
  std::uint64_t sim_base_tasks = 0;
};

/// One runnable registry entry.
struct variant {
  benchmark_id bm;
  backend_kind backend;
  std::string_view mode;   ///< "" for modeless backends
  std::string_view label;  ///< "serial", "dataflow:tuner", "rway:r2", ...
  /// Whether (n, base) satisfies this backend's preconditions.
  bool (*supports)(std::size_t n, std::size_t base);
  run_outcome (*run)(const variant& self, const problem_ref& p,
                     const run_options& opts);
};

/// All registered variants: the paper's three benchmarks get 15
/// backend[:mode] entries each (11 real + 4 sim:* series); the
/// variable-arity benchmarks (LCS, Paren) get the 11 real entries — the
/// simulator's cost model only covers the paper's figures.
/// Debug builds cross-check every spec with dp::verify_spec on a small
/// instance the first time this is called (see registry.cpp).
const std::vector<variant>& registry();

/// The registry rows of one benchmark, in registration order.
std::vector<const variant*> variants_for(benchmark_id bm);

/// Resolve "backend[:mode]" (e.g. "forkjoin", "dataflow:tuner") for a
/// benchmark; nullptr when unknown.
const variant* find_variant(benchmark_id bm, std::string_view impl);

/// Comma-separated list of every backend[:mode] label (for --help text and
/// docs — always in sync with the registry).
std::string impl_help();

/// Display name of a variant for obs/trace phase labels. Data-flow rows
/// keep the paper's series names ("CnC", "CnC_tuner", ...); sim rows get
/// "sim:" + the simulator's series name; every other backend is labelled
/// by its registry label.
std::string trace_phase_label(const variant& v);

/// Map a sim:* row's mode string ("cnc", "tuner", "manual", "omp") onto
/// the simulator's execution variant. Throws contract_error otherwise.
sim::exec_variant sim_mode_to_exec(std::string_view mode);

/// Benchmark bm's spec over a tiles × tiles grid at unit base (n = tiles,
/// base = 1), owning the placeholder problem data it views. A spec's tile
/// DAG depends only on n/base, so this instance stands for every (n, base)
/// with n/base == tiles: exec/derive.hpp derives the DAG from it and prices
/// each node at the real base, and the figure sweeps at n = 16384 never
/// allocate an n×n table. Requires tiles >= 1.
class tile_spec {
 public:
  tile_spec(benchmark_id bm, std::size_t tiles);
  tile_spec(const tile_spec&) = delete;
  tile_spec& operator=(const tile_spec&) = delete;

  recurrence& operator*() const { return *spec_; }
  recurrence* operator->() const { return spec_.get(); }

 private:
  matrix<double> table_;
  matrix<std::int32_t> cells_;
  std::string seq_;
  std::vector<double> dims_;
  sw_params params_;
  std::unique_ptr<recurrence> spec_;
};

/// The DES prediction for each of `variants` on benchmark bm at problem
/// size n and tile side base (sim/experiment.hpp). Each variant is priced
/// on the DAG its runtime executes, derived from bm's spec: the fork-join
/// DAG for omp_tasking, the data-flow DAG for the CnC variants. Consecutive
/// variants on the same DAG share one derivation, and only one DAG is alive
/// at a time. Requires power-of-two n and base with base <= n.
std::vector<sim::variant_result> simulate(
    benchmark_id bm, std::size_t n, std::size_t base,
    const std::vector<sim::exec_variant>& variants,
    const sim::machine_profile& machine);

}  // namespace rdp::dp
