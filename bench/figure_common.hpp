// Shared driver for the figure-regeneration benches (Figures 4-9).
//
// Each figure binary declares its benchmark + machine profile and calls
// run_figure_bench(), which sweeps the paper's panels (2K/4K/8K/16K
// matrices × base-case sizes), simulates every variant (CnC, CnC_tuner,
// CnC_manual, OpenMP — plus the analytical Estimated series for GE/FW),
// prints one table per panel in the same layout the paper plots, and
// writes a CSV with all series.
#pragma once

#include "dp/registry.hpp"
#include "sim/machine.hpp"

namespace rdp::bench {

struct figure_options {
  const char* figure_name;  // e.g. "Figure 4: Gaussian Elimination, EPYC-64"
  const char* csv_file;     // e.g. "fig4_ge_epyc64.csv"
  dp::benchmark_id bm;
  sim::machine_profile machine;
  bool with_estimated = false;  // the GE/FW "Estimated" analytical series
  std::size_t min_base = 64;    // smallest base size in the sweep
};

/// The benchmark's name in figure CSVs, tables and trace phases: the
/// registry name, except the paper's "FW-APSP" for Floyd-Warshall.
const char* figure_label(dp::benchmark_id bm);

/// Runs the sweep; returns a process exit code. Flags:
///   --quick        only the 2K and 4K panels
///   --full         include the largest (memory-hungry) configurations
///   --csv=<path>   override the CSV output path
///   --trace=<path> instead of the simulated sweep, run the figure's
///                  benchmark for real at laptop scale under the rdp::obs
///                  event tracer — one phase per --impl variant — write a
///                  Chrome trace_event JSON to <path> (load in
///                  chrome://tracing or ui.perfetto.dev) and print the
///                  per-phase scheduler summary table.
///   --impl=<list>  comma-separated variant-registry labels selecting the
///                  traced phases (default forkjoin,dataflow:native,
///                  dataflow:tuner — the paper's fork-join vs Native-CnC vs
///                  Tuner-CnC comparison). The full label list comes from
///                  rdp::dp::registry(); see `--help` or DESIGN.md §10.
int run_figure_bench(int argc, const char* const* argv,
                     const figure_options& opts);

}  // namespace rdp::bench
