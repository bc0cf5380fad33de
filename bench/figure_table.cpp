#include "figure_table.hpp"

#include <iostream>

#include "figure_common.hpp"
#include "sim/machine.hpp"

namespace rdp::bench {

namespace {

struct figure_row {
  const char* key;
  const char* name;
  const char* csv;
  dp::benchmark_id bm;
  sim::machine_profile (*machine)();
  bool with_estimated;
  std::size_t min_base;
};

// The paper's six scaling figures: {GE, SW, FW} × {EPYC-64, SKYLAKE-192}.
// GE panels start at base 8 and carry the analytical Estimated series.
const figure_row k_figures[] = {
    {"fig4", "Figure 4: Gaussian Elimination on EPYC-64",
     "fig4_ge_epyc64.csv", dp::benchmark_id::ge, &sim::epyc64, true, 8},
    {"fig5", "Figure 5: Gaussian Elimination on SKYLAKE-192",
     "fig5_ge_skylake192.csv", dp::benchmark_id::ge, &sim::skylake192, true,
     8},
    {"fig6", "Figure 6: Smith-Waterman on EPYC-64",
     "fig6_sw_epyc64.csv", dp::benchmark_id::sw, &sim::epyc64, false, 64},
    {"fig7", "Figure 7: Smith-Waterman on SKYLAKE-192",
     "fig7_sw_skylake192.csv", dp::benchmark_id::sw, &sim::skylake192, false,
     64},
    {"fig8", "Figure 8: Floyd Warshall's Algorithm on EPYC-64",
     "fig8_fw_epyc64.csv", dp::benchmark_id::fw, &sim::epyc64, false, 64},
    {"fig9", "Figure 9: Floyd Warshall's Algorithm on SKYLAKE-192",
     "fig9_fw_skylake192.csv", dp::benchmark_id::fw, &sim::skylake192, false,
     64},
};

}  // namespace

int run_figure(std::string_view key, int argc, const char* const* argv) {
  for (const figure_row& row : k_figures) {
    if (key != row.key) continue;
    figure_options opts;
    opts.figure_name = row.name;
    opts.csv_file = row.csv;
    opts.bm = row.bm;
    opts.machine = row.machine();
    opts.with_estimated = row.with_estimated;
    opts.min_base = row.min_base;
    return run_figure_bench(argc, argv, opts);
  }
  std::cerr << "unknown figure key: " << key << "\n";
  return 2;
}

}  // namespace rdp::bench
