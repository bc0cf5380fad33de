// E-X1: the paper's second headline claim (§IV-B / abstract) isolated —
// "for a fixed size problem, moving the computation to a compute node with
// a larger number of cores, data-flow implementation outperforms the
// corresponding fork-join implementation."
//
// Sweeps the core count on the SKYLAKE-derived profile for fixed GE and FW
// problems and prints the OpenMP and CnC_tuner times plus their ratio: the
// ratio must cross 1 as cores grow.
#include <iostream>
#include <string>

#include "dp/registry.hpp"
#include "figure_common.hpp"
#include "sim/experiment.hpp"
#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/table_printer.hpp"

namespace {

/// The sweep. Throws contract_error (from dp::simulate) unless n and base
/// are powers of two with base <= n.
void sweep(std::int64_t n, std::int64_t base, const std::string& csv_path) {
  using namespace rdp;
  std::cout << "=== E-X1: fixed problem, growing core count (GE & FW-APSP, "
            << "n=" << n << ", base=" << base << ") ===\n\n";
  csv_writer csv({"benchmark", "cores", "OpenMP_s", "CnC_tuner_s",
                  "cnc_over_omp"});

  for (const dp::benchmark_id bm : {dp::benchmark_id::ge, dp::benchmark_id::fw}) {
    const char* const label = bench::figure_label(bm);
    table_printer table({"cores", "OpenMP (s)", "CnC_tuner (s)",
                         "CnC/OMP ratio", "OMP util", "CnC util"});
    for (unsigned cores : {8u, 16u, 32u, 64u, 96u, 128u, 192u, 256u}) {
      const auto r = dp::simulate(
          bm, static_cast<std::size_t>(n), static_cast<std::size_t>(base),
          {sim::exec_variant::omp_tasking, sim::exec_variant::cnc_tuner},
          sim::with_cores(sim::skylake192(), cores));
      const sim::variant_result& omp = r[0];
      const sim::variant_result& cnc = r[1];
      const double ratio = cnc.seconds / omp.seconds;
      table.add_row({std::to_string(cores), table_printer::num(omp.seconds),
                     table_printer::num(cnc.seconds),
                     table_printer::num(ratio),
                     table_printer::num(omp.utilization),
                     table_printer::num(cnc.utilization)});
      csv.add_row({label, std::to_string(cores),
                   table_printer::num(omp.seconds, 9),
                   table_printer::num(cnc.seconds, 9),
                   table_printer::num(ratio, 6)});
    }
    std::cout << label << "\n";
    table.print(std::cout);
    std::cout << "(ratio < 1 means data-flow wins; expected to fall below 1 "
                 "as cores grow while fork-join utilisation collapses)\n\n";
  }
  csv.save(csv_path);
  std::cout << "wrote " << csv_path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rdp;
  std::string csv_path = "xover_cores.csv";
  std::int64_t n = 4096, base = 256;
  cli_parser cli("Core-count crossover sweep (E-X1)");
  cli.add_string("csv", &csv_path, "CSV output path");
  cli.add_int("n", &n, "problem size (default 4096)");
  cli.add_int("base", &base, "base-case size (default 256)");
  try {
    if (!cli.parse(argc, argv)) return 0;
    sweep(n, base, csv_path);
  } catch (const std::exception& e) {
    // Parse errors and sizes the simulator rejects are usage errors.
    std::cerr << e.what() << "\n";
    return 2;
  }
  return 0;
}
