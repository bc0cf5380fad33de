// Export the task DAGs of a small problem as Graphviz DOT — the quickest
// way to *see* the artificial dependencies: render the fork-join and
// data-flow graphs of the same benchmark side by side. Both are derived
// from the benchmark's spec (exec/derive.hpp), so any of the five exports.
//
//   $ ./dag_export --benchmark=sw --tiles=4 --out-prefix=sw4
//   $ dot -Tsvg sw4_forkjoin.dot > fj.svg && dot -Tsvg sw4_dataflow.dot > df.svg
#include <cctype>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "dp/registry.hpp"
#include "exec/derive.hpp"
#include "support/cli.hpp"

int main(int argc, char** argv) {
  using namespace rdp;
  std::string bm = "sw", prefix = "dag";
  std::int64_t tiles = 4, base = 8;
  cli_parser cli("Export fork-join and data-flow task DAGs as DOT");
  cli.add_string("benchmark", &bm,
                 "ge | sw | fw | lcs | paren (default sw)");
  cli.add_int("tiles", &tiles, "tiles per side, power of two (default 4)");
  cli.add_int("base", &base, "base size, for task work labels (default 8)");
  cli.add_string("out-prefix", &prefix, "output file prefix (default dag)");
  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  const auto t = static_cast<std::size_t>(tiles);
  const auto b = static_cast<std::size_t>(base);

  std::optional<dp::benchmark_id> id;
  for (const dp::benchmark_id candidate :
       {dp::benchmark_id::ge, dp::benchmark_id::sw, dp::benchmark_id::fw,
        dp::benchmark_id::lcs, dp::benchmark_id::paren}) {
    std::string name = dp::to_string(candidate);
    for (char& ch : name) ch = static_cast<char>(std::tolower(ch));
    if (name == bm) id = candidate;
  }
  if (!id) {
    std::cerr << "unknown benchmark: " << bm << "\n";
    return 2;
  }
  const dp::tile_spec spec(*id, t);
  const trace::task_graph fj = exec::derive_forkjoin(*spec, b);
  const trace::task_graph df = exec::derive_dataflow(*spec, b);

  for (const auto& [graph, kind] :
       {std::pair<const trace::task_graph&, const char*>{fj, "forkjoin"},
        {df, "dataflow"}}) {
    const std::string path = prefix + "_" + kind + ".dot";
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write " << path << "\n";
      return 1;
    }
    graph.write_dot(out, bm + "_" + kind);
    const auto ws = trace::analyze_work_span(graph);
    std::cout << path << ": " << graph.node_count() << " nodes ("
              << graph.base_task_count() << " base tasks), "
              << graph.edge_count() << " edges, span " << ws.span
              << ", parallelism " << ws.parallelism() << "\n";
  }
  std::cout << "\nrender with:  dot -Tsvg " << prefix
            << "_forkjoin.dot > fj.svg\n";
  return 0;
}
