// perfbench — the repository's benchmark program.
//
//   perfbench --workload fine|coarse|serve --seed N --seconds S --trace 0|1
//
// Every workload runs two phases on the same seed-generated inputs: the
// batch phase solves one instance of each spec on the serial, fork-join,
// CnC data-flow and prepared engines; the serve phase streams small
// requests through the prepared batch server at a fixed open-loop rate. The
// workloads differ in the batch sizes and in how the run's seconds are
// split between the phases (see perfbench/README.md).
//
// Prints one JSON line: correctness, operations attempted and failed, and
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// perfbench/run.py attaches the units from BENCHMARK.json.
#include <sys/resource.h>

#include <iomanip>
#include <iostream>
#include <stdexcept>
#include <string>

#include "phases.hpp"

namespace {

using namespace perfbench;

struct workload {
  const char* name;
  suite_shape batch;
  double batch_share;  // of --seconds; the serve phase gets the rest
};

// fine: base 8, overhead-bound — per-tile runtime cost dominates.
// coarse: base 64, kernel-bound — kernel time dominates.
// serve: the request mix, mostly as a served stream.
// Sizes per spec are picked so that no spec dominates a suite's time.
constexpr workload workloads[] = {
    {"fine", {8, {256, 1024, 256, 256, 1024}}, 0.5},
    {"coarse", {64, {1024, 4096, 512, 512, 4096}}, 0.5},
    {"serve", serve_shape, 0.3},
};

struct args {
  const workload* w = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

args parse(int argc, char** argv) {
  args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") {
      for (const workload& w : workloads)
        if (val == w.name) a.w = &w;
      if (a.w == nullptr) throw std::invalid_argument("unknown workload " + val);
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
      have_seconds = a.seconds > 0;
    } else if (key == "--trace") {
      if (val != "0" && val != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = val == "1";
      have_trace = true;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (argc % 2 != 1 || a.w == nullptr || !have_seed || !have_seconds ||
      !have_trace)
    throw std::invalid_argument(
        "usage: perfbench --workload fine|coarse|serve --seed N "
        "--seconds S --trace 0|1");
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB → MB
}

}  // namespace

int main(int argc, char** argv) {
  args a;
  try {
    a = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  const double batch_s = a.seconds * a.w->batch_share;
  const phase_result serve = run_serve(a.seed, a.seconds - batch_s, a.trace);
  const phase_result batch = run_batch(a.w->batch, a.seed, batch_s, a.trace);

  metric_map metrics;
  if (a.trace) {
    metrics = batch.per_layer;
    metrics.insert(serve.per_layer.begin(), serve.per_layer.end());
  } else {
    metrics = batch.end_to_end;
    metrics.insert(serve.end_to_end.begin(), serve.end_to_end.end());
    metrics["setup_s"] = batch.setup_s + serve.setup_s;
    metrics["peak_rss_mb"] = peak_rss_mb();
  }
  const std::uint64_t attempted = batch.ops.attempted + serve.ops.attempted;
  const std::uint64_t failed = batch.ops.failed + serve.ops.failed;

  std::cout << std::setprecision(17) << "{\"correct\": "
            << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, value] : metrics) {
    std::cout << sep << "\"" << name << "\": " << value;
    sep = ", ";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
