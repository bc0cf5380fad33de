// Batch phase: one suite solve per engine, interleaved round by round.
#include <algorithm>
#include <cmath>
#include <exception>
#include <iostream>
#include <string>

#include "exec/backend.hpp"
#include "exec/prepared_graph.hpp"
#include "forkjoin/worker_pool.hpp"
#include "phases.hpp"

namespace perfbench {

using namespace rdp;

namespace {

enum class engine { serial, forkjoin, cnc, prepared };
constexpr std::array<engine, 4> all_engines = {
    engine::serial, engine::forkjoin, engine::cnc, engine::prepared};

const char* engine_name(engine e) {
  switch (e) {
    case engine::serial: return "serial";
    case engine::forkjoin: return "forkjoin";
    case engine::cnc: return "cnc";
    case engine::prepared: return "prepared";
  }
  return "?";
}

/// Threads that can run tasks during a solve: the pool's workers plus the
/// calling thread, which helps while it waits on every pool engine.
double solve_threads(engine e) {
  return e == engine::serial ? 1.0 : pool_workers + 1.0;
}

/// What a set-up builds: the pool, the suite and its five frozen graphs.
/// The pool is declared last so its threads are joined first.
struct rig {
  instance_set suite;
  std::vector<exec::prepared_graph> graphs;
  double freeze_ms = 0;
  forkjoin::worker_pool pool{pool_workers};
};

std::unique_ptr<rig> build_rig(const suite_shape& shape, std::uint64_t seed) {
  auto r = std::make_unique<rig>();
  r->suite = make_suite(shape.n, shape.base, seed);
  const sclock::time_point t0 = sclock::now();
  for (auto& inst : r->suite)
    r->graphs.push_back(exec::prepared_graph::freeze(inst->spec()));
  r->freeze_ms = ms_since(t0);
  return r;
}

/// One suite solve on one engine.
struct suite_sample {
  double ms = 0;
  std::array<double, 5> spec_ms{};
  layer_ledger::totals layers;
  forkjoin::pool_stats pool_delta;
  dp::cnc_run_info cnc;
};

class batch_runner {
 public:
  batch_runner(rig& r, bool traced) : rig_(r), traced_(traced) {}

  /// Solve every instance once on `e`, checking each table bit-exact
  /// against the serial reference. Resets and checks are not timed.
  suite_sample solve(engine e, bool timed_layers) {
    suite_sample out;
    ledger_.clear();
    const forkjoin::pool_stats before =
        traced_ ? rig_.pool.stats() : forkjoin::pool_stats{};
    for (std::size_t s = 0; s < rig_.suite.size(); ++s) {
      instance& inst = *rig_.suite[s];
      inst.reset();
      timed_recurrence wrapped(inst.spec(), ledger_);
      dp::recurrence& rec =
          timed_layers ? static_cast<dp::recurrence&>(wrapped) : inst.spec();
      ++ops_.attempted;
      try {
        const sclock::time_point t0 = sclock::now();
        run(e, s, rec, out.cnc);
        out.spec_ms[s] = ms_since(t0);
        out.ms += out.spec_ms[s];
        if (!inst.work_matches_reference()) {
          ++ops_.failed;
          std::cerr << engine_name(e) << " " << spec_name(inst.id())
                    << ": table differs from the serial engine's\n";
        }
      } catch (const std::exception& ex) {
        ++ops_.failed;
        std::cerr << engine_name(e) << " " << spec_name(inst.id())
                  << " threw: " << ex.what() << "\n";
      }
    }
    out.layers = ledger_.sum();
    if (traced_) out.pool_delta = delta(before, rig_.pool.stats());
    return out;
  }

  const op_counts& ops() const { return ops_; }

 private:
  void run(engine e, std::size_t s, dp::recurrence& rec,
           dp::cnc_run_info& cnc) {
    switch (e) {
      case engine::serial:
        exec::run_serial(rec);
        break;
      case engine::forkjoin:
        exec::run_forkjoin(rec, rig_.pool);
        break;
      case engine::cnc: {
        exec::dataflow_options opts;
        opts.variant = dp::cnc_variant::native;
        opts.pool = &rig_.pool;
        const dp::cnc_run_info info = exec::run_dataflow(rec, opts);
        cnc.stats.steps_executed += info.stats.steps_executed;
        cnc.stats.steps_aborted += info.stats.steps_aborted;
        cnc.stats.gets_failed += info.stats.gets_failed;
        cnc.stats.items_put += info.stats.items_put;
        cnc.items_live_at_end += info.items_live_at_end;
        break;
      }
      case engine::prepared:
        rig_.graphs[s].execute(rec, rig_.pool);
        break;
    }
  }

  static forkjoin::pool_stats delta(const forkjoin::pool_stats& a,
                                    const forkjoin::pool_stats& b) {
    forkjoin::pool_stats d;
    d.tasks_executed = b.tasks_executed - a.tasks_executed;
    d.steals = b.steals - a.steals;
    d.failed_steal_rounds = b.failed_steal_rounds - a.failed_steal_rounds;
    d.parks = b.parks - a.parks;
    d.injections = b.injections - a.injections;
    return d;
  }

  rig& rig_;
  bool traced_;
  layer_ledger ledger_;
  op_counts ops_;
};

/// Median of one field over samples.
template <class F>
double median_of(const std::vector<suite_sample>& v, F f) {
  std::vector<double> xs;
  for (const suite_sample& s : v) xs.push_back(static_cast<double>(f(s)));
  return median(std::move(xs));
}

}  // namespace

phase_result run_batch(const suite_shape& shape, std::uint64_t seed,
                       double budget_s, bool traced) {
  phase_result res;

  // Set-up: pool construction, input generation and the five freezes,
  // repeated on fresh state; the last rig is the one measured.
  std::unique_ptr<rig> r;
  std::vector<double> setup_s, freeze_ms;
  for (int k = 0; k < setups; ++k) {
    r.reset();
    const sclock::time_point t0 = sclock::now();
    r = build_rig(shape, seed);
    setup_s.push_back(ms_since(t0) / 1e3);
    freeze_ms.push_back(r->freeze_ms);
  }
  res.setup_s = median(setup_s);

  // The correctness reference is the benchmark's own cost, not set-up.
  for (auto& inst : r->suite) inst->record_reference();

  batch_runner runner(*r, traced);

  // Warm-up solve per engine (checked, not reported); its times set how
  // often each engine repeats within a round, so that every engine gets a
  // comparable share of the phase.
  std::array<double, 4> warm_ms{};
  for (engine e : all_engines)
    warm_ms[static_cast<std::size_t>(e)] = runner.solve(e, false).ms;
  const double slowest = *std::max_element(warm_ms.begin(), warm_ms.end());
  std::array<int, 4> reps{};
  int max_reps = 1;
  for (std::size_t e = 0; e < reps.size(); ++e) {
    reps[e] = std::clamp(
        static_cast<int>(std::lround(slowest / std::max(warm_ms[e], 1e-3))),
        1, 8);
    max_reps = std::max(max_reps, reps[e]);
  }

  std::array<std::vector<suite_sample>, 4> plain, timed;
  const sclock::time_point t0 = sclock::now();
  int rounds = 0;
  while (rounds < 3 || ms_since(t0) < budget_s * 1e3) {
    for (int k = 0; k < max_reps; ++k)
      for (engine e : all_engines) {
        const std::size_t ei = static_cast<std::size_t>(e);
        if (k >= reps[ei]) continue;
        plain[ei].push_back(runner.solve(e, false));
        if (traced) timed[ei].push_back(runner.solve(e, true));
      }
    ++rounds;
  }
  res.ops = runner.ops();

  const auto suite_ms = [](const suite_sample& s) { return s.ms; };
  // The serial engine runs on one vCPU and takes a shared host's swings in
  // full: over ten runs its suite time spread up to 29%, more than the
  // largest bound a metric may have, so it is a per-layer metric.
  for (engine e : all_engines)
    if (e != engine::serial)
      res.end_to_end[std::string(engine_name(e)) + "_ms"] =
          median_of(plain[static_cast<std::size_t>(e)], suite_ms);
  if (!traced) return res;

  // ---- per-layer metrics (traced run) ----
  metric_map& m = res.per_layer;
  m["exec.serial.suite_ms"] =
      median_of(plain[static_cast<std::size_t>(engine::serial)], suite_ms);
  double tiles = 0, nodes = 0, edges = 0, cells = 0;
  for (std::size_t s = 0; s < r->suite.size(); ++s) {
    tiles += static_cast<double>(r->graphs[s].tile_count());
    nodes += static_cast<double>(r->graphs[s].node_count());
    edges += static_cast<double>(r->graphs[s].edge_count());
    cells += r->suite[s]->cell_updates();
  }
  m["exec.prepared.freeze_ms"] = median(freeze_ms);
  m["exec.prepared.nodes"] = nodes;
  m["exec.prepared.edges"] = edges;

  for (engine e : all_engines) {
    const std::size_t ei = static_cast<std::size_t>(e);
    const std::string en = engine_name(e);
    const auto& tv = timed[ei];
    const auto& pv = plain[ei];

    // Self-check of the decorator: every engine runs each base tile's
    // kernel exactly once, so every solve counts the suite's tiles — for
    // the prepared engine, the frozen graphs' node_count().
    const double expect = e == engine::prepared ? nodes : tiles;
    for (const suite_sample& s : tv)
      if (static_cast<double>(s.layers.kernel_calls) != expect) {
        ++res.ops.failed;
        std::cerr << en << ": " << s.layers.kernel_calls
                  << " kernel calls, expected " << expect << "\n";
      }

    m["kernels.busy_ms." + en] = median_of(tv, [](const suite_sample& s) {
      return static_cast<double>(s.layers.kernel_ns) / 1e6;
    });
    m["kernels.calls." + en] = median_of(
        tv, [](const suite_sample& s) { return s.layers.kernel_calls; });
    m["spec.busy_ms." + en] = median_of(tv, [](const suite_sample& s) {
      return static_cast<double>(s.layers.spec_ns) / 1e6;
    });
    m["spec.calls." + en] = median_of(
        tv, [](const suite_sample& s) { return s.layers.spec_calls; });
    for (std::size_t s = 0; s < r->suite.size(); ++s)
      m["exec." + en + "." + spec_name(r->suite[s]->id()) + "_ms"] =
          median_of(pv, [s](const suite_sample& x) { return x.spec_ms[s]; });
    const double threads = solve_threads(e);
    m["exec." + en + ".runtime_ms"] =
        median_of(tv, [threads](const suite_sample& s) {
          return threads * s.ms -
                 static_cast<double>(s.layers.kernel_ns + s.layers.spec_ns) /
                     1e6;
        });
    m["obs.trace_overhead_pct." + en] =
        100.0 * (median_of(tv, suite_ms) / median_of(pv, suite_ms) - 1.0);
    if (e == engine::serial) {
      m["kernels.gcells_s"] =
          cells / median_of(tv, [](const suite_sample& s) {
            return static_cast<double>(s.layers.kernel_ns);
          });
      continue;
    }
    m["forkjoin.tasks." + en] = median_of(
        tv, [](const suite_sample& s) { return s.pool_delta.tasks_executed; });
    m["forkjoin.steals." + en] = median_of(
        tv, [](const suite_sample& s) { return s.pool_delta.steals; });
    m["forkjoin.failed_steal_rounds." + en] =
        median_of(tv, [](const suite_sample& s) {
          return s.pool_delta.failed_steal_rounds;
        });
    m["forkjoin.parks." + en] = median_of(
        tv, [](const suite_sample& s) { return s.pool_delta.parks; });
    m["forkjoin.injections." + en] = median_of(
        tv, [](const suite_sample& s) { return s.pool_delta.injections; });
  }

  const auto& cv = plain[static_cast<std::size_t>(engine::cnc)];
  m["cnc.steps_executed"] = median_of(
      cv, [](const suite_sample& s) { return s.cnc.stats.steps_executed; });
  m["cnc.steps_aborted"] = median_of(
      cv, [](const suite_sample& s) { return s.cnc.stats.steps_aborted; });
  m["cnc.useful_ratio"] = median_of(cv, [](const suite_sample& s) {
    const double ex = static_cast<double>(s.cnc.stats.steps_executed);
    return ex / (ex + static_cast<double>(s.cnc.stats.steps_aborted));
  });
  m["cnc.gets_failed"] = median_of(
      cv, [](const suite_sample& s) { return s.cnc.stats.gets_failed; });
  m["cnc.items_put"] = median_of(
      cv, [](const suite_sample& s) { return s.cnc.stats.items_put; });
  m["cnc.items_live_at_end"] = median_of(
      cv, [](const suite_sample& s) { return s.cnc.items_live_at_end; });
  return res;
}

}  // namespace perfbench
