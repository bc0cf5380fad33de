// Registry-driven cross-backend equivalence: every variant the registry
// advertises must produce a bit-identical table to the serial 2-way R-DP
// backend, for every benchmark, across randomized sizes and base cases.
// This is the property the whole spec/executor refactor is built on — one
// recurrence spec, many lowerings, no numerical drift — and it runs under
// the TSan/UBSan presets (LABELS runtime).
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dp/dp.hpp"
#include "forkjoin/worker_pool.hpp"
#include "support/rng.hpp"

namespace {

using namespace rdp;
using namespace rdp::dp;

/// The sweep: power-of-two sizes with every power-of-two base, so each
/// (n, base) pair exercises as many registry rows as possible (rway:r4
/// joins whenever n/base is a power of 4).
struct sweep_point {
  std::size_t n, base;
};

std::vector<sweep_point> sweep_points() {
  std::vector<sweep_point> pts;
  for (std::size_t n : {16u, 32u, 128u})
    for (std::size_t base = 4; base <= n; base *= 2)
      pts.push_back({n, base});
  return pts;
}

run_options options_for(std::size_t base, forkjoin::worker_pool& pool) {
  run_options opts;
  opts.base = base;
  opts.workers = 3;  // deliberately != tile counts, to shake out races
  opts.pool = &pool;
  return opts;
}

/// Counts the environment-side seed items of a value-passing spec.
struct seed_counter final : value_store {
  std::uint64_t puts = 0;
  void put(const tile3&, tile_value) override { ++puts; }
  tile_value get(const tile3&) override { return nullptr; }
};

/// Schedule-independent counters of a Native-CnC run: every node of the
/// split tree is one tag and one successful step execution, and every base
/// task puts one item, next to the environment's seeds. Aborts move with
/// the schedule; these must not.
struct dataflow_counts {
  std::uint64_t steps = 0, items = 0;
};

dataflow_counts expected_counts(recurrence& rec) {
  dataflow_counts c;
  std::vector<tile4> pending{rec.root()};
  while (!pending.empty()) {
    const tile4 t = pending.back();
    pending.pop_back();
    ++c.steps;
    if (rec.is_base(t)) {
      ++c.items;
      continue;
    }
    const split_plan plan = rec.split(t);
    for (std::size_t i = 0; i < plan.child_count; ++i)
      pending.push_back(plan.children[i]);
  }
  if (rec.value_passing()) {
    seed_counter seeds;
    rec.seed_values(seeds);
    c.items += seeds.puts;
  }
  return c;
}

/// Runs every non-serial variant of `bm` at one sweep point and compares
/// the produced table against the serial run, bit for bit.
template <class Table, class Reset>
void check_point(benchmark_id bm, const problem_ref& prob,
                 const run_options& opts, Table& table, const Reset& reset,
                 std::size_t min_ran = 13) {
  const std::size_t n = problem_size(prob);
  const variant* serial = find_variant(bm, "serial");
  ASSERT_NE(serial, nullptr);
  ASSERT_TRUE(serial->supports(n, opts.base));
  reset();
  serial->run(*serial, prob, opts);
  const Table expected = table;

  std::size_t ran = 0;
  for (const variant* v : variants_for(bm)) {
    if (v == serial || !v->supports(n, opts.base)) continue;
    reset();
    const run_outcome outcome = v->run(*v, prob, opts);
    EXPECT_EQ(table, expected)
        << to_string(bm) << " × " << v->label << " diverged at n=" << n
        << ", base=" << opts.base;
    if (outcome.used_dataflow) {
      // Data-flow rows must have actually built a CnC graph.
      EXPECT_GT(outcome.info.stats.steps_executed, 0u) << v->label;
    }
    if (v->label == "dataflow:native") {
      const cnc::context_stats& st = outcome.info.stats;
      const dataflow_counts want =
          expected_counts(*make_problem_spec(prob, opts.base));
      EXPECT_EQ(st.steps_aborted, st.gets_failed) << "n=" << n;
      EXPECT_EQ(st.steps_executed, want.steps) << "n=" << n;
      EXPECT_EQ(st.items_put, want.items) << "n=" << n;
    }
    if (v->backend == backend_kind::sim) {
      // sim rows fill the table via the serial reference (checked above)
      // and must carry a non-trivial discrete-event prediction.
      EXPECT_TRUE(outcome.simulated) << v->label;
      EXPECT_GT(outcome.sim_seconds, 0.0) << v->label;
      EXPECT_GT(outcome.sim_base_tasks, 0u) << v->label;
    } else {
      EXPECT_FALSE(outcome.simulated) << v->label;
    }
    ++ran;
  }
  // forkjoin + tiled + 4 dataflow modes + rway:r2 + prepared +
  // prepared:batched always apply on a power-of-two sweep point (9 rows
  // past serial); GE/SW/FW add their 4 sim modes; rway:r4 joins whenever
  // n/base is a power of 4.
  EXPECT_GE(ran, min_ran) << "registry lost variants at n=" << n
                          << ", base=" << opts.base;
}

TEST(RegistryShape, AdvertisesEveryBackendPerBenchmark) {
  for (benchmark_id bm : {benchmark_id::ge, benchmark_id::sw,
                          benchmark_id::fw}) {
    const auto rows = variants_for(bm);
    ASSERT_EQ(rows.size(), 15u) << to_string(bm);
    // Labels resolve back to their own row, and are unique per benchmark.
    for (const variant* v : rows)
      EXPECT_EQ(find_variant(bm, v->label), v) << v->label;
  }
  // The variable-arity benchmarks carry every real backend but no sim:*
  // series (the simulator's cost model only covers the paper's figures).
  for (benchmark_id bm : {benchmark_id::lcs, benchmark_id::paren}) {
    const auto rows = variants_for(bm);
    ASSERT_EQ(rows.size(), 11u) << to_string(bm);
    for (const variant* v : rows) {
      EXPECT_EQ(find_variant(bm, v->label), v) << v->label;
      EXPECT_NE(v->backend, backend_kind::sim) << v->label;
    }
  }
  EXPECT_EQ(registry().size(), 67u);
  EXPECT_EQ(find_variant(benchmark_id::ge, "no-such-backend"), nullptr);
  EXPECT_NE(impl_help().find("dataflow:tuner"), std::string::npos);
  EXPECT_EQ(impl_help().find("dataflow:batched"), std::string::npos);
  EXPECT_EQ(impl_help().find("dataflow:sharded"), std::string::npos);
  EXPECT_NE(impl_help().find("prepared:batched"), std::string::npos);
  EXPECT_NE(impl_help().find("sim:omp"), std::string::npos);
}

TEST(RegistryEquivalence, GeAllVariantsMatchSerial) {
  forkjoin::worker_pool pool(3);
  xoshiro256 gen(42);
  for (const sweep_point pt : sweep_points()) {
    auto input = make_diag_dominant(pt.n, gen.next());
    auto m = input;
    check_point(benchmark_id::ge, ge_problem(m),
                options_for(pt.base, pool), m, [&] { m = input; });
  }
}

TEST(RegistryEquivalence, SwAllVariantsMatchSerial) {
  forkjoin::worker_pool pool(3);
  for (const sweep_point pt : sweep_points()) {
    const auto a = make_dna(pt.n, 7 + pt.n);
    const auto b = make_dna(pt.n, 8 + pt.base);
    const sw_params p;
    matrix<std::int32_t> s(pt.n + 1, pt.n + 1, 0);
    check_point(benchmark_id::sw, sw_problem(s, a, b, p),
                options_for(pt.base, pool), s, [&] {
                  s = matrix<std::int32_t>(pt.n + 1, pt.n + 1, 0);
                });
  }
}

TEST(RegistryEquivalence, FwAllVariantsMatchSerial) {
  forkjoin::worker_pool pool(3);
  for (const sweep_point pt : sweep_points()) {
    auto input = make_digraph(pt.n, 0.3, 5 + pt.base, 1e9);
    for (std::size_t i = 0; i < input.size(); ++i)
      input.data()[i] = static_cast<double>(
          static_cast<long long>(input.data()[i]));
    auto m = input;
    check_point(benchmark_id::fw, fw_problem(m),
                options_for(pt.base, pool), m, [&] { m = input; });
  }
}

TEST(RegistryEquivalence, LcsAllVariantsMatchSerial) {
  forkjoin::worker_pool pool(3);
  for (const sweep_point pt : sweep_points()) {
    const auto a = make_dna(pt.n, 11 + pt.n);
    const auto b = make_dna(pt.n, 13 + pt.base);
    matrix<std::int32_t> s(pt.n + 1, pt.n + 1, 0);
    check_point(benchmark_id::lcs, lcs_problem(s, a, b),
                options_for(pt.base, pool), s,
                [&] { s = matrix<std::int32_t>(pt.n + 1, pt.n + 1, 0); },
                /*min_ran=*/9);
  }
}

TEST(RegistryEquivalence, ParenAllVariantsMatchSerial) {
  forkjoin::worker_pool pool(3);
  xoshiro256 gen(17);
  for (const sweep_point pt : sweep_points()) {
    // Integer-valued chain dimensions keep every candidate cost exact, but
    // bit-exactness does not depend on it: min over a fixed candidate set
    // is evaluation-order-free.
    std::vector<double> dims(pt.n + 1);
    for (double& d : dims) d = static_cast<double>(1 + gen.next() % 64);
    matrix<double> c(pt.n, pt.n, 0.0);
    check_point(benchmark_id::paren, paren_problem(c, dims),
                options_for(pt.base, pool), c,
                [&] { c = matrix<double>(pt.n, pt.n, 0.0); },
                /*min_ran=*/9);
  }
}

}  // namespace
