// Tests for the task DAGs derived from the specs (exec/derive.hpp) and the
// work/span analysis — including the paper's central structural claim:
// fork-join joins inflate the span (artificial dependencies), data-flow
// DAGs do not.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dp/registry.hpp"
#include "dp/spec/specs.hpp"
#include "exec/derive.hpp"
#include "trace/task_graph.hpp"

namespace {

using namespace rdp;
using namespace rdp::trace;
using dp::benchmark_id;

// The DAGs of benchmark bm at t tiles per side, each base task priced at
// side `base` — derived from the spec at (n = t, base = 1).
task_graph dataflow(benchmark_id bm, std::size_t t, std::size_t base) {
  const dp::tile_spec spec(bm, t);
  return exec::derive_dataflow(*spec, base);
}
task_graph forkjoin(benchmark_id bm, std::size_t t, std::size_t base) {
  const dp::tile_spec spec(bm, t);
  return exec::derive_forkjoin(*spec, base);
}
task_graph ge_rway(std::size_t t, std::size_t base, std::size_t r) {
  const dp::tile_spec spec(benchmark_id::ge, t);
  return exec::derive_rway(*spec, r, base);
}

std::uint64_t ge_task_count(std::uint64_t t) {
  return (2 * t * t * t + 3 * t * t + t) / 6;
}

double work_cost(const task_node& n) { return static_cast<double>(n.work); }
double unit_cost(const task_node& n) {
  return n.type == node_type::base_task ? 1.0 : 0.0;
}

/// T∞(fork-join) / T∞(data-flow) of benchmark bm at t tiles of side 8.
double span_gap(benchmark_id bm, std::size_t t,
                double (*cost)(const task_node&) = work_cost) {
  return analyze_work_span(forkjoin(bm, t, 8), cost).span /
         analyze_work_span(dataflow(bm, t, 8), cost).span;
}

TEST(TaskGraph, TopologicalOrderAndValidation) {
  task_graph g;
  const auto a = g.add_node(node_type::base_task, dp::task_kind::A, {}, 5);
  const auto b = g.add_node(node_type::base_task, dp::task_kind::B, {}, 3);
  const auto c = g.add_node(node_type::base_task, dp::task_kind::C, {}, 3);
  const auto d = g.add_node(node_type::base_task, dp::task_kind::D, {}, 7);
  g.add_edge(a, b);
  g.add_edge(a, c);
  g.add_edge(b, d);
  g.add_edge(c, d);
  g.validate();
  const auto order = g.topological_order();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), a);
  EXPECT_EQ(order.back(), d);
  const auto ws = analyze_work_span(g);
  EXPECT_DOUBLE_EQ(ws.total_work, 18.0);
  EXPECT_DOUBLE_EQ(ws.span, 15.0);  // a -> b/c -> d = 5+3+7
}

TEST(TaskGraph, CycleDetection) {
  task_graph g;
  const auto a = g.add_node(node_type::base_task);
  const auto b = g.add_node(node_type::base_task);
  g.add_edge(a, b);
  g.add_edge(b, a);
  EXPECT_THROW(g.topological_order(), contract_error);
}

TEST(TaskWork, GeWorkSumsToLoopNestSize) {
  // Σ over all base tasks of their update counts must equal the loop nest:
  // Σ_{k<n} (n-1-k)^2 = (n-1)n(2n-1)/6 — independent of the base size.
  const std::uint64_t n = 256;
  const std::uint64_t loop_total = (n - 1) * n * (2 * n - 1) / 6;
  for (std::uint64_t base : {8ull, 16ull, 32ull, 64ull, 256ull}) {
    const auto g = dataflow(benchmark_id::ge, n / base, base);
    std::uint64_t total = 0;
    for (const auto& node : g.nodes()) total += node.work;
    EXPECT_EQ(total, loop_total) << "base=" << base;
  }
}

TEST(TaskWork, FwWorkSumsToCube) {
  const std::uint64_t n = 128;
  for (std::uint64_t base : {8ull, 32ull}) {
    const auto g = dataflow(benchmark_id::fw, n / base, base);
    std::uint64_t total = 0;
    for (const auto& node : g.nodes()) total += node.work;
    EXPECT_EQ(total, n * n * n) << "base=" << base;
  }
}

class BuilderSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BuilderSweep, GeDataflowShape) {
  const std::size_t t = GetParam();
  const auto g = dataflow(benchmark_id::ge, t, 16);
  g.validate();
  EXPECT_EQ(g.node_count(), ge_task_count(t));
  EXPECT_EQ(g.base_task_count(), ge_task_count(t));
}

TEST_P(BuilderSweep, GeForkjoinCoversSameBaseTasks) {
  const std::size_t t = GetParam();
  const auto g = forkjoin(benchmark_id::ge, t, 16);
  g.validate();
  EXPECT_EQ(g.base_task_count(), ge_task_count(t));
  // Fork-join DAG carries the same total work as the data-flow DAG.
  const auto df = dataflow(benchmark_id::ge, t, 16);
  EXPECT_DOUBLE_EQ(analyze_work_span(g).total_work,
                   analyze_work_span(df).total_work);
}

TEST_P(BuilderSweep, FwShapes) {
  const std::size_t t = GetParam();
  const auto df = dataflow(benchmark_id::fw, t, 8);
  const auto fj = forkjoin(benchmark_id::fw, t, 8);
  df.validate();
  fj.validate();
  EXPECT_EQ(df.base_task_count(), t * t * t);
  EXPECT_EQ(fj.base_task_count(), t * t * t);
}

TEST_P(BuilderSweep, SwShapes) {
  const std::size_t t = GetParam();
  const auto df = dataflow(benchmark_id::sw, t, 8);
  const auto fj = forkjoin(benchmark_id::sw, t, 8);
  df.validate();
  fj.validate();
  EXPECT_EQ(df.base_task_count(), t * t);
  EXPECT_EQ(fj.base_task_count(), t * t);
}

INSTANTIATE_TEST_SUITE_P(TileCounts, BuilderSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

// ------------------- the paper's span claims (§III-B) ---------------------

TEST(SpanClaims, SwDataflowSpanIsWavefront) {
  // Data-flow SW: critical path = 2T-1 tiles of b^2 work each.
  for (std::size_t t : {4ull, 16ull, 64ull}) {
    const auto g = dataflow(benchmark_id::sw, t, 8);
    const auto ws = analyze_work_span(g);
    EXPECT_DOUBLE_EQ(ws.span, static_cast<double>((2 * t - 1) * 64));
  }
}

TEST(SpanClaims, SwForkjoinSpanIsPowerLog3) {
  // Fork-join SW: R(X) = R00; {R01 ∥ R10}; R11 gives span(T) = 3·span(T/2)
  // => exactly 3^log2(T) base tasks on the critical path.
  for (std::size_t t : {4ull, 16ull, 64ull}) {
    const auto g = forkjoin(benchmark_id::sw, t, 8);
    const auto ws = analyze_work_span(g);
    const double expected =
        std::pow(3.0, std::log2(static_cast<double>(t))) * 64.0;
    EXPECT_DOUBLE_EQ(ws.span, expected) << "t=" << t;
  }
}

TEST(SpanClaims, ForkJoinSpanStrictlyWorseThanDataflow) {
  // The artificial dependencies must show up as a strictly longer critical
  // path for every benchmark once there are enough tiles.
  for (std::size_t t : {8ull, 16ull, 32ull}) {
    EXPECT_GT(span_gap(benchmark_id::sw, t), 1.0) << "t=" << t;
    EXPECT_GT(span_gap(benchmark_id::ge, t), 1.0) << "t=" << t;
    EXPECT_GT(span_gap(benchmark_id::fw, t), 1.0) << "t=" << t;
    // LCS and Paren (the >O(1)-fan-in spec), one unit of cost per base
    // task: the join inflation does not depend on the tile kernels.
    for (const benchmark_id bm : {benchmark_id::lcs, benchmark_id::paren})
      EXPECT_GT(span_gap(bm, t, unit_cost), 1.0)
          << dp::to_string(bm) << " t=" << t;
  }
}

TEST(SpanClaims, SwForkjoinGapGrowsWithProblemSize) {
  // span ratio ~ T^(log2 3 - 1): increasing — the asymptotic separation.
  double prev = 0;
  for (std::size_t t : {4ull, 8ull, 16ull, 32ull, 64ull}) {
    const double gap = span_gap(benchmark_id::sw, t);
    EXPECT_GT(gap, prev);
    prev = gap;
  }
}

TEST(SpanClaims, GeDataflowParallelismGrowsQuadratically) {
  // GE data-flow average parallelism is Θ(T²)·work-weighted; just assert
  // substantial growth between T=8 and T=32.
  const auto p8 =
      analyze_work_span(dataflow(benchmark_id::ge, 8, 8)).parallelism();
  const auto p32 =
      analyze_work_span(dataflow(benchmark_id::ge, 32, 8)).parallelism();
  EXPECT_GT(p32, 4 * p8);
}

TEST(DotExport, RendersSmallGraph) {
  const auto g = dataflow(benchmark_id::sw, 2, 4);
  std::ostringstream os;
  g.write_dot(os, "sw2");
  const std::string dot = os.str();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(DotExport, RefusesHugeGraph) {
  const auto g = dataflow(benchmark_id::fw, 32, 8);  // 32768 nodes
  std::ostringstream os;
  EXPECT_THROW(g.write_dot(os, "big"), contract_error);
}

// ----------------------- r-way fork-join builder ---------------------------

TEST(RwayBuilder, CoversTheSameBaseTasksAsTwoWay) {
  for (std::size_t t : {4ull, 16ull, 64ull}) {
    const auto g = ge_rway(t, 16, 4);
    g.validate();
    EXPECT_EQ(g.base_task_count(), ge_task_count(t)) << "t=" << t;
    // Work conservation across branching factors.
    EXPECT_DOUBLE_EQ(
        analyze_work_span(g).total_work,
        analyze_work_span(dataflow(benchmark_id::ge, t, 16)).total_work);
  }
}

TEST(RwayBuilder, TwoWayMatchesDedicatedBuilderSpan) {
  for (std::size_t t : {8ull, 32ull}) {
    const auto rway = analyze_work_span(ge_rway(t, 32, 2));
    const auto classic = analyze_work_span(forkjoin(benchmark_id::ge, t, 32));
    EXPECT_DOUBLE_EQ(rway.span, classic.span) << "t=" << t;
    EXPECT_DOUBLE_EQ(rway.total_work, classic.total_work);
  }
}

TEST(RwayBuilder, SpanDecreasesMonotonicallyInR) {
  const std::size_t t = 64;
  double prev = 1e300;
  for (std::size_t r : {2ull, 4ull, 8ull, 64ull}) {
    const auto ws = analyze_work_span(ge_rway(t, 16, r));
    EXPECT_LT(ws.span, prev) << "r=" << r;
    prev = ws.span;
  }
  // Full-width recursion (r == tiles) reaches the data-flow span exactly.
  EXPECT_DOUBLE_EQ(prev,
                   analyze_work_span(dataflow(benchmark_id::ge, t, 16)).span);
}

TEST(RwayBuilder, RejectsNonConformingTileCounts) {
  EXPECT_THROW(ge_rway(24, 16, 4), contract_error);
  EXPECT_THROW(ge_rway(16, 16, 1), contract_error);
}

// Single-tile edge cases: every derivation must produce exactly one task.
TEST(Builders, SingleTileGraphs) {
  for (const benchmark_id bm :
       {benchmark_id::ge, benchmark_id::fw, benchmark_id::sw,
        benchmark_id::lcs, benchmark_id::paren}) {
    EXPECT_EQ(dataflow(bm, 1, 8).node_count(), 1u) << dp::to_string(bm);
    EXPECT_EQ(forkjoin(bm, 1, 8).node_count(), 1u) << dp::to_string(bm);
  }
}

// ---------------- golden: the retired hand-written builders ----------------

// Node count, edge count, T1 and T∞ (base 8) of the hand-written GE/FW/SW
// DAG builders that these derivations replaced, captured from them before
// they were deleted. The derived graphs must match every value.
struct golden_row {
  const char* graph;  // benchmark + model
  std::size_t tiles, r;
  std::size_t nodes, edges;
  double work, span;
};

const golden_row k_golden[] = {
    {"GE_fj", 1, 0, 1, 0, 140, 140},
    {"GE_df", 1, 0, 1, 0, 140, 140},
    {"FW_fj", 1, 0, 1, 0, 512, 512},
    {"FW_df", 1, 0, 1, 0, 512, 512},
    {"SW_fj", 1, 0, 1, 0, 64, 64},
    {"SW_df", 1, 0, 1, 0, 64, 64},
    {"GE_fj", 2, 0, 7, 7, 1240, 1016},
    {"GE_df", 2, 0, 5, 6, 1240, 1016},
    {"FW_fj", 2, 0, 12, 13, 4096, 3072},
    {"FW_df", 2, 0, 8, 12, 4096, 3072},
    {"SW_fj", 2, 0, 6, 6, 256, 192},
    {"SW_df", 2, 0, 4, 5, 256, 192},
    {"GE_fj", 4, 0, 52, 66, 10416, 4016},
    {"GE_df", 4, 0, 30, 68, 10416, 2768},
    {"FW_fj", 4, 0, 116, 149, 32768, 12288},
    {"FW_df", 4, 0, 64, 144, 32768, 6144},
    {"SW_fj", 4, 0, 26, 30, 1024, 576},
    {"SW_df", 4, 0, 16, 33, 1024, 448},
    {"GE_fj", 8, 0, 362, 500, 85344, 13024},
    {"GE_df", 8, 0, 204, 616, 85344, 6272},
    {"FW_fj", 8, 0, 916, 1269, 262144, 40960},
    {"FW_df", 8, 0, 512, 1344, 262144, 12288},
    {"SW_fj", 8, 0, 106, 126, 4096, 1728},
    {"SW_df", 8, 0, 64, 161, 4096, 960},
    {"GE_fj", 16, 0, 2566, 3720, 690880, 38080},
    {"GE_df", 16, 0, 1496, 5200, 690880, 13280},
    {"FW_fj", 16, 0, 6996, 10165, 2097152, 122880},
    {"FW_df", 16, 0, 4096, 11520, 2097152, 24576},
    {"SW_fj", 16, 0, 426, 510, 16384, 5184},
    {"SW_df", 16, 0, 256, 705, 16384, 1984},
    {"GE_fj", 32, 0, 18942, 28272, 5559680, 104320},
    {"GE_df", 32, 0, 11440, 42656, 5559680, 27296},
    {"FW_fj", 32, 0, 53972, 80693, 16777216, 344064},
    {"FW_df", 32, 0, 32768, 95232, 16777216, 49152},
    {"SW_fj", 32, 0, 1706, 2046, 65536, 15552},
    {"SW_df", 32, 0, 1024, 2945, 65536, 4032},
    {"GE_rway", 16, 2, 2566, 3720, 690880, 38080},
    {"GE_rway", 16, 4, 1826, 3161, 690880, 24512},
    {"GE_rway", 16, 16, 1554, 3003, 690880, 13280},
    {"GE_rway", 64, 4, 103210, 187185, 44608256, 170240},
    {"GE_rway", 64, 2, 144622, 219456, 44608256, 273152},
    {"GE_rway", 64, 8, 93594, 181079, 44608256, 116480},
    {"GE_rway", 64, 64, 89690, 178939, 44608256, 55328},
    {"GE_df", 3, 0, 14, 26, 4324, 1892},
    {"FW_df", 3, 0, 27, 54, 13824, 4608},
    {"SW_df", 3, 0, 9, 16, 576, 320},
    {"GE_df", 5, 0, 55, 140, 20540, 3644},
    {"FW_df", 5, 0, 125, 300, 64000, 7680},
    {"SW_df", 5, 0, 25, 56, 1600, 576},
    {"GE_df", 7, 0, 140, 406, 56980, 5396},
    {"FW_df", 7, 0, 343, 882, 175616, 10752},
    {"SW_df", 7, 0, 49, 120, 3136, 832},
    {"GE_df", 9, 0, 285, 888, 121836, 7148},
    {"FW_df", 9, 0, 729, 1944, 373248, 13824},
    {"SW_df", 9, 0, 81, 208, 5184, 1088},
    {"GE_df", 11, 0, 506, 1650, 223300, 8900},
    {"FW_df", 11, 0, 1331, 3630, 681472, 16896},
    {"SW_df", 11, 0, 121, 320, 7744, 1344},
    {"GE_df", 13, 0, 819, 2756, 369564, 10652},
    {"FW_df", 13, 0, 2197, 6084, 1124864, 19968},
    {"SW_df", 13, 0, 169, 456, 10816, 1600},
    {"GE_df", 15, 0, 1240, 4270, 568820, 12404},
    {"FW_df", 15, 0, 3375, 9450, 1728000, 23040},
    {"SW_df", 15, 0, 225, 616, 14400, 1856},
    {"GE_df", 17, 0, 1785, 6256, 829260, 14156},
    {"FW_df", 17, 0, 4913, 13872, 2515456, 26112},
    {"SW_df", 17, 0, 289, 800, 18496, 2112},
    {"GE_df", 19, 0, 2470, 8778, 1159076, 15908},
    {"FW_df", 19, 0, 6859, 19494, 3511808, 29184},
    {"SW_df", 19, 0, 361, 1008, 23104, 2368},
    {"GE_df", 21, 0, 3311, 11900, 1566460, 17660},
    {"FW_df", 21, 0, 9261, 26460, 4741632, 32256},
    {"SW_df", 21, 0, 441, 1240, 28224, 2624},
    {"GE_df", 23, 0, 4324, 15686, 2059604, 19412},
    {"FW_df", 23, 0, 12167, 34914, 6229504, 35328},
    {"SW_df", 23, 0, 529, 1496, 33856, 2880},
    {"GE_df", 25, 0, 5525, 20200, 2646700, 21164},
    {"FW_df", 25, 0, 15625, 45000, 8000000, 38400},
    {"SW_df", 25, 0, 625, 1776, 40000, 3136},
    {"GE_df", 27, 0, 6930, 25506, 3335940, 22916},
    {"FW_df", 27, 0, 19683, 56862, 10077696, 41472},
    {"SW_df", 27, 0, 729, 2080, 46656, 3392},
    {"GE_df", 29, 0, 8555, 31668, 4135516, 24668},
    {"FW_df", 29, 0, 24389, 70644, 12487168, 44544},
    {"SW_df", 29, 0, 841, 2408, 53824, 3648},
    {"GE_df", 31, 0, 10416, 38750, 5053620, 26420},
    {"FW_df", 31, 0, 29791, 86490, 15252992, 47616},
    {"SW_df", 31, 0, 961, 2760, 61504, 3904},
    {"GE_df", 6, 0, 91, 250, 35720, 4520},
    {"FW_df", 6, 0, 216, 540, 110592, 9216},
    {"SW_df", 6, 0, 36, 85, 2304, 704},
    {"GE_df", 10, 0, 385, 1230, 167480, 8024},
    {"FW_df", 10, 0, 1000, 2700, 512000, 15360},
    {"SW_df", 10, 0, 100, 261, 6400, 1216},
    {"GE_df", 12, 0, 650, 2156, 290320, 9776},
    {"FW_df", 12, 0, 1728, 4752, 884736, 18432},
    {"SW_df", 12, 0, 144, 385, 9216, 1472},
    {"GE_df", 14, 0, 1015, 3458, 462056, 11528},
    {"FW_df", 14, 0, 2744, 7644, 1404928, 21504},
    {"SW_df", 14, 0, 196, 533, 12544, 1728},
    {"GE_df", 18, 0, 2109, 7446, 984984, 15032},
    {"FW_df", 18, 0, 5832, 16524, 2985984, 27648},
    {"SW_df", 18, 0, 324, 901, 20736, 2240},
    {"GE_df", 20, 0, 2870, 10260, 1352560, 16784},
    {"FW_df", 20, 0, 8000, 22800, 4096000, 30720},
    {"SW_df", 20, 0, 400, 1121, 25600, 2496},
    {"GE_df", 22, 0, 3795, 13706, 1801800, 18536},
    {"FW_df", 22, 0, 10648, 30492, 5451776, 33792},
    {"SW_df", 22, 0, 484, 1365, 30976, 2752},
    {"GE_df", 24, 0, 4900, 17848, 2340896, 20288},
    {"FW_df", 24, 0, 13824, 39744, 7077888, 36864},
    {"SW_df", 24, 0, 576, 1633, 36864, 3008},
    {"GE_df", 26, 0, 6201, 22750, 2978040, 22040},
    {"FW_df", 26, 0, 17576, 50700, 8998912, 39936},
    {"SW_df", 26, 0, 676, 1925, 43264, 3264},
    {"GE_df", 28, 0, 7714, 28476, 3721424, 23792},
    {"FW_df", 28, 0, 21952, 63504, 11239424, 43008},
    {"SW_df", 28, 0, 784, 2241, 50176, 3520},
    {"GE_df", 30, 0, 9455, 35090, 4579240, 25544},
    {"FW_df", 30, 0, 27000, 78300, 13824000, 46080},
    {"SW_df", 30, 0, 900, 2581, 57600, 3776},
};

TEST(DerivedGraphs, MatchRetiredBuildersGolden) {
  for (const golden_row& row : k_golden) {
    const std::string name = row.graph;
    const benchmark_id bm = name.starts_with("GE")   ? benchmark_id::ge
                            : name.starts_with("FW") ? benchmark_id::fw
                                                     : benchmark_id::sw;
    const task_graph g = name.ends_with("rway") ? ge_rway(row.tiles, 8, row.r)
                         : name.ends_with("fj") ? forkjoin(bm, row.tiles, 8)
                                                : dataflow(bm, row.tiles, 8);
    g.validate();
    const auto ws = analyze_work_span(g);
    const std::string where = name + " T=" + std::to_string(row.tiles) +
                              " r=" + std::to_string(row.r);
    EXPECT_EQ(g.node_count(), row.nodes) << where;
    EXPECT_EQ(g.edge_count(), row.edges) << where;
    EXPECT_EQ(ws.total_work, row.work) << where;
    EXPECT_EQ(ws.span, row.span) << where;
  }
}

// A spec's tile DAG depends only on T = n/base: the figure sweeps derive
// at (T, 1) and price at the real base, so (n, base) and (n/base, 1) must
// give the same graph — node for node (type, kind, tile coordinates, work,
// successors), hence the same node count, edge set, T1 and T∞.
void expect_same_graph(const task_graph& a, const task_graph& b,
                       const std::string& where) {
  ASSERT_EQ(a.node_count(), b.node_count()) << where;
  for (node_id v = 0; v < a.node_count(); ++v) {
    const task_node &x = a.node(v), &y = b.node(v);
    EXPECT_TRUE(x.type == y.type && x.kind == y.kind && x.coord == y.coord &&
                x.work == y.work && x.successors == y.successors)
        << where << " node " << v;
  }
  EXPECT_EQ(analyze_work_span(a).span, analyze_work_span(b).span) << where;
}

TEST(DerivedGraphs, DependOnlyOnTileCount) {
  for (const benchmark_id bm :
       {benchmark_id::ge, benchmark_id::fw, benchmark_id::sw,
        benchmark_id::lcs, benchmark_id::paren}) {
    for (const auto& [n, base] : {std::pair<std::size_t, std::size_t>{64, 16},
                                 {128, 16}}) {
      const std::size_t t = n / base;
      // A real problem instance at (n, base), with its own data.
      matrix<double> table(n, n, 1.0);
      matrix<std::int32_t> cells(n + 1, n + 1, 0);
      const std::string seq(n, 'A');
      const std::vector<double> dims(n + 1, 1.0);
      const dp::sw_params params;
      std::unique_ptr<dp::recurrence> real;
      switch (bm) {
        case benchmark_id::ge: real = dp::make_ge_spec(table, base); break;
        case benchmark_id::fw: real = dp::make_fw_spec(table, base); break;
        case benchmark_id::sw:
          real = dp::make_sw_spec(cells, seq, seq, params, base);
          break;
        case benchmark_id::lcs:
          real = dp::make_lcs_spec(cells, seq, seq, dp::lcs_mode::lcs, base);
          break;
        case benchmark_id::paren:
          real = dp::make_paren_spec(table, dims, base);
          break;
      }
      const dp::tile_spec unit(bm, t);
      const std::string where =
          std::string(dp::to_string(bm)) + " n=" + std::to_string(n);
      expect_same_graph(exec::derive_dataflow(*real, base),
                        exec::derive_dataflow(*unit, base), where + " df");
      expect_same_graph(exec::derive_forkjoin(*real, base),
                        exec::derive_forkjoin(*unit, base), where + " fj");
    }
  }
}

/// Inside GE's 2×2 tile box (i, j, k ∈ {0, 1}), but no GE tile: round 1
/// updates only the block (1,1).
constexpr dp::tile3 k_unproduced{0, 0, 1};

/// A spec whose first base tile also reads an item no base task produces,
/// declaring itself value-passing (so the item is an environment seed) or
/// not (so the item could never arrive).
class unproduced_key_spec final : public dp::recurrence {
 public:
  unproduced_key_spec(const dp::recurrence& inner, bool value_passing)
      : inner_(inner), value_passing_(value_passing) {}

  const char* name() const override { return inner_.name(); }
  dp::structure_kind structure() const override { return inner_.structure(); }
  std::size_t size() const override { return inner_.size(); }
  std::size_t base() const override { return inner_.base(); }
  dp::split_plan split(const dp::tile4& t) const override {
    return inner_.split(t);
  }
  void depends(const dp::tile3& t, const dp::dep_sink& need) const override {
    inner_.depends(t, need);
    if (t == dp::tile3{0, 0, 0}) need(k_unproduced);
  }
  std::uint32_t consumer_count(const dp::tile3& t) const override {
    return inner_.consumer_count(t);
  }
  void enumerate_base(const dp::tag_sink& emit) const override {
    inner_.enumerate_base(emit);
  }
  void run_base(const dp::tile4&) override {}
  bool value_passing() const override { return value_passing_; }

 private:
  const dp::recurrence& inner_;
  bool value_passing_;
};

TEST(DerivedGraphs, UnproducedKeyIsASeedOnlyForValuePassingSpecs) {
  const dp::tile_spec ge(benchmark_id::ge, 2);
  bool produced = false;
  auto emit = [&](const dp::tile4& t) {
    produced |= dp::tile3{t.i, t.j, t.k} == k_unproduced;
  };
  ge->enumerate_base(dp::tag_sink(emit));
  ASSERT_FALSE(produced);

  // A token spec cannot be seeded, so the missing producer is a spec error
  // (prepared_graph::freeze rejects the same spec) ...
  const unproduced_key_spec token(*ge, /*value_passing=*/false);
  EXPECT_THROW(exec::derive_dataflow(token, 8), contract_error);
  // ... while a value-passing spec reads it from the environment: no edge.
  const unproduced_key_spec seeded(*ge, /*value_passing=*/true);
  const task_graph g = exec::derive_dataflow(seeded, 8);
  EXPECT_EQ(g.edge_count(), exec::derive_dataflow(*ge, 8).edge_count());
}

}  // namespace
