// Tests for the generic wavefront-DP framework: LCS, edit distance and
// Needleman-Wunsch against independent references, across every execution
// model, plus boundary handling and re-use.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "dp/sw.hpp"
#include "dp/wavefront.hpp"
#include "support/rng.hpp"

namespace {

using namespace rdp;
using namespace rdp::dp;

// ------------------------------ references --------------------------------

std::int32_t lcs_reference(std::string_view a, std::string_view b) {
  std::vector<std::int32_t> prev(b.size() + 1, 0), cur(b.size() + 1, 0);
  for (std::size_t i = 1; i <= a.size(); ++i) {
    for (std::size_t j = 1; j <= b.size(); ++j)
      cur[j] = a[i - 1] == b[j - 1] ? prev[j - 1] + 1
                                    : std::max(prev[j], cur[j - 1]);
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

std::int32_t edit_reference(std::string_view a, std::string_view b) {
  std::vector<std::int32_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j)
    prev[j] = static_cast<std::int32_t>(j);
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = static_cast<std::int32_t>(i);
    for (std::size_t j = 1; j <= b.size(); ++j)
      cur[j] = std::min({prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1),
                         prev[j] + 1, cur[j - 1] + 1});
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

// ------------------------------- LCS ---------------------------------------

TEST(Wavefront, LcsHandExample) {
  const std::string a = "ABCBDAB", b = "BDCABA";  // classic CLRS example
  wavefront_problem<std::int32_t, lcs_cell> p(a.size(), b.size(),
                                              lcs_cell{a, b});
  p.run_loop();
  EXPECT_EQ(p.table()(a.size(), b.size()), 4);  // "BCBA"
}

class WavefrontModels
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(WavefrontModels, LcsAgreesAcrossAllModels) {
  const auto [n, base] = GetParam();
  const auto a = make_dna(n, 81);
  const auto b = make_dna(n, 82);
  const auto expected = lcs_reference(a, b);

  wavefront_problem<std::int32_t, lcs_cell> p(n, n, lcs_cell{a, b});
  p.run_loop();
  const auto loop_table = p.table();
  EXPECT_EQ(loop_table(n, n), expected);

  p.reset();
  p.run_rdp_serial(base);
  EXPECT_TRUE(p.table() == loop_table);

  p.reset();
  forkjoin::worker_pool pool(4);
  p.run_rdp_forkjoin(base, pool);
  EXPECT_TRUE(p.table() == loop_table);

  for (cnc_variant v : {cnc_variant::native, cnc_variant::tuner,
                        cnc_variant::manual, cnc_variant::nonblocking}) {
    p.reset();
    const auto info = p.run_cnc(base, v, 4);
    EXPECT_TRUE(p.table() == loop_table) << to_string(v);
    const std::uint64_t t = n / base;
    EXPECT_EQ(info.stats.items_put, t * t);
    if (v == cnc_variant::tuner || v == cnc_variant::manual)
      EXPECT_EQ(info.items_live_at_end, 1u);  // get-count GC
  }
}

INSTANTIATE_TEST_SUITE_P(SizesAndBases, WavefrontModels,
                         ::testing::Values(std::tuple{32, 8},
                                           std::tuple{64, 8},
                                           std::tuple{64, 16},
                                           std::tuple{128, 32},
                                           std::tuple{128, 128}));

// --------------------------- edit distance ---------------------------------

TEST(Wavefront, EditDistanceHandExamples) {
  auto dist = [](std::string_view a, std::string_view b) {
    wavefront_problem<std::int32_t, edit_distance_cell> p(
        a.size(), b.size(), edit_distance_cell{a, b},
        [](std::size_t j) { return static_cast<std::int32_t>(j); },
        [](std::size_t i) { return static_cast<std::int32_t>(i); });
    p.run_loop();
    return p.table()(a.size(), b.size());
  };
  EXPECT_EQ(dist("kitten", "sitting"), 3);
  EXPECT_EQ(dist("", "abc"), 3);
  EXPECT_EQ(dist("abc", ""), 3);
  EXPECT_EQ(dist("same", "same"), 0);
}

TEST(Wavefront, EditDistanceAllModelsMatchReference) {
  const std::size_t n = 64;
  const auto a = make_dna(n, 91), b = make_dna(n, 92);
  const auto expected = edit_reference(a, b);

  auto top = [](std::size_t j) { return static_cast<std::int32_t>(j); };
  auto left = [](std::size_t i) { return static_cast<std::int32_t>(i); };
  wavefront_problem<std::int32_t, edit_distance_cell> p(
      n, n, edit_distance_cell{a, b}, top, left);

  p.run_rdp_serial(8);
  EXPECT_EQ(p.table()(n, n), expected);

  p.reset();
  const auto info = p.run_cnc(8, cnc_variant::tuner, 4);
  EXPECT_EQ(p.table()(n, n), expected);
  EXPECT_EQ(info.stats.gets_failed, 0u);
}

// ------------------------ Needleman-Wunsch ---------------------------------

TEST(Wavefront, GlobalAlignmentOfIdenticalSequencesIsPerfect) {
  const auto a = make_dna(64, 7);
  const nw_cell cell{a, a};
  wavefront_problem<std::int32_t, nw_cell> p(
      64, 64, cell,
      [&](std::size_t j) { return -static_cast<std::int32_t>(j); },
      [&](std::size_t i) { return -static_cast<std::int32_t>(i); });
  p.run_cnc(16, cnc_variant::manual, 2);
  EXPECT_EQ(p.table()(64, 64), 2 * 64);  // all matches, no gaps
}

TEST(Wavefront, GlobalVsLocalAlignmentRelationship) {
  // SW (local) score is always >= NW (global) score for the same scheme.
  const auto a = make_dna(128, 15), b = make_dna(128, 16);
  const nw_cell cell{a, b};
  wavefront_problem<std::int32_t, nw_cell> global(
      128, 128, cell,
      [&](std::size_t j) { return -static_cast<std::int32_t>(j); },
      [&](std::size_t i) { return -static_cast<std::int32_t>(i); });
  global.run_loop();
  const auto local = sw_linear_space_score(a, b, sw_params{});
  EXPECT_GE(local, global.table()(128, 128));
}

// --------------------------- framework API ---------------------------------

TEST(Wavefront, SmithWatermanExpressedInTheFramework) {
  // The dedicated SW implementation and a framework instance must agree.
  const auto a = make_dna(64, 3), b = make_dna(64, 4);
  const sw_params params;
  struct sw_cell_fn {
    std::string_view a, b;
    sw_params p;
    std::int32_t operator()(std::int32_t nw, std::int32_t north,
                            std::int32_t west, std::size_t i,
                            std::size_t j) const {
      return std::max({0, nw + p.sigma(a[i - 1], b[j - 1]), north - p.gap,
                       west - p.gap});
    }
  };
  wavefront_problem<std::int32_t, sw_cell_fn> p(64, 64,
                                                sw_cell_fn{a, b, params});
  p.run_cnc(8, cnc_variant::native, 4);

  matrix<std::int32_t> dedicated(65, 65, 0);
  sw_loop_serial(dedicated, a, b, params);
  EXPECT_TRUE(p.table() == dedicated);
}

TEST(Wavefront, RectangularLoopFill) {
  const std::string a = "ACGT", b = "ACGTACGT";
  wavefront_problem<std::int32_t, lcs_cell> p(a.size(), b.size(),
                                              lcs_cell{a, b});
  p.run_loop();
  EXPECT_EQ(p.table()(a.size(), b.size()), 4);
  // Tiled execution refuses rectangles.
  EXPECT_THROW(p.run_rdp_serial(2), contract_error);
}

TEST(Wavefront, ResetKeepsBoundary) {
  const std::string a = "AAAA", b = "AAAA";
  wavefront_problem<std::int32_t, edit_distance_cell> p(
      4, 4, edit_distance_cell{a, b},
      [](std::size_t j) { return static_cast<std::int32_t>(j); },
      [](std::size_t i) { return static_cast<std::int32_t>(i); });
  p.run_loop();
  p.reset();
  EXPECT_EQ(p.table()(0, 3), 3);  // boundary intact
  EXPECT_EQ(p.table()(2, 2), 0);  // interior cleared
  p.run_loop();
  EXPECT_EQ(p.table()(4, 4), 0);
}

}  // namespace
