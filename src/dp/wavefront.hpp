// Generic wavefront dynamic programming over all execution models.
//
// Many classic DPs (Smith-Waterman, LCS, edit distance, Needleman-Wunsch)
// share one dependency structure: cell (i,j) needs its north-west, north
// and west neighbours. This header turns that family into a reusable
// *ad-hoc* component: supply a *cell functor*
//
//     T operator()(T nw, T north, T west, std::size_t i, std::size_t j);
//
// (i, j are 1-based table coordinates) and get every execution model the
// paper studies for free:
//
//     wavefront_problem<std::int32_t, my_cell> p(n, m, cell);
//     p.run_loop();                        // serial oracle
//     p.run_rdp_serial(base);              // 2-way R-DP
//     p.run_rdp_forkjoin(base, pool);      // fork-join (joins and all)
//     p.run_cnc(base, variant, workers);   // data-flow tile wavefront
//
// Every model is a src/exec backend over one recurrence spec: the adapter
// below describes the tile wavefront (split rule, neighbour dependencies,
// consumer counts) and the backends do the scheduling.
//
// Boundary row/column values are configurable (zero for local alignment,
// i / j for edit distance, gap·i for global alignment).
//
// For the repo's concrete benchmarks prefer the first-class specs in
// dp/spec/specs.hpp (make_sw_spec, make_lcs_spec): they run on *every*
// backend through the registry — tiled, r-way, every CnC data-flow mode,
// prepared graphs, the batch server — while this adapter only wires the
// serial/fork-join/native-data-flow trio. It remains the extension point
// for one-off wavefront DPs (and the generator-based property tests).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>

#include "dp/common.hpp"
#include "dp/spec/spec.hpp"
#include "dp/spec/wavefront_base.hpp"
#include "dp/verify/verify.hpp"
#include "exec/backend.hpp"
#include "support/assertions.hpp"
#include "support/math_utils.hpp"
#include "support/matrix.hpp"

namespace rdp::dp {

template <class T, class Cell>
class wavefront_problem {
public:
  using boundary_fn = std::function<T(std::size_t)>;

  /// rows×cols interior cells; table is (rows+1)×(cols+1). The boundary
  /// functions give row 0 / column 0 values (default: T{} everywhere).
  wavefront_problem(std::size_t rows, std::size_t cols, Cell cell,
                    boundary_fn top = nullptr, boundary_fn left = nullptr)
      : rows_(rows), cols_(cols), cell_(std::move(cell)),
        table_(rows + 1, cols + 1, T{}) {
    for (std::size_t j = 0; j <= cols_; ++j)
      table_(0, j) = top ? top(j) : T{};
    for (std::size_t i = 0; i <= rows_; ++i)
      table_(i, 0) = left ? left(i) : T{};
  }

  const matrix<T>& table() const { return table_; }
  matrix<T>& table() { return table_; }

  /// Reset the interior (keeps the boundary) so the problem can be re-run.
  void reset() {
    for (std::size_t i = 1; i <= rows_; ++i)
      for (std::size_t j = 1; j <= cols_; ++j) table_(i, j) = T{};
  }

  /// Fill one tile: rows [i0+1, i0+1+bi), cols [j0+1, j0+1+bj).
  void fill_tile(std::size_t i0, std::size_t j0, std::size_t bi,
                 std::size_t bj) {
    // Spec-boundary input: tiles arrive from the adapter's split rule,
    // so the bounds check stays on in Release (see DESIGN.md §11).
    RDP_REQUIRE_MSG(i0 + bi <= rows_ && j0 + bj <= cols_,
                    "tile exceeds the table");
    for (std::size_t i = i0 + 1; i <= i0 + bi; ++i)
      for (std::size_t j = j0 + 1; j <= j0 + bj; ++j)
        table_(i, j) = cell_(table_(i - 1, j - 1), table_(i - 1, j),
                             table_(i, j - 1), i, j);
  }

  /// Row-by-row serial fill (the oracle). Works for rectangular problems.
  void run_loop() { fill_tile(0, 0, rows_, cols_); }

  /// 2-way R-DP: R(X00); {R(X01) ∥ R(X10)}; R(X11). Square power-of-two
  /// problems only (like the paper's benchmarks).
  void run_rdp_serial(std::size_t base) {
    check_square_pow2(base);
    spec_adapter spec(*this, base);
    exec::run_serial(spec);
  }
  void run_rdp_forkjoin(std::size_t base, forkjoin::worker_pool& pool) {
    check_square_pow2(base);
    spec_adapter spec(*this, base);
    exec::run_forkjoin(spec, pool);
  }

  /// Data-flow tile wavefront on the CnC runtime (all four variants).
  cnc_run_info run_cnc(std::size_t base, cnc_variant variant,
                       unsigned workers) {
    check_square_pow2(base);
    spec_adapter spec(*this, base);
    return exec::run_dataflow(spec, {variant, workers});
  }

  /// Consistency-check the tile-wavefront spec this problem lowers to
  /// (dp/verify): split/enumerate agreement, dependency edges, consumer
  /// counts. Runs no kernels — any cell functor works, which is what the
  /// generator-based property tests lean on.
  verify_report verify(std::size_t base, const verify_options& opts = {}) {
    check_square_pow2(base);
    spec_adapter spec(*this, base);
    return verify_spec(spec, opts);
  }

private:
  /// The tile-wavefront structure (split rule, neighbour dependencies,
  /// consumer counts, arity bounds) comes from wavefront_recurrence — the
  /// same base class behind the SW and LCS specs (dp/spec/). Only the
  /// base-case kernel is local: the cell functor behind fill_tile.
  struct spec_adapter final : wavefront_recurrence {
    wavefront_problem& p;

    spec_adapter(wavefront_problem& prob, std::size_t b)
        : wavefront_recurrence(prob.rows_, b), p(prob) {}

    const char* name() const override { return "wavefront"; }

    void run_base(const tile4& t) override {
      const auto b = static_cast<std::size_t>(t.b);
      p.fill_tile(t.i * b, t.j * b, b, b);
    }
  };

  void check_square_pow2(std::size_t base) const {
    RDP_REQUIRE_MSG(rows_ == cols_,
                    "tiled execution needs a square problem");
    RDP_REQUIRE_MSG(is_pow2(rows_) && is_pow2(base) && base <= rows_,
                    "2-way R-DP requires power-of-two sizes");
  }

  std::size_t rows_;
  std::size_t cols_;
  Cell cell_;
  matrix<T> table_;
};

// ---- ready-made cell functors ---------------------------------------------

/// Longest common subsequence length.
struct lcs_cell {
  std::string_view a, b;
  std::int32_t operator()(std::int32_t nw, std::int32_t north,
                          std::int32_t west, std::size_t i,
                          std::size_t j) const {
    return a[i - 1] == b[j - 1] ? nw + 1 : std::max(north, west);
  }
};

/// Levenshtein edit distance (boundary must be initialised to i and j).
struct edit_distance_cell {
  std::string_view a, b;
  std::int32_t operator()(std::int32_t nw, std::int32_t north,
                          std::int32_t west, std::size_t i,
                          std::size_t j) const {
    const std::int32_t subst = nw + (a[i - 1] == b[j - 1] ? 0 : 1);
    return std::min({subst, north + 1, west + 1});
  }
};

/// Needleman-Wunsch global alignment (linear gap; boundary -gap·i / -gap·j).
struct nw_cell {
  std::string_view a, b;
  std::int32_t match = 2, mismatch = -1, gap = 1;
  std::int32_t operator()(std::int32_t nw, std::int32_t north,
                          std::int32_t west, std::size_t i,
                          std::size_t j) const {
    const std::int32_t diag =
        nw + (a[i - 1] == b[j - 1] ? match : mismatch);
    return std::max({diag, north - gap, west - gap});
  }
};

}  // namespace rdp::dp
