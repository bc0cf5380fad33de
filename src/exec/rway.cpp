// Parametric r-way lowering (§I-A): a shallower recursion with wider
// parallel stages and fewer joins per level. r = 2 recovers the 2-way
// schedule; r = n/base is the blocked-loop (tiled) schedule of the pre-R-DP
// state of the art, refs [7-10]. abcd structures
// use the generic A/B/C/D stage recursion; wavefront structures execute
// their r×r quadrants along 2r-1 anti-diagonals per level. Every stage runs
// through the shared stage hook (exec/stage.hpp).
#include "exec/backend.hpp"
#include "exec/stage.hpp"

#include <algorithm>

#include "support/assertions.hpp"

namespace rdp::exec {

namespace {

/// The r-way recursions over (row origin, col origin, pivot origin, size)
/// in element coordinates. Base regions hand off to run_base in tile
/// coordinates: every origin is a multiple of the current size, so the
/// division is exact.
struct rway_recursion {
  dp::recurrence& rec;
  std::size_t base;
  std::size_t r;
  bool triangular;
  stage_runner run;

  void run_base(std::size_t xi, std::size_t xj, std::size_t xk,
                std::size_t s) {
    rec.run_base({static_cast<std::int32_t>(xi / s),
                  static_cast<std::int32_t>(xj / s),
                  static_cast<std::int32_t>(xk / s),
                  static_cast<std::int32_t>(s)});
  }

  /// The sub-blocks of pivot round kk that a band or remainder stage
  /// updates: every index but kk, or only those past kk when the update
  /// guards prune the rest (triangular).
  std::size_t others(std::size_t kk) const {
    return triangular ? r - 1 - kk : r - 1;
  }
  std::size_t other(std::size_t kk, std::size_t m) const {
    return triangular ? kk + 1 + m : (m < kk ? m : m + 1);
  }

  void funcA(std::size_t d, std::size_t s) {
    if (s <= base) {
      run_base(d, d, d, s);
      return;
    }
    RDP_REQUIRE_MSG(s % r == 0, "size must be base * r^L");
    const std::size_t h = s / r;
    for (std::size_t kk = 0; kk < r; ++kk) {
      const std::size_t dk = d + kk * h;
      const std::size_t q = others(kk);
      funcA(dk, h);
      // Row band (B) and column band (C) of this pivot round in parallel.
      run(2 * q, [&](std::size_t c) {
        if (c < q)
          funcB(dk, d + other(kk, c) * h, dk, h);
        else
          funcC(d + other(kk, c - q) * h, dk, dk, h);
      });
      // Remainder (D) blocks, all independent.
      run(q * q, [&](std::size_t c) {
        funcD(d + other(kk, c / q) * h, d + other(kk, c % q) * h, dk, h);
      });
    }
  }

  void funcB(std::size_t xi, std::size_t xj, std::size_t xk, std::size_t s) {
    RDP_ASSERT(xi == xk);
    if (s <= base) {
      run_base(xi, xj, xk, s);
      return;
    }
    const std::size_t h = s / r;
    for (std::size_t kk = 0; kk < r; ++kk) {
      const std::size_t k0 = xk + kk * h;
      run(r, [&](std::size_t c) { funcB(k0, xj + c * h, k0, h); });
      run(others(kk) * r, [&](std::size_t c) {
        funcD(xi + other(kk, c / r) * h, xj + (c % r) * h, k0, h);
      });
    }
  }

  void funcC(std::size_t xi, std::size_t xj, std::size_t xk, std::size_t s) {
    RDP_ASSERT(xj == xk);
    if (s <= base) {
      run_base(xi, xj, xk, s);
      return;
    }
    const std::size_t h = s / r;
    for (std::size_t kk = 0; kk < r; ++kk) {
      const std::size_t k0 = xk + kk * h;
      run(r, [&](std::size_t c) { funcC(xi + c * h, k0, k0, h); });
      run(others(kk) * r, [&](std::size_t c) {
        funcD(xi + (c % r) * h, xj + other(kk, c / r) * h, k0, h);
      });
    }
  }

  void funcD(std::size_t xi, std::size_t xj, std::size_t xk, std::size_t s) {
    if (s <= base) {
      run_base(xi, xj, xk, s);
      return;
    }
    const std::size_t h = s / r;
    for (std::size_t kk = 0; kk < r; ++kk)
      run(r * r, [&](std::size_t c) {
        funcD(xi + (c / r) * h, xj + (c % r) * h, xk + kk * h, h);
      });
  }

  /// Wavefront: quadrants (ii, jj) with ii + jj == d are mutually
  /// independent, so each anti-diagonal d is one stage.
  void fill(std::size_t i0, std::size_t j0, std::size_t s) {
    if (s <= base) {
      run_base(i0, j0, 0, s);
      return;
    }
    RDP_REQUIRE_MSG(s % r == 0, "size must be base * r^L");
    const std::size_t h = s / r;
    for (std::size_t d = 0; d <= 2 * (r - 1); ++d) {
      const std::size_t lo = d < r ? 0 : d - r + 1;
      run(std::min(d, r - 1) - lo + 1, [&](std::size_t c) {
        fill(i0 + (lo + c) * h, j0 + (d - lo - c) * h, h);
      });
    }
  }

  /// Parenthesization over the upper-triangular region. A diagonal region
  /// splits into its r sub-diagonals (one parallel stage) followed by the
  /// off-diagonal regions between them, shortest diagonal offset first
  /// (regions with the same offset have disjoint row and column bands,
  /// hence are independent).
  void diag(std::size_t d, std::size_t s) {
    if (s <= base) {
      run_base(d, d, 0, s);
      return;
    }
    RDP_REQUIRE_MSG(s % r == 0, "size must be base * r^L");
    const std::size_t h = s / r;
    run(r, [&](std::size_t a) { diag(d + a * h, h); });
    for (std::size_t o = 1; o < r; ++o)
      run(r - o, [&](std::size_t a) { off(d + a * h, d + (a + o) * h, h); });
  }

  /// An off-diagonal region splits into its r×r sub-regions along 2r-1
  /// anti-diagonal phases with rows reversed — bottom-left first — since
  /// (a,b) reads row a to its left and column b below it: sub-regions with
  /// (r-1-a) + b == p are mutually independent.
  void off(std::size_t xi, std::size_t xj, std::size_t s) {
    if (s <= base) {
      run_base(xi, xj, 0, s);
      return;
    }
    RDP_REQUIRE_MSG(s % r == 0, "size must be base * r^L");
    const std::size_t h = s / r;
    for (std::size_t p = 0; p <= 2 * (r - 1); ++p) {
      const std::size_t lo = p < r ? r - 1 - p : 0;
      run(std::min(r - 1, 2 * r - 2 - p) - lo + 1, [&](std::size_t c) {
        const std::size_t a = lo + c;
        off(xi + a * h, xj + (p + a + 1 - r) * h, h);
      });
    }
  }
};

}  // namespace

void walk_rway(dp::recurrence& rec, std::size_t r, stage_runner run) {
  RDP_REQUIRE_MSG(r >= 2, "r-way recursion needs r >= 2");
  rway_recursion rw{rec, rec.base(), r,
                    rec.structure() == dp::structure_kind::abcd_triangular,
                    run};
  const std::size_t n = rec.size();
  switch (rec.structure()) {
    case dp::structure_kind::wavefront: rw.fill(0, 0, n); break;
    case dp::structure_kind::diagonal_3way: rw.diag(0, n); break;
    case dp::structure_kind::abcd_triangular:
    case dp::structure_kind::abcd_full: rw.funcA(0, n); break;
  }
}

void run_rway(dp::recurrence& rec, std::size_t r,
              forkjoin::worker_pool* pool) {
  if (pool == nullptr) {
    walk_rway(rec, r, stage_runner(nullptr));
  } else {
    pool->run([&] { walk_rway(rec, r, stage_runner(pool)); });
  }
}

void run_tiled(dp::recurrence& rec, forkjoin::worker_pool& pool) {
  RDP_REQUIRE_MSG(rec.base() > 0 && rec.size() % rec.base() == 0,
                  "base must divide n");
  // One tile is a single base case at any r >= 2.
  run_rway(rec, std::max<std::size_t>(rec.size() / rec.base(), 2), &pool);
}

}  // namespace rdp::exec
