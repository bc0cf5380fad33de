// The two measurement phases every workload runs: direct suite solves on
// the four engines (batch), and an open-loop request stream through the
// batch server (serve).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "bench.hpp"

namespace perfbench {

/// What one phase measured: end-to-end metrics (untraced), per-layer
/// metrics (traced runs only), checked operations, and the median set-up.
struct phase_result {
  metric_map end_to_end;
  metric_map per_layer;
  op_counts ops;
  double setup_s = 0;
};

/// Problem sizes of a suite: one base for all five specs, n per spec
/// (indexed like all_specs).
struct suite_shape {
  std::size_t base;
  std::array<std::size_t, 5> n;
};

/// The request mix of the serve phase: every spec at a small shape, so a
/// request is a few hundred base tiles and per-request overhead matters.
inline constexpr suite_shape serve_shape{8, {128, 256, 64, 128, 256}};

/// Worker threads of the one pool a phase holds. Two leave cores free for
/// the calling thread (which helps while it waits) and the rest of the box.
inline constexpr unsigned pool_workers = 2;

/// Solves the suite on serial, fork-join, CnC native data-flow and the
/// prepared graph, interleaved round by round, for `budget_s` seconds.
/// Traced runs alternate every solve with a solve through timed_recurrence.
phase_result run_batch(const suite_shape& shape, std::uint64_t seed,
                       double budget_s, bool traced);

/// Streams requests for the serve mix through a prepared-mode batch_server
/// at a fixed open-loop rate for `budget_s` seconds. Traced runs add a
/// closed-loop capacity probe.
phase_result run_serve(std::uint64_t seed, double budget_s, bool traced);

/// Set-ups are repeated in one process and their median reported. The count
/// is fixed: every worker thread a set-up starts leaves its trace buffer
/// behind, so a varying count would move peak_rss_mb.
inline constexpr int setups = 11;

}  // namespace perfbench
