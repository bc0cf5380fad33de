// Always-on metrics substrate: lock-free counters, gauges and log-linear
// histograms, cheap enough to leave enabled in Release builds.
//
// Design. Every metric is split over a fixed array of cache-line-padded
// atomic cells; each recording thread is assigned one shard round-robin on
// first use, so concurrent writers of one metric land on different cache
// lines and the hot path is exactly
//     relaxed load of the enabled flag   (one byte, almost always hot)
//     one relaxed fetch-add on the caller's shard
// with no locks, no allocation and no stores other threads must wait on.
// Reads (value(), snapshot()) sum the shards; like the tracer and the pool
// stats they are exact only when the writers are quiescent, which is when
// benches and reports read them.
//
// Histograms are HDR-style log-linear: 16 linear sub-buckets per power-of-
// two octave (relative bucket width <= 6.25%), an explicit overflow bucket
// past k_histogram_max, plus an exact observed maximum per shard. Because
// two histograms bucket every value identically, merging shards — or two
// snapshots, in any association order — is exact bucket-wise addition;
// p50/p90/p99 queries walk the merged counts.
//
// The whole layer compiles out under RDP_METRICS=OFF (-DRDP_METRICS_DISABLED):
// record sites become empty inline functions and the overhead gate in CI
// compares the two builds. At runtime, setting the environment variable
// RDP_METRICS=0 (or "off"/"false") clears the enabled flag instead.
//
// Layering: rdp::obs must not depend on the runtimes it observes, so the
// shard index is a per-thread token handed out here, not a worker index.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rdp::obs {

#ifdef RDP_METRICS_DISABLED
inline constexpr bool metrics_compiled_in = false;
#else
inline constexpr bool metrics_compiled_in = true;
#endif

/// Shard fan-out. Power of two; 16 cache lines per counter keeps writers of
/// one metric from sharing a line at every worker count the repo targets.
inline constexpr unsigned k_metric_shards = 16;

namespace metrics_detail {

/// Process-wide enabled flag. constinit so the hot-path read is one
/// TP-relative-free relaxed load with no function-local-static guard; the
/// RDP_METRICS environment override is applied by a static initialiser in
/// metrics.cpp (i.e. before main, and before any recording that matters).
inline constinit std::atomic<bool> g_enabled{true};

/// Slow path of local_shard(): round-robin token assignment (metrics.cpp).
unsigned assign_shard() noexcept;

/// Cached shard token of this thread. constinit keeps the access a plain
/// TLS load (no thread-local init guard); k_metric_shards is the
/// "unassigned" sentinel.
inline constinit thread_local unsigned tl_shard = k_metric_shards;

/// Round-robin shard token of the calling thread, in [0, k_metric_shards).
inline unsigned local_shard() noexcept {
  const unsigned s = tl_shard;
  if (s != k_metric_shards) [[likely]]
    return s;
  return assign_shard();
}

}  // namespace metrics_detail

/// The macro-level fast check: one relaxed atomic load (false when the
/// library was built with RDP_METRICS=OFF).
inline bool metrics_enabled() noexcept {
#ifdef RDP_METRICS_DISABLED
  return false;
#else
  return metrics_detail::g_enabled.load(std::memory_order_relaxed);
#endif
}

/// Runtime override (tests, benches measuring their own overhead). The
/// environment default is applied before the first metric is recorded.
void set_metrics_enabled(bool on) noexcept;

/// Nanosecond timestamp for duration metrics (steady clock).
inline std::uint64_t metrics_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct alignas(64) metric_cell {
  std::atomic<std::uint64_t> v{0};
};

/// Monotonic counter. add() is wait-free; value() sums the shards.
class counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
#ifndef RDP_METRICS_DISABLED
    if (metrics_enabled()) [[likely]]
      shards_[metrics_detail::local_shard()].v.fetch_add(
          n, std::memory_order_relaxed);
#else
    (void)n;
#endif
  }

  std::uint64_t value() const noexcept {
    std::uint64_t s = 0;
    for (const metric_cell& c : shards_) s += c.v.load(std::memory_order_relaxed);
    return s;
  }

  void reset() noexcept {
    for (metric_cell& c : shards_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<metric_cell, k_metric_shards> shards_{};
};

/// Signed level (queue depth, live items). Sharded like a counter — add and
/// sub may land on different shards, so only the summed value() is
/// meaningful, and it is exact when the writers are quiescent.
class gauge {
 public:
  void add(std::int64_t d = 1) noexcept {
#ifndef RDP_METRICS_DISABLED
    if (metrics_enabled()) [[likely]]
      shards_[metrics_detail::local_shard()].v.fetch_add(
          static_cast<std::uint64_t>(d), std::memory_order_relaxed);
#else
    (void)d;
#endif
  }
  void sub(std::int64_t d = 1) noexcept { add(-d); }

  std::int64_t value() const noexcept {
    std::uint64_t s = 0;
    for (const metric_cell& c : shards_) s += c.v.load(std::memory_order_relaxed);
    return static_cast<std::int64_t>(s);
  }

  void reset() noexcept {
    for (metric_cell& c : shards_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<metric_cell, k_metric_shards> shards_{};
};

// ---- histogram bucketing math ---------------------------------------------

/// Linear sub-buckets per octave: 2^4 = 16, relative width <= 1/16.
inline constexpr unsigned k_histogram_sub_bits = 4;

/// Largest exactly-tracked value (~18 minutes in nanoseconds). Anything
/// larger lands in the overflow bucket; the exact maximum is kept besides.
inline constexpr std::uint64_t k_histogram_max = (1ull << 40) - 1;

/// Bucket index of a value. Values below 2^sub_bits get one bucket each
/// (exact); larger values get (msb - sub_bits) linearised octaves.
constexpr std::size_t histogram_bucket_index(std::uint64_t v) noexcept {
  constexpr unsigned s = k_histogram_sub_bits;
  if (v < (1ull << s)) return static_cast<std::size_t>(v);
  if (v > k_histogram_max) v = k_histogram_max + 1;  // overflow bucket
  unsigned msb = 63;
  while (!(v >> msb)) --msb;  // position of highest set bit
  const unsigned shift = msb - s;
  return static_cast<std::size_t>((std::uint64_t(shift) << s) + (v >> shift));
}

/// One past the last in-range bucket == the overflow bucket's index.
inline constexpr std::size_t k_histogram_overflow_bucket =
    histogram_bucket_index(k_histogram_max) + 1;
inline constexpr std::size_t k_histogram_buckets =
    k_histogram_overflow_bucket + 1;

/// Inclusive lower bound of a bucket.
constexpr std::uint64_t histogram_bucket_lower(std::size_t idx) noexcept {
  constexpr unsigned s = k_histogram_sub_bits;
  if (idx < (1u << s)) return idx;
  const unsigned shift = static_cast<unsigned>((idx >> s) - 1);
  const std::uint64_t m = idx - (std::uint64_t(shift) << s);
  return m << shift;
}

/// Inclusive upper bound of a bucket.
constexpr std::uint64_t histogram_bucket_upper(std::size_t idx) noexcept {
  constexpr unsigned s = k_histogram_sub_bits;
  if (idx < (1u << s)) return idx;
  const unsigned shift = static_cast<unsigned>((idx >> s) - 1);
  return histogram_bucket_lower(idx) + (1ull << shift) - 1;
}

/// Representative (midpoint) value of a bucket, used by quantile and mean
/// queries. Exact for the sub-2^sub_bits buckets.
constexpr std::uint64_t histogram_bucket_mid(std::size_t idx) noexcept {
  return histogram_bucket_lower(idx) +
         (histogram_bucket_upper(idx) - histogram_bucket_lower(idx)) / 2;
}

/// Mergeable point-in-time view of a histogram. Bucket-wise addition is
/// exact and associative; quantiles are bucket midpoints (<= 3.2% off),
/// except q == 1 which returns the exact observed maximum.
struct histogram_snapshot {
  std::vector<std::uint64_t> buckets;  // size k_histogram_buckets (or empty)
  std::uint64_t max = 0;
  std::uint64_t total = 0;

  std::uint64_t count() const noexcept { return total; }
  bool empty() const noexcept { return total == 0; }

  double mean() const noexcept;
  /// Value at quantile q in [0, 1]: the midpoint of the bucket holding the
  /// ceil(q*count)-th observation. q >= 1 (and the overflow bucket) report
  /// the exact maximum.
  std::uint64_t quantile(double q) const noexcept;

  /// Exact merge (bucket-wise add, max of maxes). Associative and
  /// commutative.
  void merge(const histogram_snapshot& other);

  bool operator==(const histogram_snapshot&) const = default;
};

/// Log-linear concurrent histogram. record() is one relaxed fetch-add on
/// the caller's shard plus a (rare) relaxed CAS when a new maximum is seen.
class histogram {
 public:
  histogram();
  ~histogram();
  histogram(const histogram&) = delete;
  histogram& operator=(const histogram&) = delete;

  void record(std::uint64_t v) noexcept {
#ifndef RDP_METRICS_DISABLED
    if (!metrics_enabled()) [[unlikely]]
      return;
    shard& sh = shards_[metrics_detail::local_shard() & (k_hist_shards - 1)];
    sh.buckets[histogram_bucket_index(v)].fetch_add(1,
                                                    std::memory_order_relaxed);
    std::uint64_t seen = sh.max.load(std::memory_order_relaxed);
    while (v > seen &&
           !sh.max.compare_exchange_weak(seen, v, std::memory_order_relaxed))
      ;
#else
    (void)v;
#endif
  }

  histogram_snapshot snapshot() const;
  void reset() noexcept;

 private:
  struct alignas(64) shard {
    std::array<std::atomic<std::uint64_t>, k_histogram_buckets> buckets{};
    std::atomic<std::uint64_t> max{0};
  };
  /// Histograms are ~40 KiB each; fewer shards than counters keeps the
  /// footprint sane without measurable contention (record is one add).
  static constexpr unsigned k_hist_shards = 8;
  shard* shards_;  // heap-allocated: registry metrics live for the process
};

// ---- registry -------------------------------------------------------------

enum class metric_kind : std::uint8_t { counter, gauge, histogram };

/// One metric in a registry snapshot (also the unit report files store:
/// a sample parsed back from JSON carries the summary statistics in the
/// parsed_* fields instead of buckets).
struct metric_sample {
  std::string name;
  metric_kind kind = metric_kind::counter;
  std::uint64_t value = 0;       // counter
  std::int64_t gauge_value = 0;  // gauge
  histogram_snapshot hist;       // histogram
  double parsed_hist_mean = -1;  // set when read back from a report file
  double parsed_p99 = -1;
};

/// Process-wide named-metric registry. Registration is locked (call once
/// per site, keep the reference — typically a function-local static);
/// recording through the returned references is lock-free. Metrics are
/// never destroyed, so cached references stay valid for the process.
class metrics_registry {
 public:
  static metrics_registry& instance();

  counter& get_counter(std::string_view name);
  gauge& get_gauge(std::string_view name);
  histogram& get_histogram(std::string_view name);

  /// Point-in-time snapshot of every registered metric, sorted by name.
  /// Exact when recorders are quiescent.
  std::vector<metric_sample> snapshot() const;

  /// Zero every registered metric (session semantics, like tracer::start).
  /// Call while recorders are quiescent.
  void reset();

 private:
  metrics_registry() = default;
  struct impl;
  impl& state() const;
};

// ---- request-scoped deltas -------------------------------------------------

/// Bucket-wise difference `after - before` of two snapshots of the SAME
/// monotone histogram (each count clamps at 0). The result's total/mean/
/// quantiles describe exactly the recordings between the two snapshots;
/// `max` is inherited from `after`, i.e. an upper bound for the window
/// (exact when the window saw the process maximum).
histogram_snapshot histogram_delta(const histogram_snapshot& before,
                                   const histogram_snapshot& after);

/// What changed between two registry snapshots — the per-request metrics
/// scoping of the batch server: counters/gauges subtract, histograms
/// subtract bucket-wise, and metrics with a zero delta are dropped, so the
/// result reads as "what THIS request did" instead of a process-lifetime
/// aggregate. Both snapshots must come from metrics_registry::snapshot()
/// with `before` taken first; metrics registered between the two appear
/// with their full `after` value.
std::vector<metric_sample> snapshot_delta(
    const std::vector<metric_sample>& before,
    const std::vector<metric_sample>& after);

/// Per-site sampling helper for metrics whose recording needs a clock read:
/// true once every `mask`+1 calls on this thread. `mask` must be 2^k - 1.
/// Use one thread_local counter per call site:
///     static thread_local std::uint32_t tl_n = 0;
///     if (rdp::obs::metrics_sampled(tl_n, 63)) { ...timed record... }
inline bool metrics_sampled(std::uint32_t& site_counter,
                            std::uint32_t mask) noexcept {
  return (++site_counter & mask) == 0;
}

}  // namespace rdp::obs
