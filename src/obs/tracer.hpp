// Low-overhead event tracer: the recording half of rdp::obs.
//
// Design. Each emitting thread owns one append-only ring of `event` slots,
// allocated on the thread's first recorded event (labelling a thread does
// not allocate one), registered with the process-wide tracer and kept alive
// until process exit (so events from threads that have already terminated
// survive into the collected trace). Past a thread's first recorded event,
// which takes the registry lock once to allocate the ring, the hot path is
// wait-free and touches no lock:
//   relaxed load of the global enabled flag  (the only cost when off)
//   steady_clock read + two relaxed/release stores  (when on)
// A full buffer drops the event and counts the drop — recording never blocks
// the scheduler it is observing.
//
// Sessions. start() zeroes every registered buffer and the epoch, stop()
// clears the enabled flag. Both must be called while the traced runtimes
// are quiescent (no task executing); that is the natural structure of every
// bench: start, run, stop, collect, export.
//
// Emission sites use the RDP_TRACE_EVENT macro, which compiles to nothing
// when the library is configured with RDP_TRACE=OFF (-DRDP_TRACE_DISABLED).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace_event.hpp"

namespace rdp::obs {

namespace detail {
inline std::atomic<bool> g_tracing_enabled{false};
}  // namespace detail

/// The macro-level fast check: one relaxed atomic load.
inline bool tracing_enabled() noexcept {
  return detail::g_tracing_enabled.load(std::memory_order_relaxed);
}

class tracer {
public:
  static constexpr std::size_t k_default_capacity = 1u << 16;

  static tracer& instance();

  /// Begin a session: reset every per-thread buffer (resizing it to
  /// `per_thread_capacity` events) and the timestamp epoch, then enable
  /// emission. Precondition: traced runtimes quiescent.
  void start(std::size_t per_thread_capacity = k_default_capacity);

  /// End the session: disable emission. Buffers keep their events until the
  /// next start(); collect() may be called any number of times after stop().
  void stop();

  bool started() const noexcept { return tracing_enabled(); }

  /// Intern a name (collection, gauge, phase label) into a small id.
  /// Cheap-but-locked: call once per named entity, not per event.
  std::uint16_t intern(std::string_view name);

  /// Name for an interned id ("" for 0 / unknown).
  std::string name(std::uint16_t id) const;

  /// Record one event into the calling thread's buffer. No-op when
  /// tracing is disabled (callers normally guard with RDP_TRACE_EVENT).
  void emit(event_kind kind, std::uint16_t name = 0, std::uint64_t arg0 = 0,
            std::uint64_t arg1 = 0) noexcept;

  /// Mark the beginning of a logical phase (e.g. one benchmark variant).
  /// Later events belong to the phase until the next begin_phase.
  void begin_phase(std::string_view label);

  /// Human label for the calling thread in exported traces (e.g.
  /// "worker 3"). Safe to call whether or not a session is active.
  void set_thread_label(std::string label);

  /// Snapshot every buffer, stamp thread ids, and merge sorted by
  /// timestamp. Call after stop().
  std::vector<event> collect() const;

  /// Labels indexed by tid (empty string when a thread never set one).
  std::vector<std::string> thread_labels() const;

  /// Events lost to full buffers in the current session.
  std::uint64_t dropped() const;

  /// Nanoseconds since the session epoch.
  std::uint64_t now_ns() const noexcept {
    const auto d = std::chrono::steady_clock::now() - epoch_;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
  }

private:
  struct thread_buffer;

  tracer();
  ~tracer();
  tracer(const tracer&) = delete;
  tracer& operator=(const tracer&) = delete;

  thread_buffer* local_buffer();
  /// Slow path of a thread's first recorded event: give `b` its ring
  /// (left without one when the allocation fails).
  void allocate_ring(thread_buffer& b) noexcept;

  static thread_local thread_buffer* tl_buffer_;

  std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::size_t> capacity_{k_default_capacity};

  mutable std::mutex registry_mutex_;
  std::vector<std::unique_ptr<thread_buffer>> buffers_;
  std::vector<std::string> labels_;  // indexed like buffers_

  mutable std::mutex names_mutex_;
  std::vector<std::string> names_;  // index == interned id; [0] == ""
};

}  // namespace rdp::obs

// Emission macro used at every instrumentation site. Guarded by one relaxed
// atomic load so the traced hot paths stay unmeasurably close to their
// untraced speed; compiled out entirely under RDP_TRACE=OFF.
#ifdef RDP_TRACE_DISABLED
#define RDP_TRACE_EVENT(kind_, name_, arg0_, arg1_) ((void)0)
#else
#define RDP_TRACE_EVENT(kind_, name_, arg0_, arg1_)                       \
  do {                                                                    \
    if (::rdp::obs::tracing_enabled()) [[unlikely]] {                     \
      ::rdp::obs::tracer::instance().emit(                                \
          (kind_), static_cast<std::uint16_t>(name_),                     \
          static_cast<std::uint64_t>(arg0_),                              \
          static_cast<std::uint64_t>(arg1_));                             \
    }                                                                     \
  } while (0)
#endif
