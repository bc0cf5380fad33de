// Dynamic step instances: the unit of execution of the data-flow runtime.
//
// A step instance is created when a tag is put into a prescribed tag
// collection. Its lifecycle:
//
//   prescribed ──schedule──▶ active ──run──▶ done (deleted)
//                    ▲                 │ unmet get
//                    │                 ▼
//                 resumed ◀──put── suspended (owned by item waiter list)
//
// An abort is a return, not an exception: a blocking get that finds its
// item absent parks the instance on the item's waiter list, flags the
// running execution as parked (a thread-local, read back by the wrapper)
// and returns false; the step body returns at once. Re-execution restarts
// the body from the top (Intel CnC semantics); gets that previously
// succeeded simply succeed again from the hash map.
#pragma once

#include <exception>
#include <string>
#include <utility>

#include "cnc/context.hpp"
#include "cnc/errors.hpp"
#include "cnc/waiter.hpp"
#include "obs/tracer.hpp"

namespace rdp::cnc {

class step_instance_base;

namespace detail {

/// The step execution running on this thread (nullptr in the environment)
/// and whether a blocking get has parked it during this execution.
struct running_step {
  step_instance_base* instance = nullptr;
  bool parked = false;
};
inline thread_local running_step tl_running_step;

}  // namespace detail

class step_instance_base : public waiter {
public:
  explicit step_instance_base(context_base& ctx) : ctx_(ctx) {}

  /// The step instance currently executing on this thread (nullptr outside
  /// step bodies, e.g. in the environment). Blocking gets consult this to
  /// know which instance to park.
  static step_instance_base* current() noexcept {
    return detail::tl_running_step.instance;
  }

  /// True once a blocking get has parked the execution running on this
  /// thread: the body must return without another get.
  static bool parked() noexcept { return detail::tl_running_step.parked; }

  context_base& ctx() noexcept { return ctx_; }

  /// First dispatch of a freshly prescribed instance.
  void initial_dispatch() {
    ctx_.on_schedule();  // becomes "active"
    enqueue();
  }

  /// Dispatch through the pool's low-priority FIFO path (retry instances
  /// created by non-blocking-get requeues).
  void initial_dispatch_global() {
    ctx_.on_schedule();
    ctx_.schedule_global([this] { this->execute_wrapper(); });
  }

  /// Pin this instance to one worker (compute_on tuner). Applies to the
  /// initial dispatch AND every resume after a suspension.
  void set_affinity(int worker) noexcept { affinity_ = worker; }
  int affinity() const noexcept { return affinity_; }

  /// One-line identification for stall dumps ("<collection>(tag)"). Called
  /// by context_base::dump_state() under the parked instance's registry
  /// stripe lock, so it cannot be resumed-and-deleted mid-call.
  virtual std::string describe() const { return "<step instance>"; }

  /// Park the executing instance: called by a failed blocking get under the
  /// item's stripe lock, right before it pushes `this` on the item's waiter
  /// list. From here on the waiter list owns the instance.
  void suspend() noexcept {
    ctx_.on_suspend(this);
    detail::tl_running_step.parked = true;
  }

  /// waiter: an item this instance was parked on became available. The
  /// instance will re-run its body from the top (a re-execution).
  /// on_resume() already moves the instance from "suspended" to "active".
  void item_ready() final {
    ctx_.on_resume(this);
    RDP_TRACE_EVENT(obs::event_kind::step_resume, 0,
                    reinterpret_cast<std::uintptr_t>(this), 0);
    enqueue();
  }

  /// First dispatch of a prescheduled instance whose declared dependencies
  /// all became available. Same accounting as item_ready(), but NOT a
  /// re-execution — the body has never run — so no step_resume event.
  void dispatch_prescheduled() {
    ctx_.on_resume(this);
    enqueue();
  }

protected:
  /// Runs the user step body once. If a blocking get parked the instance
  /// the body returns early; neither it nor its caller may touch `this`
  /// (the tag included) afterwards.
  virtual void run_body() = 0;

private:
  void enqueue() {
    if (affinity_ >= 0) {
      ctx_.schedule_affine(static_cast<unsigned>(affinity_),
                           [this] { this->execute_wrapper(); });
    } else {
      ctx_.schedule([this] { this->execute_wrapper(); });
    }
  }
  void execute_wrapper() noexcept;

  // The suspended registry's links (context_base::parked_stripe), guarded
  // by the stripe lock and meaningful only while the instance is parked.
  friend class context_base;
  step_instance_base* parked_prev_ = nullptr;
  step_instance_base* parked_next_ = nullptr;

  context_base& ctx_;
  int affinity_ = -1;
};

}  // namespace rdp::cnc
