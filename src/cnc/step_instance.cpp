#include "cnc/step_instance.hpp"

#include "obs/tracer.hpp"

namespace rdp::cnc {

void step_instance_base::execute_wrapper() noexcept {
  // Capture the context up front: once an unmet get parks this instance on
  // a waiter list, ownership transfers there — a concurrent put may resume,
  // re-execute and even delete it before run_body() has returned here, so
  // `this` must not be dereferenced once the execution is flagged parked.
  context_base& ctx = ctx_;
  const detail::running_step previous = detail::tl_running_step;
  detail::tl_running_step = {this, false};
  std::exception_ptr error;
  // Step latency histogram, sampled 1-in-16 per thread (the clock pair
  // would otherwise tax fine-grained base steps). Timed attempts that
  // abort on an unmet get are not recorded — the histogram answers "how
  // long does a step's useful execution take".
  static thread_local std::uint32_t tl_step_sample = 0;
  const bool timed =
      obs::metrics_enabled() && obs::metrics_sampled(tl_step_sample, 15);
  const std::uint64_t t0 = timed ? obs::metrics_now_ns() : 0;
  try {
    run_body();
  } catch (...) {
    error = std::current_exception();
  }
  const bool parked = detail::tl_running_step.parked;
  detail::tl_running_step = previous;

  if (parked) {
    // An error raised after the park (a body that went on past a failed
    // get) is still reported; the instance stays with its waiter list.
    if (error) ctx.record_error(error);
    ctx.metrics().aborted.fetch_add(1, std::memory_order_relaxed);
    RDP_TRACE_EVENT(obs::event_kind::step_abort, 0,
                    reinterpret_cast<std::uintptr_t>(this), 0);
    ctx.on_complete();  // leaves "active"; on_suspend already counted it
    return;
  }
  if (error) {
    ctx.record_error(error);
  } else {
    ctx.metrics().executed.fetch_add(1, std::memory_order_relaxed);
    detail::cnc_metrics().steps_executed.add();
    if (timed) detail::cnc_metrics().step_ns.record(obs::metrics_now_ns() - t0);
  }
  delete this;
  ctx.on_complete();
}

}  // namespace rdp::cnc
