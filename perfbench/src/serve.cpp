// Serve phase: an open-loop request stream through the batch server.
#include <deque>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "phases.hpp"
#include "server/server.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace rdp;

namespace {

/// Distinct inputs per spec; consecutive requests bind different data.
constexpr std::uint64_t inputs_per_spec = 4;
/// Offered load: about half the closed-loop capacity of the 2-worker
/// prepared server on this mix. Fixed, not calibrated per run, so the load
/// itself does not vary between runs.
constexpr double serve_rate_rps = 1000;
/// Arrivals in the first part of the stream are checked but not measured.
constexpr double warmup_s = 0.3;
/// Measured arrivals are cut into windows of this many (half a second).
/// serve_p50_ms is the median over windows of each window's median, so
/// that a contention episode of a few windows moves it little.
constexpr std::size_t window_requests = 500;
/// Requests in flight during the closed-loop capacity probe.
constexpr std::size_t probe_window = 8;

/// What a set-up builds: the server, the instances and the five graphs.
/// The server is declared last, so it stops (and drops its requests, which
/// view the instances' inputs) before the instances go.
struct rig {
  std::vector<instance_set> inputs;  // inputs_per_spec suites
  std::array<server::graph_id, 5> graphs{};
  server::batch_server srv{config()};

  static server::server_config config() {
    server::server_config cfg;
    cfg.workers = pool_workers;
    cfg.mode = server::exec_mode::prepared;
    cfg.queue_capacity = 1u << 14;
    return cfg;
  }
};

std::unique_ptr<rig> build_rig(std::uint64_t seed) {
  auto r = std::make_unique<rig>();
  for (std::uint64_t k = 0; k < inputs_per_spec; ++k)
    r->inputs.push_back(
        make_suite(serve_shape.n, serve_shape.base, seed * 64 + k));
  for (std::size_t s = 0; s < all_specs.size(); ++s)
    r->graphs[s] = r->srv.prepare(r->inputs[0][s]->spec());
  return r;
}

/// One submitted request, kept until its response is checked.
struct pending {
  std::future<server::response> fut;
  std::shared_ptr<plane> p;
  const instance* inst = nullptr;
  double lead_ms = 0;  // scheduled send → submit
  bool measured = false;
};

class stream {
 public:
  stream(rig& r, std::uint64_t seed) : rig_(r), pick_(seed) {}

  /// Bind a fresh plane for a random (spec, input) and submit it.
  void submit(sclock::time_point scheduled, bool measured) {
    const std::size_t s = pick_.below(all_specs.size());
    const instance& inst = *rig_.inputs[pick_.below(inputs_per_spec)][s];
    pending q;
    q.p = inst.fresh_plane();
    q.inst = &inst;
    q.measured = measured;
    q.lead_ms = ms_since(scheduled);
    q.fut = rig_.srv.submit(
        rig_.graphs[s], std::shared_ptr<dp::recurrence>(q.p, q.p->spec.get()));
    ++ops.attempted;
    inflight_.push_back(std::move(q));
  }

  /// Check responses in submission order; `block` waits for all of them.
  void drain(bool block) {
    while (!inflight_.empty()) {
      pending& q = inflight_.front();
      if (!block && q.fut.wait_for(std::chrono::seconds(0)) !=
                        std::future_status::ready)
        return;
      finish(q);
      inflight_.pop_front();
    }
  }

  /// Wait for the oldest request (closed-loop window).
  void finish_oldest() {
    finish(inflight_.front());
    inflight_.pop_front();
  }
  std::size_t in_flight() const { return inflight_.size(); }

  op_counts ops;
  std::uint64_t completed = 0, shed = 0, failed = 0;
  std::vector<double> latency_ms, queue_ms, exec_ms, sojourn_ms;

 private:
  void finish(pending& q) {
    const server::response r = q.fut.get();
    if (r.status == server::request_status::ok &&
        q.inst->matches_reference(*q.p)) {
      ++completed;
      if (q.measured) {
        latency_ms.push_back(q.lead_ms + static_cast<double>(r.sojourn_ns) / 1e6);
        queue_ms.push_back(static_cast<double>(r.queue_ns) / 1e6);
        exec_ms.push_back(static_cast<double>(r.exec_ns) / 1e6);
        sojourn_ms.push_back(static_cast<double>(r.sojourn_ns) / 1e6);
      }
      return;
    }
    ++ops.failed;
    if (r.status == server::request_status::shed) ++shed;
    if (r.status == server::request_status::failed) ++failed;
    std::cerr << "request " << r.request_id << " (" << spec_name(q.inst->id())
              << "): " << to_string(r.status)
              << (r.status == server::request_status::ok
                      ? " but table differs from the serial engine's"
                      : r.error)
              << "\n";
  }

  rig& rig_;
  xoshiro256 pick_;
  std::deque<pending> inflight_;
};

std::uint64_t counter(const std::vector<obs::metric_sample>& snap,
                      const std::string& name) {
  for (const obs::metric_sample& m : snap)
    if (m.name == name) return m.value;
  return 0;
}

}  // namespace

phase_result run_serve(std::uint64_t seed, double budget_s, bool traced) {
  phase_result res;

  // Set-up: server (pool and dispatcher) construction, input generation
  // and the five prepares, repeated on fresh state; the last is measured.
  std::unique_ptr<rig> r;
  std::vector<double> setup_s;
  for (int k = 0; k < setups; ++k) {
    r.reset();
    const sclock::time_point t0 = sclock::now();
    r = build_rig(seed);
    setup_s.push_back(ms_since(t0) / 1e3);
  }
  res.setup_s = median(setup_s);
  for (auto& suite : r->inputs)
    for (auto& inst : suite) inst->record_reference();

  // The closed-loop probe takes a quarter of a traced run's phase.
  const double open_s = traced ? budget_s * 0.75 : budget_s;
  stream st(*r, seed);
  auto& reg = obs::metrics_registry::instance();
  const auto before = reg.snapshot();

  const auto interval = std::chrono::nanoseconds(
      static_cast<std::int64_t>(1e9 / serve_rate_rps));
  const sclock::time_point start = sclock::now();
  const sclock::time_point measure_from =
      start + std::chrono::duration_cast<sclock::duration>(
                  std::chrono::duration<double>(warmup_s));
  const sclock::time_point stop =
      start + std::chrono::duration_cast<sclock::duration>(
                  std::chrono::duration<double>(open_s));
  double lateness_max_ms = 0;
  std::uint64_t sent = 0;
  for (sclock::time_point at = start; at < stop; at += interval, ++sent) {
    st.drain(false);
    std::this_thread::sleep_until(at);
    const bool measured = at >= measure_from;
    if (measured) lateness_max_ms = std::max(lateness_max_ms, ms_since(at));
    st.submit(at, measured);
  }
  st.drain(true);
  // Responses are checked in submission order, so latency_ms is in
  // arrival order and consecutive runs of it are time windows.
  std::vector<double> p50s;
  for (std::size_t w = 0; (w + 1) * window_requests <= st.latency_ms.size();
       ++w) {
    const std::vector<double> win(
        st.latency_ms.begin() + static_cast<std::ptrdiff_t>(w * window_requests),
        st.latency_ms.begin() +
            static_cast<std::ptrdiff_t>((w + 1) * window_requests));
    p50s.push_back(quantile(win, 0.50));
  }
  res.end_to_end["serve_p50_ms"] =
      p50s.empty() ? quantile(st.latency_ms, 0.50) : median(p50s);
  if (!traced) {
    res.ops = st.ops;
    return res;
  }

  // Idle workers publish their pool counters to the metrics registry after
  // a millisecond parked; wait for that before reading the stream's delta.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto after = reg.snapshot();

  // Closed loop: keep probe_window requests in flight, count completions.
  const std::uint64_t done_before = st.completed;
  const sclock::time_point p0 = sclock::now();
  while (ms_since(p0) < (budget_s - open_s) * 1e3) {
    if (st.in_flight() >= probe_window) st.finish_oldest();
    st.submit(sclock::now(), false);
  }
  st.drain(true);
  const double probe_s = ms_since(p0) / 1e3;
  res.ops = st.ops;

  metric_map& m = res.per_layer;
  m["server.queue_ms_p50"] = quantile(st.queue_ms, 0.50);
  m["server.exec_ms_p50"] = quantile(st.exec_ms, 0.50);
  m["server.sojourn_ms_p99"] = quantile(st.sojourn_ms, 0.99);
  m["server.sojourn_samples"] = static_cast<double>(st.sojourn_ms.size());
  m["server.max_rps"] =
      static_cast<double>(st.completed - done_before) / probe_s;
  m["server.shed"] = static_cast<double>(st.shed);
  m["server.failed"] = static_cast<double>(st.failed);
  m["gen.lateness_ms_max"] = lateness_max_ms;
  m["gen.latency_ms_p90"] = quantile(st.latency_ms, 0.90);
  // Per request of the open-loop stream: the server's pool is internal, so
  // its counters are read from the metrics registry it publishes to.
  const double per = 1.0 / static_cast<double>(sent);
  const std::pair<const char*, const char*> pool_counters[] = {
      {"forkjoin.tasks.serve", "forkjoin.tasks_executed"},
      {"forkjoin.steals.serve", "forkjoin.steals"},
      {"forkjoin.parks.serve", "forkjoin.parks"},
      {"forkjoin.injections.serve", "forkjoin.injections"}};
  for (const auto& [metric, reg_name] : pool_counters)
    m[metric] = per * static_cast<double>(counter(after, reg_name) -
                                          counter(before, reg_name));
  return res;
}

}  // namespace perfbench
