#include <algorithm>
#include <stdexcept>

#include "bench.hpp"
#include "dp/spec/specs.hpp"
#include "exec/backend.hpp"
#include "forkjoin/worker_pool.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace rdp;

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double idx = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

double ms_since(sclock::time_point t0) {
  return std::chrono::duration<double, std::milli>(sclock::now() - t0)
      .count();
}

const char* spec_name(spec_id id) {
  switch (id) {
    case spec_id::ge: return "GE";
    case spec_id::sw: return "SW";
    case spec_id::fw: return "FW";
    case spec_id::paren: return "Paren";
    case spec_id::lcs: return "LCS";
  }
  return "?";
}

instance::instance(spec_id id, std::size_t n, std::size_t base,
                   std::uint64_t seed)
    : id_(id), n_(n), base_(base) {
  switch (id) {
    case spec_id::ge:
      start_ = make_diag_dominant(n, seed);
      break;
    case spec_id::fw:
      // Integer weights, as the registry smoke check uses them.
      start_ = make_digraph(n, 0.3, seed, 1e9);
      for (std::size_t k = 0; k < start_.size(); ++k)
        start_.data()[k] = static_cast<double>(
            static_cast<long long>(start_.data()[k]));
      break;
    case spec_id::sw:
    case spec_id::lcs:
      a_ = make_dna(n, seed);
      b_ = make_dna(n, dp::mix64(seed));
      break;
    case spec_id::paren: {
      xoshiro256 gen(seed);
      dims_.resize(n + 1);
      for (double& d : dims_) d = static_cast<double>(1 + gen.next() % 100);
      break;
    }
  }
  bind(work_);
}

void instance::bind(plane& p) const {
  switch (id_) {
    case spec_id::ge:
      p.d = start_;
      p.spec = dp::make_ge_spec(p.d, base_);
      break;
    case spec_id::fw:
      p.d = start_;
      p.spec = dp::make_fw_spec(p.d, base_);
      break;
    case spec_id::paren:
      p.d = matrix<double>(n_, n_, 0.0);
      p.spec = dp::make_paren_spec(p.d, dims_, base_);
      break;
    case spec_id::sw:
      p.i = matrix<std::int32_t>(n_ + 1, n_ + 1, 0);
      p.spec = dp::make_sw_spec(p.i, a_, b_, params_, base_);
      break;
    case spec_id::lcs:
      p.i = matrix<std::int32_t>(n_ + 1, n_ + 1, 0);
      p.spec = dp::make_lcs_spec(p.i, a_, b_, dp::lcs_mode::lcs, base_);
      break;
  }
}

void instance::reset(plane& p) const {
  // In place, never `p.d = start_`: matrix copy-assignment reallocates, so
  // every solve would run on fresh pages. Over five interleaved 10 s coarse
  // runs each, reallocating resets spread the serial suite time 17.6%
  // (IQR / median) and in-place resets 3.1%. SW, LCS (lcs mode has a zero
  // boundary) and Paren start from an all-zero table.
  if (id_ == spec_id::ge || id_ == spec_id::fw)
    std::copy(start_.data(), start_.data() + start_.size(), p.d.data());
  else if (id_ == spec_id::paren)
    std::fill(p.d.data(), p.d.data() + p.d.size(), 0.0);
  else
    std::fill(p.i.data(), p.i.data() + p.i.size(), 0);
}

void instance::record_reference() {
  reset();
  exec::run_serial(*work_.spec);
  ref_d_ = work_.d;
  ref_i_ = work_.i;
}

bool instance::matches_reference(const plane& p) const {
  return p.d == ref_d_ && p.i == ref_i_;
}

std::unique_ptr<plane> instance::fresh_plane() const {
  auto p = std::make_unique<plane>();
  bind(*p);
  return p;
}

double instance::cell_updates() const {
  const double n = static_cast<double>(n_);
  switch (id_) {
    case spec_id::ge: return (n - 1) * n * (2 * n - 1) / 6;  // Σ m², m < n
    case spec_id::fw: return n * n * n;
    case spec_id::paren: return (n * n * n - n) / 6;  // Σ_{i<j} (j - i)
    case spec_id::sw:
    case spec_id::lcs: return n * n;
  }
  return 0;
}

instance_set make_suite(const std::array<std::size_t, 5>& n,
                        std::size_t base, std::uint64_t seed) {
  instance_set out;
  for (std::size_t s = 0; s < all_specs.size(); ++s)
    out.push_back(std::make_unique<instance>(all_specs[s], n[s], base,
                                             dp::mix64(seed * 16 + s + 1)));
  return out;
}

// ---- layer_ledger / timed_recurrence -------------------------------------

layer_ledger::slot& layer_ledger::here() {
  const int w = forkjoin::worker_pool::current_worker_index();
  const std::size_t idx = static_cast<std::size_t>(w + 1);
  if (idx >= slots_.size())
    throw std::runtime_error("layer_ledger: more workers than slots");
  return slots_[idx];
}

layer_ledger::totals layer_ledger::sum() const {
  totals t;
  for (const slot& s : slots_) {
    t.kernel_ns += s.kernel_ns.load(std::memory_order_relaxed);
    t.kernel_calls += s.kernel_calls.load(std::memory_order_relaxed);
    t.spec_ns += s.spec_ns.load(std::memory_order_relaxed);
    t.spec_calls += s.spec_calls.load(std::memory_order_relaxed);
  }
  return t;
}

void layer_ledger::clear() {
  for (slot& s : slots_) {
    s.kernel_ns.store(0, std::memory_order_relaxed);
    s.kernel_calls.store(0, std::memory_order_relaxed);
    s.spec_ns.store(0, std::memory_order_relaxed);
    s.spec_calls.store(0, std::memory_order_relaxed);
  }
}

namespace {

/// Adds the enclosing scope's duration and one call to a slot's counters,
/// also when the timed callback throws. Only the owning thread writes a
/// slot, so load + store needs no read-modify-write.
class scoped_charge {
 public:
  scoped_charge(std::atomic<std::uint64_t>& ns,
                std::atomic<std::uint64_t>& calls)
      : ns_(ns), calls_(calls), t0_(sclock::now()) {}
  ~scoped_charge() {
    const auto d = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       sclock::now() - t0_)
                       .count();
    bump(ns_, static_cast<std::uint64_t>(d));
    bump(calls_, 1);
  }
  scoped_charge(const scoped_charge&) = delete;
  scoped_charge& operator=(const scoped_charge&) = delete;

 private:
  static void bump(std::atomic<std::uint64_t>& a, std::uint64_t by) {
    a.store(a.load(std::memory_order_relaxed) + by,
            std::memory_order_relaxed);
  }
  std::atomic<std::uint64_t>& ns_;
  std::atomic<std::uint64_t>& calls_;
  sclock::time_point t0_;
};

scoped_charge spec_charge(layer_ledger& ledger) {
  layer_ledger::slot& s = ledger.here();
  return scoped_charge(s.spec_ns, s.spec_calls);
}

scoped_charge kernel_charge(layer_ledger& ledger) {
  layer_ledger::slot& s = ledger.here();
  return scoped_charge(s.kernel_ns, s.kernel_calls);
}

}  // namespace

dp::split_plan timed_recurrence::split(const dp::tile4& t) const {
  const scoped_charge charge = spec_charge(ledger_);
  return inner_.split(t);
}

void timed_recurrence::depends(const dp::tile3& t,
                               const dp::dep_sink& need) const {
  const scoped_charge charge = spec_charge(ledger_);
  inner_.depends(t, need);
}

std::size_t timed_recurrence::max_dependencies() const {
  const scoped_charge charge = spec_charge(ledger_);
  return inner_.max_dependencies();
}

std::size_t timed_recurrence::dependency_bound(const dp::tile3& t) const {
  const scoped_charge charge = spec_charge(ledger_);
  return inner_.dependency_bound(t);
}

std::uint32_t timed_recurrence::consumer_count(const dp::tile3& t) const {
  const scoped_charge charge = spec_charge(ledger_);
  return inner_.consumer_count(t);
}

void timed_recurrence::enumerate_base(const dp::tag_sink& emit) const {
  const scoped_charge charge = spec_charge(ledger_);
  inner_.enumerate_base(emit);
}

void timed_recurrence::run_base(const dp::tile4& t) {
  const scoped_charge charge = kernel_charge(ledger_);
  inner_.run_base(t);
}

dp::tile_value timed_recurrence::run_base_value(
    const dp::tile3& t, const dp::tile_value* deps) const {
  const scoped_charge charge = kernel_charge(ledger_);
  return inner_.run_base_value(t, deps);
}

void timed_recurrence::seed_values(dp::value_store& store) {
  const scoped_charge charge = spec_charge(ledger_);
  inner_.seed_values(store);
}

void timed_recurrence::gather_values(dp::value_store& store) {
  const scoped_charge charge = spec_charge(ledger_);
  inner_.gather_values(store);
}

}  // namespace perfbench
