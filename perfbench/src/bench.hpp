// Shared pieces of the benchmark program: problem instances, the timing
// decorator that measures the spec and kernel layers from outside, and the
// small statistics helpers the phases share.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dp/spec/spec.hpp"
#include "dp/sw.hpp"
#include "support/matrix.hpp"

namespace perfbench {

using sclock = std::chrono::steady_clock;

/// Metric name → value, printed by main() and given units by run.py.
using metric_map = std::map<std::string, double>;

/// Operations checked for correctness: every solve and every request.
struct op_counts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
double ms_since(sclock::time_point t0);

// ---- problem instances ---------------------------------------------------

/// The five specs, in suite order.
enum class spec_id { ge, sw, fw, paren, lcs };
inline constexpr std::array<spec_id, 5> all_specs = {
    spec_id::ge, spec_id::sw, spec_id::fw, spec_id::paren, spec_id::lcs};
const char* spec_name(spec_id id);

/// One table plus the spec viewing it. GE, FW and Paren use `d`; SW and LCS
/// use `i`.
struct plane {
  rdp::matrix<double> d;
  rdp::matrix<std::int32_t> i;
  std::unique_ptr<rdp::dp::recurrence> spec;
};

/// One generated problem: its inputs, a working plane the batch engines
/// solve in place, and the serial engine's result to check against.
class instance {
 public:
  instance(spec_id id, std::size_t n, std::size_t base, std::uint64_t seed);
  instance(const instance&) = delete;
  instance& operator=(const instance&) = delete;

  spec_id id() const { return id_; }
  rdp::dp::recurrence& spec() { return *work_.spec; }

  /// Restore the working plane's input in place.
  void reset() { reset(work_); }
  /// Solve the working plane with exec::run_serial and keep the result.
  void record_reference();
  bool work_matches_reference() const { return matches_reference(work_); }

  /// A fresh plane bound to this instance's inputs (a served request).
  std::unique_ptr<plane> fresh_plane() const;
  bool matches_reference(const plane& p) const;

  /// Cell updates one solve performs (the kernels.gcells_s numerator).
  double cell_updates() const;

 private:
  void bind(plane& p) const;
  void reset(plane& p) const;

  spec_id id_;
  std::size_t n_, base_;
  // Inputs: GE/FW start from `start`; SW/LCS/Paren start from zeros.
  rdp::matrix<double> start_;
  std::string a_, b_;
  std::vector<double> dims_;
  rdp::dp::sw_params params_;
  plane work_;
  rdp::matrix<double> ref_d_;
  rdp::matrix<std::int32_t> ref_i_;
};

using instance_set = std::vector<std::unique_ptr<instance>>;

/// One instance of each spec at the given sizes (indexed like all_specs).
instance_set make_suite(const std::array<std::size_t, 5>& n,
                        std::size_t base, std::uint64_t seed);

// ---- per-layer timing from outside ---------------------------------------

/// Kernel and spec-callback time and calls, accumulated per thread so the
/// decorator never contends: slot 0 is the calling thread, slot w+1 pool
/// worker w. Each slot is written only by its own thread; the owner reads
/// after the solve's join, which orders those writes before the read.
class layer_ledger {
 public:
  struct totals {
    std::uint64_t kernel_ns = 0, kernel_calls = 0;
    std::uint64_t spec_ns = 0, spec_calls = 0;
  };
  struct alignas(64) slot {
    std::atomic<std::uint64_t> kernel_ns{0}, kernel_calls{0};
    std::atomic<std::uint64_t> spec_ns{0}, spec_calls{0};
  };

  slot& here();
  totals sum() const;
  void clear();

 private:
  std::array<slot, 8> slots_{};
};

/// dp::recurrence decorator: forwards every virtual to `inner` and charges
/// the base kernels (run_base, run_base_value) and the spec callbacks
/// (split, depends, consumer_count, enumerate_base, the dependency bounds
/// and the value-plane hooks) to the ledger. The cheap shape getters are
/// forwarded untimed.
class timed_recurrence final : public rdp::dp::recurrence {
 public:
  timed_recurrence(rdp::dp::recurrence& inner, layer_ledger& ledger)
      : inner_(inner), ledger_(ledger) {}

  const char* name() const override { return inner_.name(); }
  rdp::dp::structure_kind structure() const override {
    return inner_.structure();
  }
  std::size_t size() const override { return inner_.size(); }
  std::size_t base() const override { return inner_.base(); }
  bool value_passing() const override { return inner_.value_passing(); }

  rdp::dp::split_plan split(const rdp::dp::tile4& t) const override;
  void depends(const rdp::dp::tile3& t,
               const rdp::dp::dep_sink& need) const override;
  std::size_t max_dependencies() const override;
  std::size_t dependency_bound(const rdp::dp::tile3& t) const override;
  std::uint32_t consumer_count(const rdp::dp::tile3& t) const override;
  void enumerate_base(const rdp::dp::tag_sink& emit) const override;
  void run_base(const rdp::dp::tile4& t) override;
  rdp::dp::tile_value run_base_value(
      const rdp::dp::tile3& t, const rdp::dp::tile_value* deps) const override;
  void seed_values(rdp::dp::value_store& store) override;
  void gather_values(rdp::dp::value_store& store) override;

 private:
  rdp::dp::recurrence& inner_;
  layer_ledger& ledger_;
};

}  // namespace perfbench
