#include "exec/prepared_graph.hpp"

#include <mutex>
#include <utility>

#include "concurrent/backoff.hpp"
#include "exec/banding.hpp"
#include "exec/derive.hpp"
#include "forkjoin/task.hpp"
#include "obs/metrics.hpp"
#include "support/assertions.hpp"
#include "support/small_vector.hpp"

namespace rdp::exec {

namespace {

/// Registry metrics of the prepared-graph runner: how often graphs are
/// frozen vs re-executed is exactly the amortisation the batch server
/// exists to demonstrate.
struct prepared_metrics_t {
  obs::counter& freezes;
  obs::counter& executions;
  obs::counter& nodes_run;
};

prepared_metrics_t& prepared_metrics() {
  auto& reg = obs::metrics_registry::instance();
  static prepared_metrics_t m{reg.get_counter("prepared.freezes"),
                              reg.get_counter("prepared.executions"),
                              reg.get_counter("prepared.nodes_run")};
  return m;
}

}  // namespace

// ---- freeze ----------------------------------------------------------------

void prepared_graph::freeze_tiles(dp::recurrence& rec,
                                  const std::vector<dp::tile4>& tags) {
  name_ = rec.name();
  n_ = rec.size();
  base_ = rec.base();
  value_passing_ = rec.value_passing();

  tiles_.reserve(tags.size());
  for (const dp::tile4& tag : tags) {
    slot_of_.emplace(dp::tile3{tag.i, tag.j, tag.k},
                     static_cast<std::uint32_t>(tiles_.size()));
    tile_rec tr;
    tr.tag = tag;
    tiles_.push_back(tr);
  }
  const auto tile_count = static_cast<std::uint32_t>(tiles_.size());

  // Dependency slots, in depends() order per tile: a produced key's slot
  // is its producer's index, an environment seed gets its own slot past
  // the tiles (one per distinct key).
  std::uint32_t opened = 0;  // tiles whose slot range has begun
  auto open_through = [&](std::uint32_t idx) {
    for (; opened <= idx && opened < tile_count; ++opened)
      tiles_[opened].dep_begin = tiles_[opened].dep_end =
          static_cast<std::uint32_t>(dep_slots_.size());
  };
  for_each_dependency(
      rec, tags,
      [&](std::uint32_t p, std::uint32_t c, const dp::tile3& key) {
        open_through(c);
        if (p == k_seed) {
          const auto [it, inserted] =
              slot_of_.emplace(key, tile_count + seed_slots_);
          if (inserted) ++seed_slots_;
          p = it->second;
        }
        dep_slots_.push_back(p);
        tiles_[c].dep_end = static_cast<std::uint32_t>(dep_slots_.size());
      });
  open_through(tile_count);
}

prepared_graph prepared_graph::freeze(dp::recurrence& rec) {
  prepared_graph g;

  // Node set: enumerate_base() emission order (== the manual-CnC
  // pre-declaration order, so traces line up across backends).
  g.freeze_tiles(rec, base_tiles(rec));
  const auto tile_count = static_cast<std::uint32_t>(g.tiles_.size());

  // Unfused: one schedule node per tile (identity member lists), CSR edges
  // straight from the recorded dependency slots.
  g.members_.resize(tile_count);
  g.nodes_.resize(tile_count);
  std::vector<std::uint32_t> succ_count(tile_count, 0);
  for (std::uint32_t idx = 0; idx < tile_count; ++idx) {
    g.members_[idx] = idx;
    node& nd = g.nodes_[idx];
    nd.member_begin = idx;
    nd.member_end = idx + 1;
    const tile_rec& tr = g.tiles_[idx];
    for (std::uint32_t d = tr.dep_begin; d < tr.dep_end; ++d) {
      const std::uint32_t slot = g.dep_slots_[d];
      if (slot < tile_count) {
        ++succ_count[slot];
        ++nd.initial_pending;
      }
    }
  }

  // CSR successor lists: prefix sums, then a second pass over the recorded
  // dependency slots. Consumers appear in node-index order per producer.
  std::uint32_t edges = 0;
  for (std::uint32_t idx = 0; idx < tile_count; ++idx) {
    g.nodes_[idx].succ_begin = edges;
    edges += succ_count[idx];
    g.nodes_[idx].succ_end = edges;
  }
  g.successors_.resize(edges);
  std::vector<std::uint32_t> cursor(tile_count);
  for (std::uint32_t idx = 0; idx < tile_count; ++idx)
    cursor[idx] = g.nodes_[idx].succ_begin;
  for (std::uint32_t idx = 0; idx < tile_count; ++idx) {
    const tile_rec& tr = g.tiles_[idx];
    for (std::uint32_t d = tr.dep_begin; d < tr.dep_end; ++d) {
      const std::uint32_t slot = g.dep_slots_[d];
      if (slot < tile_count) g.successors_[cursor[slot]++] = idx;
    }
  }

  for (std::uint32_t idx = 0; idx < tile_count; ++idx)
    if (g.nodes_[idx].initial_pending == 0) g.roots_.push_back(idx);
  RDP_REQUIRE_MSG(!g.roots_.empty(),
                  g.name_ + ": frozen graph has no ready roots (dependency "
                            "cycle in the spec)");

  prepared_metrics().freezes.add();
  return g;
}

prepared_graph prepared_graph::freeze_batched(
    dp::recurrence& rec, std::uint32_t chunk_parallelism) {
  prepared_graph g;

  // The band plan's tile list IS enumerate_base order, so the value plane
  // and slot_of_ are laid out identically to freeze() — only the schedule
  // nodes coarsen.
  band_plan plan = build_band_plan(rec);
  g.freeze_tiles(rec, plan.tiles);
  const chunk_table chunks = build_chunks(plan, chunk_parallelism);
  const auto node_count = static_cast<std::uint32_t>(chunks.chunks.size());

  g.members_ = plan.members;
  g.nodes_.resize(node_count);

  // Band-barrier edges: every chunk of a predecessor band precedes every
  // chunk of the successor band, so a chunk's initial_pending is the total
  // chunk count of its band's (deduped) predecessor bands.
  std::vector<std::uint32_t> band_pending(plan.band_count, 0);
  std::vector<std::uint32_t> succ_count(node_count, 0);
  for (std::uint32_t b = 0; b < plan.band_count; ++b) {
    std::uint32_t fan_out = 0;
    for (std::uint32_t s = plan.succ_begin[b]; s < plan.succ_begin[b + 1];
         ++s) {
      const std::uint32_t succ_band = plan.succ[s];
      band_pending[succ_band] += chunks.chunk_count(b);
      fan_out += chunks.chunk_count(succ_band);
    }
    for (std::uint32_t c = chunks.first_chunk[b];
         c < chunks.first_chunk[b + 1]; ++c)
      succ_count[c] = fan_out;
  }

  std::uint32_t edges = 0;
  for (std::uint32_t c = 0; c < node_count; ++c) {
    const chunk_ref& ch = chunks.chunks[c];
    node& nd = g.nodes_[c];
    nd.member_begin = ch.member_begin;
    nd.member_end = ch.member_end;
    nd.initial_pending = band_pending[ch.band];
    nd.succ_begin = edges;
    edges += succ_count[c];
    nd.succ_end = edges;
  }
  g.successors_.resize(edges);
  for (std::uint32_t b = 0; b < plan.band_count; ++b) {
    std::uint32_t cursor = 0;
    for (std::uint32_t s = plan.succ_begin[b]; s < plan.succ_begin[b + 1];
         ++s) {
      const std::uint32_t succ_band = plan.succ[s];
      for (std::uint32_t t = chunks.first_chunk[succ_band];
           t < chunks.first_chunk[succ_band + 1]; ++t, ++cursor)
        for (std::uint32_t c = chunks.first_chunk[b];
             c < chunks.first_chunk[b + 1]; ++c)
          g.successors_[g.nodes_[c].succ_begin + cursor] = t;
    }
  }

  for (std::uint32_t c = 0; c < node_count; ++c)
    if (g.nodes_[c].initial_pending == 0) g.roots_.push_back(c);
  RDP_REQUIRE_MSG(!g.roots_.empty(),
                  g.name_ + ": frozen graph has no ready roots (dependency "
                            "cycle in the spec)");

  prepared_metrics().freezes.add();
  return g;
}

bool prepared_graph::matches(const dp::recurrence& rec) const noexcept {
  return name_ == rec.name() && n_ == rec.size() && base_ == rec.base() &&
         value_passing_ == rec.value_passing();
}

void prepared_graph::execute(dp::recurrence& rec,
                             forkjoin::worker_pool& pool) const {
  prepared_execution ex(*this, rec, pool);
  ex.start();
  ex.wait();
}

// ---- execution -------------------------------------------------------------

/// Seed store: routes the spec's environment items into their frozen value
/// slots. Seeding a key no base task reads is tolerated (dropped) — the
/// spec layer seeds boundary items unconditionally; the frozen graph knows
/// which ones this (n, base) actually consumes.
struct prepared_execution::seed_store final : dp::value_store {
  prepared_execution& ex;
  explicit seed_store(prepared_execution& e) : ex(e) {}

  void put(const dp::tile3& key, dp::tile_value v) override {
    const auto it = ex.graph_.slot_of_.find(key);
    if (it == ex.graph_.slot_of_.end()) return;
    RDP_REQUIRE_MSG(it->second >= ex.graph_.tiles_.size(),
                    ex.graph_.name_ +
                        ": environment seed collides with a produced item");
    ex.values_[it->second] = std::move(v);
  }
  dp::tile_value get(const dp::tile3&) override {
    RDP_REQUIRE_MSG(false, "seed_values must not read items");
    return {};
  }
};

/// Gather store: after quiescence, the spec reads final items back into the
/// problem table straight from the value plane.
struct prepared_execution::gather_store final : dp::value_store {
  prepared_execution& ex;
  explicit gather_store(prepared_execution& e) : ex(e) {}

  void put(const dp::tile3&, dp::tile_value) override {
    RDP_REQUIRE_MSG(false, "gather_values must not put items");
  }
  dp::tile_value get(const dp::tile3& key) override {
    const auto it = ex.graph_.slot_of_.find(key);
    RDP_REQUIRE_MSG(it != ex.graph_.slot_of_.end(),
                    ex.graph_.name_ + ": gather of an item the frozen graph "
                                      "never materialised");
    return ex.values_[it->second];
  }
};

prepared_execution::prepared_execution(const prepared_graph& graph,
                                       dp::recurrence& rec,
                                       forkjoin::worker_pool& pool)
    : graph_(graph), rec_(rec), pool_(pool) {
  RDP_REQUIRE_MSG(graph_.matches(rec_),
                  std::string(rec_.name()) +
                      ": recurrence does not match the frozen graph's "
                      "structure (name/size/base/value-passing)");
  const std::size_t count = graph_.nodes_.size();
  pending_ = std::make_unique<std::atomic<std::uint32_t>[]>(count);
  for (std::size_t i = 0; i < count; ++i)
    pending_[i].store(graph_.nodes_[i].initial_pending,
                      std::memory_order_relaxed);
  if (graph_.value_passing_)
    values_.resize(graph_.tiles_.size() + graph_.seed_slots_);
  remaining_.store(count, std::memory_order_relaxed);
}

prepared_execution::~prepared_execution() {
  RDP_ASSERT(!started_ || done());
}

void prepared_execution::set_on_complete(std::function<void()> fn) {
  RDP_ASSERT(!started_);
  on_complete_ = std::move(fn);
}

void prepared_execution::start() {
  RDP_REQUIRE_MSG(!started_, "prepared_execution::start called twice");
  started_ = true;
  if (graph_.value_passing_) {
    seed_store store(*this);
    rec_.seed_values(store);
  }
  prepared_metrics().executions.add();
  for (const std::uint32_t root : graph_.roots_) {
    pool_.enqueue(forkjoin::make_task(
        [this, root] { run_node(root); }, nullptr));
  }
}

void prepared_execution::run_node(std::uint32_t idx) noexcept {
  const prepared_graph::node& nd = graph_.nodes_[idx];
  // After a kernel error the rest of the DAG still counts down (so the run
  // terminates and the pool is left clean) but skips its kernels.
  if (!failed_.load(std::memory_order_acquire)) {
    try {
      for (std::uint32_t m = nd.member_begin; m < nd.member_end; ++m) {
        const std::uint32_t tile = graph_.members_[m];
        const prepared_graph::tile_rec& tr = graph_.tiles_[tile];
        if (graph_.value_passing_) {
          rdp::small_vector<dp::tile_value, dp::typical_dependency_arity>
              deps;
          deps.reserve(tr.dep_end - tr.dep_begin);
          for (std::uint32_t s = tr.dep_begin; s < tr.dep_end; ++s)
            deps.push_back(values_[graph_.dep_slots_[s]]);
          const dp::tile3 coord{tr.tag.i, tr.tag.j, tr.tag.k};
          dp::tile_value out = rec_.run_base_value(coord, deps.data());
          RDP_ASSERT(out != nullptr);
          values_[tile] = std::move(out);
        } else {
          rec_.run_base(tr.tag);
        }
        executed_.fetch_add(1, std::memory_order_relaxed);
        prepared_metrics().nodes_run.add();
      }
    } catch (...) {
      {
        std::scoped_lock lock(error_mutex_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      failed_.store(true, std::memory_order_release);
    }
  }
  retire(idx);
}

void prepared_execution::retire(std::uint32_t idx) noexcept {
  const prepared_graph::node& nd = graph_.nodes_[idx];
  for (std::uint32_t s = nd.succ_begin; s < nd.succ_end; ++s) {
    const std::uint32_t succ = graph_.successors_[s];
    // acq_rel: the release publishes this node's table/value writes to the
    // consumer; the acquire on the final decrement makes every producer's
    // writes visible before the consumer's kernel runs.
    if (pending_[succ].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pool_.enqueue(forkjoin::make_task(
          [this, succ] { run_node(succ); }, nullptr));
    }
  }
  if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last node: run the epilogue, publish done, fire the callback. The
    // callback is the very last touch of any member — the owner may retire
    // this object as soon as done() reads true.
    if (graph_.value_passing_ && !failed_.load(std::memory_order_acquire)) {
      try {
        gather_store store(*this);
        rec_.gather_values(store);
      } catch (...) {
        std::scoped_lock lock(error_mutex_);
        if (!first_error_) first_error_ = std::current_exception();
      }
    }
    std::function<void()> fn = std::move(on_complete_);
    done_.store(true, std::memory_order_release);
    if (fn) fn();
  }
}

void prepared_execution::wait() {
  RDP_REQUIRE_MSG(started_, "prepared_execution::wait before start");
  concurrent::backoff bo;
  while (!done()) {
    if (pool_.try_run_one()) {
      bo.reset();
      continue;
    }
    bo.pause();
  }
  if (std::exception_ptr e = error()) std::rethrow_exception(e);
}

std::exception_ptr prepared_execution::error() const noexcept {
  std::scoped_lock lock(error_mutex_);
  return first_error_;
}

}  // namespace rdp::exec
