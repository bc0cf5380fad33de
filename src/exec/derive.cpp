#include "exec/derive.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "exec/stage.hpp"
#include "support/assertions.hpp"
#include "support/math_utils.hpp"

namespace rdp::exec {

using trace::k_no_node;
using trace::node_id;
using trace::node_type;

namespace {

/// A/B/C/D for the abcd structures; every other tile is a plain update.
dp::task_kind kind_of(dp::structure_kind s, const dp::tile3& t) {
  return s == dp::structure_kind::abcd_triangular ||
                 s == dp::structure_kind::abcd_full
             ? dp::classify(t.i, t.j, t.k)
             : dp::task_kind::D;
}

/// Cell updates of the base task on tile t of side b. GE: the exact
/// triangular count of its kind; FW: b³; wavefront: b²; Parenthesization:
/// one candidate evaluation per (cell, split point).
std::uint64_t tile_work(dp::structure_kind s, const dp::tile3& t,
                        std::uint64_t b) {
  switch (s) {
    case dp::structure_kind::abcd_triangular:
      switch (dp::classify(t.i, t.j, t.k)) {
        case dp::task_kind::A:
          return (b - 1) * b * (2 * b - 1) / 6;  // Σ_{k<b} (b-1-k)²
        case dp::task_kind::B:
        case dp::task_kind::C:
          return b * b * (b - 1) / 2;  // Σ_{k<b} (b-1-k)·b
        case dp::task_kind::D:
          return b * b * b;
      }
      break;
    case dp::structure_kind::abcd_full:
      return b * b * b;  // every FW tile task relaxes the full cube slice
    case dp::structure_kind::wavefront:
      return b * b;
    case dp::structure_kind::diagonal_3way:
      // Cell (i,j) tries j-i split points: Σ_{d<b} d(b-d) inside a
      // diagonal tile; the in-tile offsets cancel off the diagonal.
      return t.i == t.j ? (b - 1) * b * (b + 1) / 6
                        : b * b * b * static_cast<std::uint64_t>(t.j - t.i);
  }
  return 0;
}

/// Index in `tiles` of the tile producing each key: a dense array over the
/// bounding box of the tiles. Requires distinct tiles.
class producer_index {
 public:
  explicit producer_index(const std::vector<dp::tile4>& tiles);
  /// The producing tile's index, or k_seed.
  std::uint32_t operator[](const dp::tile3& key) const;

 private:
  std::size_t offset(const dp::tile3& key) const;  // key inside the box

  dp::tile3 lo_{}, hi_{};
  std::size_t ni_ = 0, nj_ = 0;
  std::vector<std::uint32_t> slot_;
};

producer_index::producer_index(const std::vector<dp::tile4>& tiles) {
  RDP_REQUIRE(!tiles.empty());
  lo_ = hi_ = {tiles.front().i, tiles.front().j, tiles.front().k};
  for (const dp::tile4& t : tiles) {
    lo_ = {std::min(lo_.i, t.i), std::min(lo_.j, t.j), std::min(lo_.k, t.k)};
    hi_ = {std::max(hi_.i, t.i), std::max(hi_.j, t.j), std::max(hi_.k, t.k)};
  }
  ni_ = static_cast<std::size_t>(hi_.i - lo_.i + 1);
  nj_ = static_cast<std::size_t>(hi_.j - lo_.j + 1);
  slot_.assign(ni_ * nj_ * static_cast<std::size_t>(hi_.k - lo_.k + 1),
               k_seed);
  for (std::uint32_t v = 0; v < tiles.size(); ++v) {
    std::uint32_t& s = slot_[offset({tiles[v].i, tiles[v].j, tiles[v].k})];
    RDP_REQUIRE_MSG(s == k_seed, "enumerate_base emitted a tile twice");
    s = v;
  }
}

std::uint32_t producer_index::operator[](const dp::tile3& key) const {
  if (key.i < lo_.i || key.i > hi_.i || key.j < lo_.j || key.j > hi_.j ||
      key.k < lo_.k || key.k > hi_.k)
    return k_seed;
  return slot_[offset(key)];
}

std::size_t producer_index::offset(const dp::tile3& key) const {
  return (static_cast<std::size_t>(key.k - lo_.k) * ni_ +
          static_cast<std::size_t>(key.i - lo_.i)) *
             nj_ +
         static_cast<std::size_t>(key.j - lo_.j);
}

}  // namespace

std::vector<dp::tile4> base_tiles(const dp::recurrence& rec) {
  std::vector<dp::tile4> tiles;
  auto emit = [&](const dp::tile4& t) { tiles.push_back(t); };
  rec.enumerate_base(dp::tag_sink(emit));
  RDP_REQUIRE_MSG(!tiles.empty(), std::string(rec.name()) +
                                      ": enumerate_base emitted no base tiles");
  return tiles;
}

void for_each_dependency(
    const dp::recurrence& rec, const std::vector<dp::tile4>& tiles,
    const std::function<void(std::uint32_t, std::uint32_t, const dp::tile3&)>&
        dep) {
  const producer_index producer(tiles);
  const bool seeds_allowed = rec.value_passing();
  const std::size_t max_deps = rec.max_dependencies();
  for (std::uint32_t v = 0; v < tiles.size(); ++v) {
    std::size_t keys = 0;
    auto need = [&](const dp::tile3& key) {
      RDP_REQUIRE_MSG(++keys <= max_deps,
                      std::string(rec.name()) +
                          ": base task emits more dependency keys than the "
                          "spec's max_dependencies() declares");
      const std::uint32_t p = producer[key];
      RDP_REQUIRE_MSG(p != k_seed || seeds_allowed,
                      std::string(rec.name()) + ": base tile depends on (" +
                          std::to_string(key.i) + "," +
                          std::to_string(key.j) + "," +
                          std::to_string(key.k) +
                          "), which no base task produces, and a token spec "
                          "has no environment seeds");
      dep(p, v, key);
    };
    rec.depends({tiles[v].i, tiles[v].j, tiles[v].k}, dp::dep_sink(need));
  }
}

trace::task_graph derive_dataflow(const dp::recurrence& rec,
                                  std::uint64_t work_base) {
  const std::vector<dp::tile4> tiles = base_tiles(rec);
  trace::task_graph g;
  const dp::structure_kind s = rec.structure();
  for (const dp::tile4& t : tiles) {
    const dp::tile3 c{t.i, t.j, t.k};
    g.add_node(node_type::base_task, kind_of(s, c), c,
               tile_work(s, c, work_base));
  }
  for_each_dependency(rec, tiles,
                      [&g](std::uint32_t p, std::uint32_t c, const dp::tile3&) {
                        if (p != k_seed) g.add_edge(p, c);
                      });
  return g;
}

/// Builds the fork-join DAG while a lowering runs symbolically: base tasks
/// append leaves to the current series fragment, a multi-child stage
/// records each child as its own fragment and closes them with a fork and
/// a join node (created after the children, as the join is reached last).
class dag_recorder {
 public:
  dag_recorder(dp::structure_kind s, std::uint64_t work_base)
      : structure_(s), work_base_(work_base) {}

  void leaf(const dp::tile3& t) {
    const node_id v =
        g_.add_node(node_type::base_task, kind_of(structure_, t), t,
                    tile_work(structure_, t, work_base_));
    append({v, v});
  }

  void stage(std::size_t count, void* child,
             void (*run)(void*, std::size_t)) {
    const fragment outer = cur_;
    const std::size_t first = parts_.size();
    for (std::size_t c = 0; c < count; ++c) {
      cur_ = {};
      run(child, c);
      RDP_ASSERT(cur_.entry != k_no_node);
      parts_.push_back(cur_);
    }
    const node_id f = g_.add_node(node_type::fork);
    const node_id j = g_.add_node(node_type::join);
    for (std::size_t p = first; p < parts_.size(); ++p) {
      g_.add_edge(f, parts_[p].entry);
      g_.add_edge(parts_[p].exit, j);
    }
    parts_.resize(first);
    cur_ = outer;
    append({f, j});
  }

  trace::task_graph take() { return std::move(g_); }

 private:
  /// Entry and exit node of a series-parallel sub-DAG.
  struct fragment {
    node_id entry = k_no_node;
    node_id exit = k_no_node;
  };

  void append(fragment f) {
    if (cur_.entry == k_no_node) {
      cur_ = f;
    } else {
      g_.add_edge(cur_.exit, f.entry);
      cur_.exit = f.exit;
    }
  }

  dp::structure_kind structure_;
  std::uint64_t work_base_;
  trace::task_graph g_;
  fragment cur_;
  std::vector<fragment> parts_;  // children of the open stages
};

void stage_runner::record(std::size_t count, void* child,
                          void (*run)(void*, std::size_t)) const {
  recorder_->stage(count, child, run);
}

namespace {

/// The spec as the lowerings see it, except that run_base records a leaf
/// instead of running the kernel.
class recording_spec final : public dp::recurrence {
 public:
  recording_spec(const dp::recurrence& inner, dag_recorder& out)
      : inner_(inner), out_(out) {}

  const char* name() const override { return inner_.name(); }
  dp::structure_kind structure() const override { return inner_.structure(); }
  std::size_t size() const override { return inner_.size(); }
  std::size_t base() const override { return inner_.base(); }
  dp::split_plan split(const dp::tile4& t) const override {
    return inner_.split(t);
  }
  void depends(const dp::tile3& t, const dp::dep_sink& need) const override {
    inner_.depends(t, need);
  }
  std::uint32_t consumer_count(const dp::tile3& t) const override {
    return inner_.consumer_count(t);
  }
  void enumerate_base(const dp::tag_sink& emit) const override {
    inner_.enumerate_base(emit);
  }
  void run_base(const dp::tile4& t) override { out_.leaf({t.i, t.j, t.k}); }

 private:
  const dp::recurrence& inner_;
  dag_recorder& out_;
};

template <class Walk>
trace::task_graph record(const dp::recurrence& rec, std::uint64_t work_base,
                         Walk&& walk) {
  dag_recorder out(rec.structure(), work_base);
  recording_spec spec(rec, out);
  walk(spec, stage_runner(out));
  return out.take();
}

}  // namespace

trace::task_graph derive_forkjoin(const dp::recurrence& rec,
                                  std::uint64_t work_base) {
  RDP_REQUIRE_MSG(is_pow2(rec.size()) && is_pow2(rec.base()),
                  "the 2-way split needs power-of-two size and base");
  return record(rec, work_base, [](dp::recurrence& r, stage_runner run) {
    walk_split(r, run);
  });
}

trace::task_graph derive_rway(const dp::recurrence& rec, std::size_t r,
                              std::uint64_t work_base) {
  return record(rec, work_base, [r](dp::recurrence& spec, stage_runner run) {
    walk_rway(spec, r, run);
  });
}

}  // namespace rdp::exec
