// Task-DAG intermediate representation.
//
// A task_graph captures the execution constraints of one benchmark variant:
//   * data-flow DAGs contain one node per base-case tile task and one edge
//     per true data dependency (the constraints the CnC runtime enforces);
//   * fork-join DAGs additionally contain zero-work synthetic fork/join
//     nodes encoding the series-parallel structure of spawn/taskwait — the
//     join edges are precisely the paper's "artificial dependencies".
//
// Both are derived from a recurrence spec and the lowerings that run it
// (exec/derive.hpp). The same graphs drive the work/span analysis (T1, T∞,
// parallelism — the quantities §III-B argues about) and the discrete-event
// many-core simulator that regenerates the paper's figures.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "dp/common.hpp"
#include "support/assertions.hpp"

namespace rdp::trace {

using node_id = std::uint32_t;
inline constexpr node_id k_no_node = 0xFFFFFFFFu;

enum class node_type : std::uint8_t {
  base_task,  // a base-case tile kernel
  fork,       // synthetic: spawn point (zero work)
  join,       // synthetic: taskwait point (zero work)
};

struct task_node {
  node_type type = node_type::base_task;
  dp::task_kind kind = dp::task_kind::D;  // meaningful for base tasks
  dp::tile3 coord{};                      // base-tile coordinates
  std::uint64_t work = 0;                 // abstract work units (updates)
  std::vector<node_id> successors;
  std::uint32_t predecessor_count = 0;
};

class task_graph {
public:
  node_id add_node(node_type type, dp::task_kind kind = dp::task_kind::D,
                   dp::tile3 coord = {}, std::uint64_t work = 0) {
    nodes_.push_back(task_node{type, kind, coord, work, {}, 0});
    return static_cast<node_id>(nodes_.size() - 1);
  }

  void add_edge(node_id from, node_id to) {
    RDP_ASSERT(from < nodes_.size() && to < nodes_.size() && from != to);
    nodes_[from].successors.push_back(to);
    ++nodes_[to].predecessor_count;
  }

  const task_node& node(node_id id) const {
    RDP_ASSERT(id < nodes_.size());
    return nodes_[id];
  }
  std::size_t node_count() const { return nodes_.size(); }

  std::size_t edge_count() const {
    std::size_t e = 0;
    for (const auto& n : nodes_) e += n.successors.size();
    return e;
  }

  std::size_t base_task_count() const {
    std::size_t c = 0;
    for (const auto& n : nodes_)
      if (n.type == node_type::base_task) ++c;
    return c;
  }

  /// Kahn topological order; throws contract_error if the graph has a cycle
  /// (which would indicate a derivation bug).
  std::vector<node_id> topological_order() const;

  /// Verifies acyclicity and that predecessor counts match edges.
  void validate() const;

  const std::vector<task_node>& nodes() const { return nodes_; }

  /// Graphviz dump (small graphs only; guarded by a node-count limit).
  void write_dot(std::ostream& os, const std::string& name) const;

private:
  std::vector<task_node> nodes_;
};

/// Work/span metrics under a per-node cost model (costs in abstract time).
struct work_span {
  double total_work = 0;  // T1: sum of node costs
  double span = 0;        // T∞: longest path
  double parallelism() const { return span > 0 ? total_work / span : 0; }
};

/// Computes T1 and T∞ with cost(node) supplied by the caller (synthetic
/// nodes should be given zero cost by the callback).
work_span analyze_work_span(const task_graph& g,
                            const std::function<double(const task_node&)>& cost);

/// Convenience: cost == node.work (synthetic nodes already have work 0).
work_span analyze_work_span(const task_graph& g);

}  // namespace rdp::trace
