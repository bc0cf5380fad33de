#include "trace/task_graph.hpp"

#include <algorithm>
#include <ostream>

namespace rdp::trace {

std::vector<node_id> task_graph::topological_order() const {
  std::vector<std::uint32_t> in_degree(nodes_.size(), 0);
  for (const auto& n : nodes_)
    for (node_id s : n.successors) ++in_degree[s];

  std::vector<node_id> order;
  order.reserve(nodes_.size());
  std::vector<node_id> ready;
  for (node_id v = 0; v < nodes_.size(); ++v)
    if (in_degree[v] == 0) ready.push_back(v);

  while (!ready.empty()) {
    const node_id v = ready.back();
    ready.pop_back();
    order.push_back(v);
    for (node_id s : nodes_[v].successors)
      if (--in_degree[s] == 0) ready.push_back(s);
  }
  RDP_REQUIRE_MSG(order.size() == nodes_.size(),
                  "task graph contains a cycle");
  return order;
}

void task_graph::validate() const {
  std::vector<std::uint32_t> preds(nodes_.size(), 0);
  for (const auto& n : nodes_)
    for (node_id s : n.successors) {
      RDP_REQUIRE(s < nodes_.size());
      ++preds[s];
    }
  for (node_id v = 0; v < nodes_.size(); ++v)
    RDP_REQUIRE_MSG(preds[v] == nodes_[v].predecessor_count,
                    "predecessor counts inconsistent with edges");
  (void)topological_order();  // throws on cycles
}

work_span analyze_work_span(
    const task_graph& g,
    const std::function<double(const task_node&)>& cost) {
  const auto order = g.topological_order();
  std::vector<double> finish(g.node_count(), 0.0);
  work_span ws;
  for (node_id v : order) {
    const task_node& n = g.node(v);
    const double c = cost(n);
    ws.total_work += c;
    finish[v] += c;  // finish[v] already holds max predecessor finish
    ws.span = std::max(ws.span, finish[v]);
    for (node_id s : n.successors) finish[s] = std::max(finish[s], finish[v]);
  }
  return ws;
}

work_span analyze_work_span(const task_graph& g) {
  return analyze_work_span(
      g, [](const task_node& n) { return static_cast<double>(n.work); });
}

void task_graph::write_dot(std::ostream& os, const std::string& name) const {
  RDP_REQUIRE_MSG(nodes_.size() <= 4096,
                  "refusing to render a huge graph to DOT");
  os << "digraph \"" << name << "\" {\n  rankdir=TB;\n";
  for (node_id v = 0; v < nodes_.size(); ++v) {
    const task_node& n = nodes_[v];
    os << "  n" << v << " [label=\"";
    switch (n.type) {
      case node_type::base_task:
        os << dp::to_string(n.kind) << "(" << n.coord.i << ',' << n.coord.j
           << ',' << n.coord.k << ")";
        break;
      case node_type::fork: os << "fork"; break;
      case node_type::join: os << "join"; break;
    }
    os << "\""
       << (n.type == node_type::base_task ? "" : ", shape=point") << "];\n";
  }
  for (node_id v = 0; v < nodes_.size(); ++v)
    for (node_id s : nodes_[v].successors)
      os << "  n" << v << " -> n" << s << ";\n";
  os << "}\n";
}

}  // namespace rdp::trace
