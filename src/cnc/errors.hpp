// Error types of the data-flow (CnC) runtime.
//
// An unmet blocking get inside a step is not an error and throws nothing:
// get() parks the instance and returns false, and the step body returns
// (item_collection.hpp, step_instance.hpp). Only genuine failures are
// exceptions.
#pragma once

#include <stdexcept>
#include <string>

namespace rdp::cnc {

/// Dynamic single assignment violation: an item collection key was put twice.
/// Mirrors the run-time check the Intel CnC C++ implementation performs
/// (§II of the paper): items, once written, may not be overwritten.
class dsa_violation : public std::logic_error {
public:
  explicit dsa_violation(const std::string& what_arg)
      : std::logic_error(what_arg) {}
};

/// Raised by context::wait() when the graph quiesced with steps still
/// suspended on items nobody will ever produce (a deadlocked specification).
/// CnC's determinism makes such deadlocks reproducible and easy to report.
class unsatisfied_dependency : public std::runtime_error {
public:
  explicit unsatisfied_dependency(const std::string& what_arg)
      : std::runtime_error(what_arg) {}
};

}  // namespace rdp::cnc
