// The stage hook shared by the recursive lowerings (exec/recursive.cpp's
// split walk and exec/rway.cpp's r-way recursion): how one stage of
// mutually independent children runs. Serially on the calling thread, as
// forked tasks under a task_group and its join, or — for the task-DAG
// derivation (exec/derive.hpp) — recorded as fork/join nodes. The lowering
// code is the same in all three cases, so the recorded DAG is the one the
// fork-join lowering executes.
#pragma once

#include <cstddef>
#include <type_traits>

#include "dp/spec/spec.hpp"
#include "forkjoin/task_group.hpp"

namespace rdp::exec {

class dag_recorder;  // exec/derive.cpp

class stage_runner {
 public:
  /// Serial when `pool` is null, fork-join otherwise.
  explicit stage_runner(forkjoin::worker_pool* pool) : pool_(pool) {}
  /// Records the stages into `rec` instead of running them in parallel.
  explicit stage_runner(dag_recorder& rec) : recorder_(&rec) {}

  /// Run `child(0) .. child(count-1)`. A stage with one child always runs
  /// inline (no fork, no join).
  template <class Child>
  void operator()(std::size_t count, Child&& child) const {
    if (recorder_ != nullptr && count > 1) {
      record(count, &child, [](void* c, std::size_t i) {
        (*static_cast<std::remove_reference_t<Child>*>(c))(i);
      });
    } else if (pool_ == nullptr || count <= 1) {
      for (std::size_t i = 0; i < count; ++i) child(i);
    } else {
      // The join below is precisely the artificial barrier of §III-B.
      forkjoin::task_group g(*pool_);
      for (std::size_t i = 0; i < count; ++i)
        g.spawn([&child, i] { child(i); });
      g.wait();
    }
  }

 private:
  void record(std::size_t count, void* child,
              void (*run)(void*, std::size_t)) const;

  forkjoin::worker_pool* pool_ = nullptr;
  dag_recorder* recorder_ = nullptr;
};

/// The 2-way split walk of run_serial/run_forkjoin from rec.root().
void walk_split(dp::recurrence& rec, stage_runner run);

/// The r-way recursion of run_rway from the whole problem.
void walk_rway(dp::recurrence& rec, std::size_t r, stage_runner run);

}  // namespace rdp::exec
