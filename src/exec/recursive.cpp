// Serial and fork-join lowerings: walk the spec's split tree; run each
// stage's children inline (serial, or a single child) or as forked tasks
// with a join. The flattened child order of split_plan is the serial
// execution order, so both lowerings reproduce the hand-written recursion
// structs they replaced exactly.
#include "exec/backend.hpp"
#include "exec/stage.hpp"

namespace rdp::exec {

namespace {

void run_tile(dp::recurrence& rec, const dp::tile4& t, stage_runner run) {
  if (rec.is_base(t)) {
    rec.run_base(t);
    return;
  }
  const dp::split_plan plan = rec.split(t);
  for (std::size_t s = 0; s < plan.stage_count; ++s) {
    const std::size_t begin = plan.stage_begin(s);
    run(plan.stage_end[s] - begin, [&rec, &plan, begin, run](std::size_t c) {
      run_tile(rec, plan.children[begin + c], run);
    });
  }
}

}  // namespace

void walk_split(dp::recurrence& rec, stage_runner run) {
  run_tile(rec, rec.root(), run);
}

void run_serial(dp::recurrence& rec) {
  walk_split(rec, stage_runner(nullptr));
}

void run_forkjoin(dp::recurrence& rec, forkjoin::worker_pool& pool) {
  pool.run([&] { walk_split(rec, stage_runner(&pool)); });
}

}  // namespace rdp::exec
