// Resident-memory cost of the tracer when tracing is off: labelling a
// worker thread must not allocate its event ring. Registered without the
// `runtime` label — sanitizer runtimes inflate resident memory on their own,
// which would swamp the bound below.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>

#include <unistd.h>

#include "forkjoin/worker_pool.hpp"
#include "obs/tracer.hpp"

namespace {

using namespace rdp;

/// Resident set size of this process in bytes (second field of statm).
std::int64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::int64_t size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::int64_t>(sysconf(_SC_PAGESIZE));
}

TEST(TraceMemory, IdleWorkerPoolsAllocateNoTraceRings) {
  if (resident_bytes() == 0) GTEST_SKIP() << "/proc/self/statm unreadable";
  ASSERT_FALSE(obs::tracing_enabled());
  // Warm-up: one-time process state (metrics registry, tracer singleton,
  // allocator arenas) is not what this test measures.
  { forkjoin::worker_pool warm(2); }

  const std::int64_t before = resident_bytes();
  for (int i = 0; i < 16; ++i) {
    forkjoin::worker_pool pool(2);  // each worker labels itself
  }
  const std::int64_t growth = resident_bytes() - before;
  // A per-thread 2 MB ring on every label would cost ~64 MB here.
  EXPECT_LT(growth, std::int64_t{8} << 20) << "grew " << growth << " bytes";
}

}  // namespace
