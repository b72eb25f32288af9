// Topology probe: NUMA node discovery with the single-node fallback, the
// worker -> node assignment helper, best-effort pinning, and the
// TWIDDC_WORKERS override.  Everything here must pass identically on a
// one-core container and a multi-socket box -- the probe's graceful
// degradation IS the contract under test.
#include "src/common/topology.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>
#include <vector>

namespace twiddc::common {
namespace {

TEST(Topology, ProbeFindsAtLeastOneNodeWithCpus) {
  const topology::Topology& t = topology::probe();
  ASSERT_GE(t.node_count(), 1u);
  std::size_t cpus = 0;
  for (const auto& node : t.nodes) {
    EXPECT_GE(node.id, 0);
    EXPECT_FALSE(node.cpus.empty());  // memory-only nodes are filtered out
    cpus += node.cpus.size();
  }
  EXPECT_EQ(t.cpu_count(), cpus);
  EXPECT_GE(cpus, 1u);
}

TEST(Topology, WorkerNodeAssignmentStaysInRange) {
  const topology::Topology& t = topology::probe();
  for (int w = 0; w < 64; ++w) {
    const int idx = topology::worker_node(w, t);
    ASSERT_GE(idx, 0);
    ASSERT_LT(static_cast<std::size_t>(idx), t.node_count());
  }
  // Round-robin: consecutive workers spread over all nodes before reusing.
  if (t.node_count() > 1)
    EXPECT_NE(topology::worker_node(0, t), topology::worker_node(1, t));
}

TEST(Topology, PinIsBestEffortNotFatal) {
  const topology::Topology& t = topology::probe();
  // Pin from a scratch thread so this test thread's affinity is untouched.
  std::thread([&t] {
    topology::pin_thread_to_node(0, t);  // return value is advisory
  }).join();
  // Out-of-range nodes are rejected, never passed to the kernel.
  EXPECT_FALSE(topology::pin_thread_to_node(-1, t));
  EXPECT_FALSE(topology::pin_thread_to_node(static_cast<int>(t.node_count()), t));
}

TEST(Topology, DefaultWorkerCountHonoursEnvOverride) {
  const int base = default_worker_count();
  EXPECT_GE(base, 1);
  ::setenv("TWIDDC_WORKERS", "3", 1);
  EXPECT_EQ(default_worker_count(), 3);
  ::setenv("TWIDDC_WORKERS", "0", 1);  // non-positive: ignored
  EXPECT_EQ(default_worker_count(), base);
  ::setenv("TWIDDC_WORKERS", "junk", 1);  // unparsable: ignored
  EXPECT_EQ(default_worker_count(), base);
  ::unsetenv("TWIDDC_WORKERS");
  EXPECT_EQ(default_worker_count(), base);
}

}  // namespace
}  // namespace twiddc::common
