// Topology probe: NUMA node discovery with the single-node fallback, and
// the TWIDDC_WORKERS override.  Everything here must pass identically on a
// one-core container and a multi-socket box -- the probe's graceful
// degradation IS the contract under test.
#include "src/common/topology.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

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
