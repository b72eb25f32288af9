// twiddc::common -- machine-topology probe.
//
// Two answers from the machine: how many workers are worth running
// (default_worker_count), and which NUMA nodes hold the CPUs this process
// may run on (probe) -- reported, not acted on: no worker is pinned and no
// memory is bound.  The probe degrades gracefully: on a single-node box --
// or any platform where the sysfs probe is unavailable -- it reports one
// node holding every allowed CPU.  No libnuma dependency: the node map
// comes from sysfs cpulists intersected with this process's affinity mask.
#pragma once

#include <cstddef>
#include <vector>

namespace twiddc::common {

/// Worker-count default shared by the scheduler, the engine and the
/// benches: the TWIDDC_WORKERS environment variable when set (clamped to
/// >= 1), otherwise std::thread::hardware_concurrency (>= 1).  Read per
/// call, so tests can flip the variable.
[[nodiscard]] int default_worker_count();

namespace topology {

struct Node {
  int id = 0;                ///< kernel node id (the sysfs nodeN index)
  std::vector<int> cpus;     ///< allowed CPUs on this node (affinity-masked)
};

struct Topology {
  /// Never empty: single-node fallback is one node 0 with every allowed
  /// CPU (or CPU 0 when even the affinity probe fails).
  std::vector<Node> nodes;
  [[nodiscard]] std::size_t node_count() const { return nodes.size(); }
  /// Total allowed CPUs across nodes (>= 1).
  [[nodiscard]] std::size_t cpu_count() const {
    std::size_t n = 0;
    for (const auto& node : nodes) n += node.cpus.size();
    return n == 0 ? 1 : n;
  }
};

/// The cached process-wide topology (probed once, immutable after).
[[nodiscard]] const Topology& probe();

/// A fresh probe (tests; callers that changed their affinity mask).
[[nodiscard]] Topology probe_uncached();

}  // namespace topology
}  // namespace twiddc::common
