// twiddc::common -- machine-topology probe for worker and memory placement.
//
// The scheduler and the stream engine want three answers from the machine:
// how many workers are worth running (default_worker_count), which NUMA
// node a given worker should live on (worker_node), and how to keep a
// worker on its node (pin_thread_to_node).  Everything here degrades
// gracefully: on a single-node box -- or any platform where the sysfs probe
// or the affinity call is unavailable -- the probe reports one node holding
// every allowed CPU and pinning becomes a cheap no-op that returns false.
// No libnuma dependency: the node map comes from sysfs cpulists intersected
// with this process's affinity mask.
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

/// Node assignment for worker `w`: nodes are filled round-robin so any
/// contiguous block of workers spreads evenly.  Pure -- the scheduler's
/// pinning and the engine's memory placement call this with the same
/// arguments and agree.  Returns the node LIST INDEX (0..node_count-1),
/// which equals the kernel id on the common dense numbering.
[[nodiscard]] int worker_node(int w, const Topology& topo);

/// Pins the calling thread to the CPUs of `node` (list index into
/// topo.nodes).  Returns false -- leaving the affinity untouched -- when
/// the node is out of range, has no CPUs, or the platform call fails.
bool pin_thread_to_node(int node, const Topology& topo);

}  // namespace topology
}  // namespace twiddc::common
