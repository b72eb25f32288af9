#include "src/common/topology.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace twiddc::common {

int default_worker_count() {
  if (const char* env = std::getenv("TWIDDC_WORKERS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

namespace topology {
namespace {

/// Parses a sysfs cpulist ("0-3,8,10-11") into CPU numbers.  Malformed
/// pieces are skipped rather than failing the whole probe.
std::vector<int> parse_cpulist(const std::string& text) {
  std::vector<int> cpus;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && !std::isdigit(static_cast<unsigned char>(text[i])))
      ++i;
    if (i >= text.size()) break;
    std::size_t end = i;
    const long lo = std::strtol(text.c_str() + i, nullptr, 10);
    while (end < text.size() && std::isdigit(static_cast<unsigned char>(text[end])))
      ++end;
    long hi = lo;
    if (end < text.size() && text[end] == '-') {
      const std::size_t rstart = end + 1;
      hi = std::strtol(text.c_str() + rstart, nullptr, 10);
      end = rstart;
      while (end < text.size() && std::isdigit(static_cast<unsigned char>(text[end])))
        ++end;
    }
    for (long c = lo; c <= hi && c >= 0; ++c) cpus.push_back(static_cast<int>(c));
    i = end;
  }
  return cpus;
}

std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &mask)) cpus.push_back(c);
  }
#endif
  if (cpus.empty()) {
    const unsigned hw = std::thread::hardware_concurrency();
    for (int c = 0; c < static_cast<int>(hw > 0 ? hw : 1); ++c) cpus.push_back(c);
  }
  return cpus;
}

}  // namespace

Topology probe_uncached() {
  Topology topo;
  const std::vector<int> allowed = allowed_cpus();
#if defined(__linux__)
  // Nodes are probed in id order until the first missing index; sparse node
  // numbering (possible after node hot-remove) falls back below.
  for (int n = 0;; ++n) {
    std::ifstream f("/sys/devices/system/node/node" + std::to_string(n) +
                    "/cpulist");
    if (!f.is_open()) break;
    std::string line;
    std::getline(f, line);
    Node node;
    node.id = n;
    for (const int c : parse_cpulist(line))
      if (std::binary_search(allowed.begin(), allowed.end(), c))
        node.cpus.push_back(c);
    // Memory-only nodes (no allowed CPUs) have nothing to report; skip them.
    if (!node.cpus.empty()) topo.nodes.push_back(std::move(node));
  }
#endif
  if (topo.nodes.empty()) {
    // Single-node fallback: everything the process may run on lives on one
    // logical node 0.
    Node node;
    node.id = 0;
    node.cpus = allowed;
    topo.nodes.push_back(std::move(node));
  }
  return topo;
}

const Topology& probe() {
  static const Topology topo = probe_uncached();
  return topo;
}

}  // namespace topology
}  // namespace twiddc::common
