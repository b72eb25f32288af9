// perfbench -- shared measurement utilities: clocks, exact quantiles,
// process resource counters, host facts and the metric record that every
// workload fills.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// steady_clock nanoseconds (CLOCK_MONOTONIC on Linux, so it agrees with the
/// absolute deadlines the paced source sleeps to).
std::int64_t now_ns();

/// Exact p-quantile (0..1) of `v` by linear interpolation between order
/// statistics -- the same definition as numpy's default.  0.0 for an empty
/// sample.  Takes a copy: callers keep their sample order.
double quantile(std::vector<double> v, double p);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Process-wide resource counters (getrusage RUSAGE_SELF).
struct Usage {
  double cpu_s = 0.0;           ///< user + system CPU of every thread
  std::int64_t ctx_switches = 0;  ///< voluntary + involuntary
  double max_rss_mb = 0.0;      ///< ru_maxrss, in MiB
  /// Host-wide CPU ticks from /proc/stat: all states, and the share a
  /// hypervisor gave to other guests ("steal").  0 where unreadable.
  std::int64_t host_ticks = 0, host_steal_ticks = 0;
};
/// Share of host CPU time stolen by the hypervisor between two samples.
inline double steal_share(const Usage& a, const Usage& b) {
  const auto total = b.host_ticks - a.host_ticks;
  return total > 0 ? static_cast<double>(b.host_steal_ticks - a.host_steal_ticks) /
                         static_cast<double>(total)
                   : 0.0;
}
Usage usage_now();

/// Indices (ascending) of the best quarter, at least one, of a run's
/// sub-windows by `score` (higher is better; ties to the earlier).  On a
/// shared host the hypervisor steals CPU in bursts and a sub-window hit by
/// one only ever runs slower, so the best quarter tracks the program and
/// the rest tracks its neighbours.
std::vector<std::size_t> best_quarter(const std::vector<double>& score);

/// One named metric with its unit, as printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced: the end-to-end or per-layer metric set
/// (whichever --trace selects), the correctness ledger totals, and the
/// workload-specific extras that go to the record line only.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  ///< the result-line set (BENCHMARK.json)
  std::vector<Metric> extra;    ///< record-line only
  std::vector<std::pair<std::string, std::string>> facts;  ///< record-line facts
  std::vector<std::string> notes;  ///< human-readable remarks (demotions, checks)
  /// Per-sub-window (or per-pass) series for the record line.
  std::vector<std::pair<std::string, std::vector<double>>> series;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void add_extra(const std::string& name, double value, const std::string& unit) {
    extra.push_back({name, value, unit});
  }
  void fact(const std::string& key, const std::string& value) {
    facts.emplace_back(key, value);
  }
};

/// Formats a double with every significant digit (%.17g); non-finite values
/// become 0 so the line stays valid JSON.
std::string num(double v);

/// Host and build facts shared by every record: SIMD tier, -march, nproc,
/// NUMA nodes.  Appended to `r.facts`.
void add_host_facts(Result& r);

/// Runs fn(0) .. fn(jobs - 1) on up to `threads` threads, the caller
/// included.  For output checks and references, outside timed windows.
void parallel_for(std::size_t jobs, int threads, const std::function<void(std::size_t)>& fn);

/// Worker budget: engine workers + pump + client (or bank workers + caller)
/// stay within the machine's hardware threads.
int hardware_threads();

}  // namespace perfbench
