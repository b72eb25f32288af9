#include "perfbench/src/bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "src/common/simd.hpp"
#include "src/common/topology.hpp"

#ifndef PERFBENCH_MARCH
#define PERFBENCH_MARCH ""
#endif

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(p, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  u.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  if (std::FILE* f = std::fopen("/proc/stat", "r")) {
    long long v[8] = {};  // user nice system idle iowait irq softirq steal
    if (std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &v[0], &v[1], &v[2],
                    &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      for (const long long x : v) u.host_ticks += x;
      u.host_steal_ticks = v[7];
    }
    std::fclose(f);
  }
  return u;
}

std::vector<std::size_t> best_quarter(const std::vector<double>& score) {
  std::vector<std::size_t> idx(score.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::size_t a, std::size_t b) { return score[a] > score[b]; });
  idx.resize(std::min(idx.size(), std::max<std::size_t>(1, score.size() / 4)));
  std::sort(idx.begin(), idx.end());
  return idx;
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void parallel_for(std::size_t jobs, int threads, const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t j = next.fetch_add(1); j < jobs; j = next.fetch_add(1)) fn(j);
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < std::min<int>(threads, static_cast<int>(jobs)); ++t) pool.emplace_back(worker);
  worker();
  for (auto& t : pool) t.join();
}

int hardware_threads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

void add_host_facts(Result& r) {
  r.fact("simd_path", twiddc::simd::active_path());
  r.fact("march", PERFBENCH_MARCH[0] ? PERFBENCH_MARCH : "toolchain-default");
  r.fact("nproc", std::to_string(hardware_threads()));
  r.fact("numa_nodes", std::to_string(twiddc::common::topology::probe().node_count()));
}

}  // namespace perfbench
