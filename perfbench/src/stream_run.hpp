// perfbench -- one StreamEngine lifetime driven by a single client thread:
// open the sessions, stream a feed (paced or unpaced), apply a timed
// control schedule, drain everything to per-incarnation tapes, and account
// time, CPU and engine counters over a measurement window.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/harness.hpp"
#include "perfbench/src/scene.hpp"
#include "src/core/pipeline.hpp"

namespace perfbench {

enum class ControlKind {
  kSplice,  ///< Session::retune(plan, kSplice): an NCO hop, same geometry
  kFlush,   ///< Session::retune(plan, kFlush): a geometry swap
  kReopen,  ///< Session::close() then StreamEngine::open(plan)
};

struct ControlEvent {
  double at_s = 0.0;  ///< seconds after start()
  ControlKind kind = ControlKind::kSplice;
  std::size_t slot = 0;  ///< which client slot (session) it targets
  twiddc::core::ChainPlan plan;
};

/// The window is split into sub-windows of about this length for rate
/// statistics (at least four).
inline constexpr double kSubwindowS = 0.5;

struct StreamSpec {
  std::shared_ptr<const std::vector<std::int64_t>> capture;
  std::vector<twiddc::core::ChainPlan> initial;  ///< one session per slot
  std::vector<ControlEvent> schedule;            ///< sorted by at_s
  double rate_hz = 0.0;   ///< feed pacing; 0 = as fast as the engine takes it
  std::size_t block_samples = kBlockSamples;  ///< feed samples per engine block
  int workers = 1;
  double warmup_s = 0.0;  ///< streamed before the window opens
  double window_s = 1.0;  ///< the measured window
  bool traced = false;    ///< sessions on the timed backend decorator
};

/// What one run produced.  Times are steady_clock ns; per-chunk vectors
/// cover chunks polled inside the window only.
struct StreamOutcome {
  double setup_s = 0.0;  ///< engine construction + every initial open()
  double window_s = 0.0;
  double cpu_s = 0.0;              ///< process CPU inside the window
  std::int64_t ctx_switches = 0;   ///< inside the window
  double steal_share = 0.0;        ///< host CPU stolen by the hypervisor, in window
  double rss_mb = 0.0;             ///< ru_maxrss when the window opened
  std::uint64_t window_chunks = 0;  ///< session-blocks delivered in the window
  std::vector<double> subwindow_msps;        ///< delivered channel-samples/s per sub-window
  std::vector<double> subwindow_latency_ms;  ///< median chunk latency per sub-window
  /// What was measured inside the best quarter of the sub-windows (see
  /// best_quarter): by delivered rate in a closed loop, by median latency
  /// in an open loop.
  double best_msps = 0.0;               ///< median delivered rate over the best sub-windows
  std::vector<double> best_latency_ms;  ///< chunk latencies polled in the best sub-windows
  std::vector<double> best_retune_ms;   ///< retunes issued in the best sub-windows
  std::vector<double> latency_ms;   ///< poll return - due (paced) / read end
  std::vector<double> retune_ms;    ///< Session::retune() call durations
  std::vector<double> open_ms;      ///< StreamEngine::open() call durations
  std::uint64_t control_ops = 0;
  std::uint64_t control_failures = 0;  ///< rejected retunes, failed opens
  double client_wait_s = 0.0;       ///< client blocked in wait_output, in window
  // Engine counters over the window (stats_json deltas).
  double tasks_executed = 0.0, tasks_stolen = 0.0, wakeups = 0.0;
  // Session counters at the end (summed over incarnations still listed).
  std::uint64_t max_queue_depth = 0;
  std::uint64_t lost_blocks = 0;  ///< drops + sheds + faults
  // Plan cache deltas over setup + run.
  double compile_s = 0.0;
  std::uint64_t cache_lookups = 0, cache_hits = 0, cache_misses = 0;
  // Feed and per-incarnation records for the checks and the trace.
  std::shared_ptr<FeedLog> feed;
  DueClock clock;
  std::int64_t window_start_ns = 0, window_end_ns = 0;
  std::vector<Incarnation> incarnations;
  std::vector<std::shared_ptr<BackendLog>> logs;  ///< traced runs: per incarnation
};

/// Engine construction + every initial open() against a cold plan cache,
/// `reps` times; returns each rep's seconds.
std::vector<double> time_setup(const StreamSpec& spec, int reps);

StreamOutcome run_stream(const StreamSpec& spec);

}  // namespace perfbench
