// twiddc::core -- multi-channel batch engine over the fused executor.
//
// A ChannelBank owns N independent channels (GC4016-style: same antenna
// feed, per-channel NCO/decimation/topology), each a core::FusedChainExec
// over a plan resolved through the process-wide CompiledPlanCache, and
// processes them all against ONE shared input block.  Outputs stay planar
// (one vector per channel), so a channel's stream is contiguous and the
// block pass touches the shared input once per channel while it is hot in
// cache.
//
// Cross-channel packing: channels with equal structural keys (same stage
// kinds, geometry and tap counts) are grouped eight at a time when the
// AVX-512 tier is up, then four, and each group runs as one lane group of
// FusedChainExec::process_lanes -- every CIC stage's integrator cascades and
// every shared-tap FIR stage's dots run one channel per register lane.  A
// lane that falls out of phase (a kFlush mid-stream) or a tier that is off
// makes that stage run per lane, bit-exact either way.  set_packing(false)
// makes every channel its own one-lane unit (the monolithic baseline the
// packed-FIR bench compares against).
//
// Execution: every thread that works on a block claims the next lane group
// from a shared index and runs that group's cache tiles inline, in order
// (channels are sequential state machines), until no group is left.  With
// workers > 1 the calling thread drains beside min(workers, units) - 1
// drain tasks on a persistent common::TaskScheduler (workers - 1 threads)
// and joins them through a Group; with workers == 1 it drains alone.  Units
// touch disjoint channels, so any claim order is bit-exact with serial
// execution.  Parallelism is across lane groups only: a bank whose
// channels pack into one group runs on one thread whatever `workers` says.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/common/task_scheduler.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/plan_compiler.hpp"

namespace twiddc::core {

class ChannelBank {
 public:
  /// Builds one executor per plan.  Throws ConfigError if any plan is
  /// invalid or the list is empty.  `workers` (clamped to [1, channels]) is
  /// the thread count process_block uses, fixed for the bank's lifetime.
  explicit ChannelBank(const std::vector<ChainPlan>& plans, int workers = 1);
  ~ChannelBank();
  ChannelBank(ChannelBank&&) noexcept;
  ChannelBank& operator=(ChannelBank&&) noexcept;
  ChannelBank(const ChannelBank&) = delete;
  ChannelBank& operator=(const ChannelBank&) = delete;

  [[nodiscard]] std::size_t size() const { return channels_.size(); }
  /// Channel i's executor; retune it through swap_plan between blocks.
  [[nodiscard]] FusedChainExec& channel(std::size_t i) { return channels_.at(i); }
  [[nodiscard]] const FusedChainExec& channel(std::size_t i) const {
    return channels_.at(i);
  }

  [[nodiscard]] int workers() const { return workers_; }

  /// The bank's task scheduler (null in serial mode) -- exposed so tests
  /// and benches can count the drain tasks it ran.
  [[nodiscard]] const common::TaskScheduler* scheduler() const {
    return sched_.get();
  }

  /// Block hot path: runs every channel over the shared input span.  `out`
  /// is resized to size(); channel i's outputs are *appended* to out[i], so
  /// a caller can stream blocks into persistent planar buffers.  Bit-exact
  /// with calling each channel's process_block serially.
  void process_block(std::span<const std::int64_t> in,
                     std::vector<std::vector<IqSample>>& out);

  /// Convenience wrapper: fresh planar buffers per call.
  std::vector<std::vector<IqSample>> process(const std::vector<std::int64_t>& in);

  void reset();

  /// Disables cross-channel packing (every unit becomes a single channel);
  /// benches and tests use it to compare packed vs monolithic execution on
  /// one bank.  Bit-exact either way.
  void set_packing(bool on) { packing_ = on; }
  [[nodiscard]] bool packing() const { return packing_; }

 private:
  /// One execution unit of a block pass: a lane group of 1, 4 or 8
  /// channels that advances through process_lanes together.
  struct Unit {
    std::size_t ch[FusedChainExec::kMaxLanes] = {};
    int lanes = 1;
  };

  /// Partitions the channels into lane groups by structural key (octets
  /// only when the runtime AVX-512 tier is up, then quads, then singles).
  [[nodiscard]] std::vector<Unit> make_units() const;
  /// Advances `unit` through `in`, one cache tile after another.
  void run_unit(const Unit& unit, std::span<const std::int64_t> in,
                std::vector<std::vector<IqSample>>& out);

  std::vector<FusedChainExec> channels_;
  int workers_ = 1;
  bool packing_ = true;
  std::unique_ptr<common::TaskScheduler> sched_;  // workers_ - 1 threads
};

}  // namespace twiddc::core
