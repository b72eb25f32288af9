// perfbench -- the three seeded workloads.  Each runs in a fresh process and
// returns either the end-to-end metric set (trace off) or the per-layer set
// (trace on), plus the record-line extras and the correctness ledger.
#pragma once

#include <cstdint>
#include <string>

#include "perfbench/src/bench.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome-trace JSON of the traced run's spans ("" = none)
};

/// Closed-loop batch channelization: one capture into 64 Figure 1 channels
/// by core::ChannelBank, no stream layer.
Result run_bank64(const RunConfig& rc);
/// Open loop at the paper's ADC rate: a paced source feeding a few
/// native-pipeline sessions of two geometries, with a control schedule.
Result run_adc_realtime(const RunConfig& rc);
/// Closed loop: an unpaced feed fanned out to 256 sessions of one geometry.
Result run_fanout256(const RunConfig& rc);

}  // namespace perfbench
