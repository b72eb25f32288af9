// perfbench -- the seeded scene generator shared by every workload.
//
// A seed draws everything the program under test sees: the wideband feed
// (tones at channel frequencies plus white noise, quantised to the paper's
// 12-bit AD converter) and the channel NCO frequencies.  The same seed gives
// the same scene, sample for sample; the program only ever receives the
// generated samples and ChainPlans.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/pipeline.hpp"

namespace perfbench {

/// The paper's AD-converter rate and width (Figure 1).
inline constexpr double kAdcRateHz = 64.512e6;
inline constexpr int kAdcBits = 12;
/// Feed samples per engine block (the StreamEngine default).  Captures are
/// whole multiples of it, so a looped capture never produces a short block.
inline constexpr std::size_t kBlockSamples = 4096;

/// DRM-style Figure 1 chain: CIC2 /16, CIC5 /21, 125-tap polyphase FIR /8
/// (total 2688, 24 kS/s out) on the wide 16-bit datapath.
twiddc::core::ChainPlan drm_plan(double nco_hz);
/// The burst plan of examples/reconfigurable_scenario.cpp: CIC2 /12, CIC5 /14,
/// 97-tap FIR /8 (total 1344, 48 kS/s out).
twiddc::core::ChainPlan burst_plan(double nco_hz);

struct Scene {
  std::vector<double> channel_hz;      ///< one NCO frequency per channel
  std::vector<std::int64_t> capture;   ///< 12-bit feed, capture_blocks * kBlockSamples
};

/// Draws `channels` NCO frequencies on a 1 kHz grid inside the converter's
/// first Nyquist zone, then a capture of `capture_blocks` engine blocks: one
/// tone (random amplitude and phase, offset up to +-6 kHz so it lands in the
/// 24 kHz channel) for each of the first min(channels, 16) channels, plus
/// white noise, scaled to 90 % of full scale and quantised.  `rng` is left
/// positioned after the scene, so callers draw schedules from it next.
Scene make_scene(twiddc::Rng& rng, std::size_t channels, std::size_t capture_blocks);

/// One NCO frequency draw from the same distribution make_scene uses.
double draw_channel_hz(twiddc::Rng& rng);

}  // namespace perfbench
