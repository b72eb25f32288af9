// perfbench -- single-layer timings of one channel's chain, from standalone
// dsp kernels up to the native backend, all on the workload's own feed.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/pipeline.hpp"

namespace perfbench {

/// Nanoseconds per chain input sample, each layer timed on its real input
/// (the previous stage's conditioned output), median over `reps` passes
/// over the capture in `block`-sample calls.
struct LayerTimes {
  double nco_mixer_ns = 0.0;  ///< dsp::Nco::next_block + ComplexMixer::mix_block
  double cic2_ns = 0.0;       ///< stage 0 CicDecimator, I and Q rails
  double cic5_ns = 0.0;       ///< stage 1 CicDecimator, I and Q rails
  double fir_ns = 0.0;        ///< stage 2 (Polyphase)FirDecimator, I and Q rails
  double chain_ns = 0.0;      ///< staged core::DdcPipeline::process_block
  double native_ns = 0.0;     ///< native-pipeline backend process_block
  /// The standalone kernels, conditioned like the pipeline's stages,
  /// reproduced the staged chain's output bit for bit.
  bool stages_match = false;

  [[nodiscard]] double stage_sum_ns() const {
    return nco_mixer_ns + cic2_ns + cic5_ns + fir_ns;
  }
};

/// `plan` must be a three-stage CIC -> CIC -> FIR chain (Figure 1 family).
LayerTimes probe_layers(const twiddc::core::ChainPlan& plan,
                        const std::vector<std::int64_t>& capture, std::size_t block,
                        int reps);

}  // namespace perfbench
