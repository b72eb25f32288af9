#include "perfbench/src/scene.hpp"

#include <algorithm>
#include <cmath>

#include "src/core/datapath_spec.hpp"
#include "src/core/ddc_config.hpp"
#include "src/dsp/signal.hpp"

namespace perfbench {

using twiddc::core::ChainPlan;
using twiddc::core::DatapathSpec;
using twiddc::core::DdcConfig;

ChainPlan drm_plan(double nco_hz) {
  return ChainPlan::figure1(DdcConfig::reference(nco_hz), DatapathSpec::wide16());
}

ChainPlan burst_plan(double nco_hz) {
  DdcConfig cfg = DdcConfig::reference(nco_hz);
  cfg.cic2_decimation = 12;
  cfg.cic5_decimation = 14;
  cfg.fir_taps = 97;
  return ChainPlan::figure1(cfg, DatapathSpec::wide16());
}

double draw_channel_hz(twiddc::Rng& rng) {
  // 0.5 .. 31.5 MHz on a 1 kHz grid: inside the first Nyquist zone with
  // margin for the channel bandwidth.
  return 1e3 * static_cast<double>(rng.uniform_int(500, 31500));
}

Scene make_scene(twiddc::Rng& rng, std::size_t channels, std::size_t capture_blocks) {
  Scene scene;
  scene.channel_hz.reserve(channels);
  for (std::size_t c = 0; c < channels; ++c) scene.channel_hz.push_back(draw_channel_hz(rng));

  const std::size_t n = capture_blocks * kBlockSamples;
  std::vector<double> x(n, 0.0);
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  const std::size_t tones = std::min<std::size_t>(channels, 16);
  for (std::size_t t = 0; t < tones; ++t) {
    const double f = scene.channel_hz[t] + rng.uniform(-6e3, 6e3);
    const double amp = rng.uniform(0.2, 1.0);
    const double phase = rng.uniform(0.0, kTwoPi);
    // Phase-recursive rotation: one complex multiply per sample instead of a
    // sin() call, renormalised every block to stop amplitude drift.
    const double w = kTwoPi * f / kAdcRateHz;
    const double cw = std::cos(w), sw = std::sin(w);
    double re = std::cos(phase), im = std::sin(phase);
    for (std::size_t k = 0; k < n; ++k) {
      x[k] += amp * im;
      const double nre = re * cw - im * sw;
      im = re * sw + im * cw;
      re = nre;
      if ((k & 4095) == 4095) {
        const double norm = 1.0 / std::sqrt(re * re + im * im);
        re *= norm;
        im *= norm;
      }
    }
  }
  for (double& v : x) v += 0.05 * rng.gaussian();
  double peak = 0.0;
  for (const double v : x) peak = std::max(peak, std::abs(v));
  const double scale = peak > 0.0 ? 0.9 / peak : 1.0;
  for (double& v : x) v *= scale;
  scene.capture = twiddc::dsp::quantize_signal(x, kAdcBits);
  return scene;
}

}  // namespace perfbench
