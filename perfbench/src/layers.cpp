#include "perfbench/src/layers.hpp"

#include <algorithm>
#include <functional>

#include "perfbench/src/bench.hpp"
#include "src/backends/builtin.hpp"
#include "src/common/error.hpp"
#include "src/core/backend.hpp"
#include "src/dsp/cic.hpp"
#include "src/dsp/fir.hpp"
#include "src/dsp/mixer.hpp"
#include "src/dsp/nco.hpp"
#include "src/fixed/qformat.hpp"

namespace perfbench {

using twiddc::core::ChainPlan;
using twiddc::core::IqSample;
using twiddc::core::StageSpec;
namespace dsp = twiddc::dsp;
namespace fixed = twiddc::fixed;

namespace {

/// A stage's output conditioning, as core::DdcPipeline applies it.
std::vector<std::int64_t> condition(const std::vector<std::int64_t>& raw, const StageSpec& s) {
  std::vector<std::int64_t> out(raw.size());
  for (std::size_t k = 0; k < raw.size(); ++k) {
    const std::int64_t v = fixed::shift_right(raw[k], s.post_shift, s.rounding);
    out[k] = s.narrow_bits == 0 ? v : fixed::narrow(v, s.narrow_bits, fixed::Overflow::kSaturate);
  }
  return out;
}

dsp::CicDecimator make_cic(const StageSpec& s) {
  dsp::CicDecimator::Config c;
  c.stages = s.cic_stages;
  c.decimation = s.decimation;
  c.diff_delay = s.diff_delay;
  c.input_bits = s.input_bits;
  c.register_bits = s.register_bits;
  c.prune_shifts = s.prune_shifts;
  return dsp::CicDecimator(c);
}

/// Runs one decimating kernel per rail over `in` in `chunk`-sample calls and
/// returns the elapsed seconds; raw outputs land in `raw`.
template <typename Kernel>
double time_rails(std::vector<Kernel>& rails, const std::vector<std::int64_t> (&in)[2],
                  std::size_t chunk, std::vector<std::int64_t> (&raw)[2]) {
  for (auto& r : raw) {
    r.clear();
    r.reserve(in[0].size());
  }
  const std::int64_t t0 = now_ns();
  for (int r = 0; r < 2; ++r) {
    const std::span<const std::int64_t> x(in[r]);
    for (std::size_t off = 0; off < x.size(); off += chunk)
      rails[static_cast<std::size_t>(r)].process_block(
          x.subspan(off, std::min(chunk, x.size() - off)), raw[r]);
  }
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

template <typename Fir>
double time_fir(const StageSpec& s, const std::vector<std::int64_t> (&in)[2],
                std::size_t chunk, std::vector<std::int64_t> (&raw)[2]) {
  std::vector<Fir> rails;
  for (int r = 0; r < 2; ++r) rails.emplace_back(s.taps, s.decimation);
  return time_rails(rails, in, chunk, raw);
}

}  // namespace

LayerTimes probe_layers(const ChainPlan& plan, const std::vector<std::int64_t>& capture,
                        std::size_t block, int reps) {
  if (plan.stages.size() != 3 || plan.stages[0].kind != StageSpec::Kind::kCic ||
      plan.stages[1].kind != StageSpec::Kind::kCic)
    throw twiddc::ConfigError("probe_layers: needs a CIC -> CIC -> FIR plan");
  const std::size_t n = capture.size();
  const std::span<const std::int64_t> x(capture);
  const double per_sample = 1e9 / static_cast<double>(n);
  // Each stage sees the per-call input the staged chain gives it.
  const auto chunk_of = [&](std::size_t stage) {
    std::size_t d = 1;
    for (std::size_t s = 0; s < stage; ++s)
      d *= static_cast<std::size_t>(plan.stages[s].decimation);
    return std::max<std::size_t>(1, block / d);
  };

  std::vector<double> t_mix, t_cic2, t_cic5, t_fir, t_chain, t_native;
  LayerTimes lt;
  auto native = twiddc::core::BackendRegistry::instance().create(twiddc::backends::kNative);
  for (int rep = 0; rep < reps; ++rep) {
    // NCO + mixer over the capture, writing the full-rate rails.
    dsp::Nco::Config nc;
    nc.freq_hz = plan.front_end.nco_freq_hz;
    nc.sample_rate_hz = plan.input_rate_hz;
    nc.amplitude_bits = plan.front_end.nco_amplitude_bits;
    nc.table_bits = plan.front_end.nco_table_bits;
    nc.mode = plan.front_end.nco_mode;
    dsp::Nco nco(nc);
    dsp::ComplexMixer::Config mc;
    mc.input_bits = plan.front_end.input_bits;
    mc.nco_amplitude_bits = plan.front_end.nco_amplitude_bits;
    mc.output_bits = plan.front_end.mixer_out_bits;
    mc.rounding = plan.front_end.mixer_rounding;
    const dsp::ComplexMixer mixer(mc);
    std::vector<std::int32_t> cs(block), sn(block);
    std::vector<std::int64_t> mix[2] = {std::vector<std::int64_t>(n), std::vector<std::int64_t>(n)};
    std::int64_t t0 = now_ns();
    for (std::size_t off = 0; off < n; off += block) {
      const std::size_t len = std::min(block, n - off);
      const std::span<std::int32_t> c(cs.data(), len), s(sn.data(), len);
      nco.next_block(c, s);
      mixer.mix_block(x.subspan(off, len), c, s,
                      std::span<std::int64_t>(mix[0].data() + off, len),
                      std::span<std::int64_t>(mix[1].data() + off, len));
    }
    t_mix.push_back(static_cast<double>(now_ns() - t0) * 1e-9);

    std::vector<std::int64_t> raw[2], cur[2];
    std::vector<dsp::CicDecimator> cic2{make_cic(plan.stages[0]), make_cic(plan.stages[0])};
    t_cic2.push_back(time_rails(cic2, mix, chunk_of(0), raw));
    for (int r = 0; r < 2; ++r) cur[r] = condition(raw[r], plan.stages[0]);

    std::vector<dsp::CicDecimator> cic5{make_cic(plan.stages[1]), make_cic(plan.stages[1])};
    t_cic5.push_back(time_rails(cic5, cur, chunk_of(1), raw));
    for (int r = 0; r < 2; ++r) cur[r] = condition(raw[r], plan.stages[1]);

    const StageSpec& fir = plan.stages[2];
    if (fir.kind == StageSpec::Kind::kPolyphaseFir)
      t_fir.push_back(time_fir<dsp::PolyphaseFirDecimator<std::int64_t>>(fir, cur, chunk_of(2), raw));
    else if (fir.kind == StageSpec::Kind::kFirDecimator)
      t_fir.push_back(time_fir<dsp::FirDecimator<std::int64_t>>(fir, cur, chunk_of(2), raw));
    else
      throw twiddc::ConfigError("probe_layers: stage 2 is not a FIR");
    for (int r = 0; r < 2; ++r) cur[r] = condition(raw[r], fir);

    // The staged chain and the native backend over the same blocks.
    twiddc::core::DdcPipeline pipe(plan);
    std::vector<IqSample> chain_out, native_out;
    chain_out.reserve(n / 512 + 16);
    native_out.reserve(n / 512 + 16);
    t0 = now_ns();
    for (std::size_t off = 0; off < n; off += block)
      pipe.process_block(x.subspan(off, std::min(block, n - off)), chain_out);
    t_chain.push_back(static_cast<double>(now_ns() - t0) * 1e-9);

    native->configure(plan);
    t0 = now_ns();
    for (std::size_t off = 0; off < n; off += block)
      native->process_block(x.subspan(off, std::min(block, n - off)), native_out);
    t_native.push_back(static_cast<double>(now_ns() - t0) * 1e-9);

    if (rep == 0) {
      bool match = chain_out.size() == cur[0].size() && native_out == chain_out;
      for (std::size_t k = 0; match && k < chain_out.size(); ++k)
        match = chain_out[k].i == cur[0][k] && chain_out[k].q == cur[1][k];
      lt.stages_match = match;
    }
  }
  lt.nco_mixer_ns = median(t_mix) * per_sample;
  lt.cic2_ns = median(t_cic2) * per_sample;
  lt.cic5_ns = median(t_cic5) * per_sample;
  lt.fir_ns = median(t_fir) * per_sample;
  lt.chain_ns = median(t_chain) * per_sample;
  lt.native_ns = median(t_native) * per_sample;
  return lt;
}

}  // namespace perfbench
