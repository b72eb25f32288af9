// Reproduces Table 3: "Division of the DDC code for an ARM" -- the
// per-filter-part cycle split from simulating the DDC program on the
// ARM9-like core, plus the section 4 headline numbers (required clock,
// 0.25 mW/MHz energy).  A host column sets the same split measured on this
// machine beside it: the staged kernels' ns per input sample for NCO+mixer,
// CIC2, CIC5 and FIR (the probes behind perfbench's dsp.* metrics), and the
// fused int32 front end that replaces the first two.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/common/simd.hpp"
#include "src/core/datapath_spec.hpp"
#include "src/core/plan_compiler.hpp"
#include "src/dsp/cic.hpp"
#include "src/dsp/fir.hpp"
#include "src/dsp/mixer.hpp"
#include "src/dsp/nco.hpp"
#include "src/dsp/signal.hpp"
#include "src/gpp/ddc_program.hpp"
#include "src/gpp/disasm.hpp"

namespace {
using namespace twiddc;

const std::map<std::string, double> kPaperShares = {
    {"NCO", 50.0},          {"CIC2-integrating", 40.0}, {"CIC2-cascading", 3.2},
    {"CIC5-integrating", 4.4}, {"CIC5-cascading", 0.5},  {"FIR125-poly-phase", 0.5},
    {"FIR125-summation", 1.6}};

/// Host ns per input sample of each part of the Figure 1 chain (wide16
/// datapath), median of 7 passes over one block.  The staged parts run the
/// DdcPipeline's kernels one after another on full buffers; "fused" runs
/// FusedChainExec on the chain cut after CIC2, i.e. NCO, mixer and CIC2 in
/// one int32 pass (the generic tile path where the build lacks AVX2).
struct HostProfile {
  double nco_mixer = 0.0, cic2 = 0.0, cic5 = 0.0, fir = 0.0, fused_front = 0.0;
};

HostProfile host_profile(const core::DdcConfig& cfg) {
  const core::ChainPlan plan = core::ChainPlan::figure1(cfg, core::DatapathSpec::wide16());
  const std::size_t n = 2688 * 16;
  const auto x =
      dsp::quantize_signal(dsp::make_tone(10.0025e6, cfg.input_rate_hz, n, 0.7), 12);
  const auto time_ns = [n](const std::function<void()>& body) {
    std::vector<double> t;
    for (int rep = 0; rep < 7; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      body();
      t.push_back(std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() -
                                                            t0)
                      .count());
    }
    std::sort(t.begin(), t.end());
    return t[3] / static_cast<double>(n);
  };
  const auto condition = [](std::vector<std::int64_t>& v, const core::StageSpec& st) {
    for (auto& e : v)
      e = fixed::narrow(fixed::shift_right(e, st.post_shift, st.rounding), st.narrow_bits,
                        fixed::Overflow::kSaturate);
  };
  const auto cic_of = [](const core::StageSpec& st) {
    dsp::CicDecimator::Config c;
    c.stages = st.cic_stages;
    c.decimation = st.decimation;
    c.input_bits = st.input_bits;
    return dsp::CicDecimator(c);
  };

  HostProfile h;
  const core::FrontEndSpec& fe = plan.front_end;
  dsp::Nco::Config nc;
  nc.freq_hz = fe.nco_freq_hz;
  nc.sample_rate_hz = plan.input_rate_hz;
  nc.amplitude_bits = fe.nco_amplitude_bits;
  nc.table_bits = fe.nco_table_bits;
  dsp::ComplexMixer::Config mc;
  mc.input_bits = fe.input_bits;
  mc.nco_amplitude_bits = fe.nco_amplitude_bits;
  mc.output_bits = fe.mixer_out_bits;
  mc.rounding = fe.mixer_rounding;
  const dsp::ComplexMixer mixer(mc);
  std::vector<std::int32_t> cs(n), sn(n);
  std::vector<std::int64_t> rail[2] = {std::vector<std::int64_t>(n),
                                       std::vector<std::int64_t>(n)};
  h.nco_mixer = time_ns([&] {
    dsp::Nco nco(nc);
    nco.next_block(cs, sn);
    mixer.mix_block(x, cs, sn, rail[0], rail[1]);
  });
  std::vector<std::int64_t> out[2];
  const auto stage = [&](const std::function<void(int)>& run_rail) {
    return time_ns([&] {
      for (int r = 0; r < 2; ++r) {
        out[r].clear();
        run_rail(r);
      }
    });
  };
  h.cic2 = stage([&](int r) { cic_of(plan.stages[0]).process_block(rail[r], out[r]); });
  for (int r = 0; r < 2; ++r) condition(rail[r] = out[r], plan.stages[0]);
  h.cic5 = stage([&](int r) { cic_of(plan.stages[1]).process_block(rail[r], out[r]); });
  for (int r = 0; r < 2; ++r) condition(rail[r] = out[r], plan.stages[1]);
  h.fir = stage([&](int r) {
    dsp::PolyphaseFirDecimator<std::int64_t>(plan.stages[2].taps, plan.stages[2].decimation)
        .process_block(rail[r], out[r]);
  });

  core::ChainPlan front = plan;
  front.stages.resize(1);
  core::FusedChainExec exec(core::CompiledPlanCache::instance().get_or_compile(front));
  std::vector<core::IqSample> iq;
  h.fused_front = time_ns([&] {
    exec.reset();
    iq.clear();
    exec.process_block(x, iq);
  });
  return h;
}

void report() {
  benchutil::heading("Table 3 -- Division of the DDC code for an ARM");

  const auto cfg = core::DdcConfig::reference(10.0e6);
  gpp::DdcProgram prog(cfg);
  const std::size_t n = 2688 * 50;
  const auto in =
      dsp::quantize_signal(dsp::make_tone(10.0025e6, cfg.input_rate_hz, n, 0.7), 12);
  const auto result = prog.run(in);

  TextTable t;
  t.header({"Part of filter", "Clock speed", "% of cycles (ours)", "% (paper)"});
  auto rate_of = [&](const std::string& name) -> std::string {
    if (name == "NCO" || name == "CIC2-integrating" || name == "loop-control")
      return "64.512 MHz";
    if (name == "CIC2-cascading" || name == "CIC5-integrating") return "4.032 MHz";
    if (name == "CIC5-cascading" || name == "FIR125-poly-phase") return "192 kHz";
    if (name == "FIR125-summation") return "24 kHz";
    return "-";
  };
  for (const auto& r : result.stats.regions) {
    if (r.name == "init") continue;
    const auto paper = kPaperShares.find(r.name);
    t.row({r.name, rate_of(r.name), TextTable::pct(100.0 * r.cycle_share, 2),
           paper != kPaperShares.end()
               ? (paper->second == 0.5 ? "< 0.5 %" : TextTable::pct(paper->second, 1))
               : "(folded into parts)"});
  }
  benchutil::print_table(t);

  // The same split grouped into the chain's four parts, beside the host.
  const auto model_share = [&](std::initializer_list<const char*> names) {
    double share = 0.0;
    for (const auto& r : result.stats.regions)
      for (const char* name : names)
        if (r.name == name) share += r.cycle_share;
    return 100.0 * share;
  };
  const HostProfile h = host_profile(cfg);
  const double host_sum = h.nco_mixer + h.cic2 + h.cic5 + h.fir;
  const struct {
    const char* part;
    double paper;
    double model;
    double host_ns;
  } parts[] = {
      {"NCO + mixer", 50.0, model_share({"NCO"}), h.nco_mixer},
      {"CIC2", 43.2, model_share({"CIC2-integrating", "CIC2-cascading"}), h.cic2},
      {"CIC5", 4.9, model_share({"CIC5-integrating", "CIC5-cascading"}), h.cic5},
      {"FIR", 2.1, model_share({"FIR125-poly-phase", "FIR125-summation"}), h.fir},
  };
  TextTable ht;
  ht.header({"Part", "% (paper)", "% (ARM model)", "host ns/sample", "% (host)"});
  for (const auto& p : parts)
    ht.row({p.part, TextTable::pct(p.paper, 1), TextTable::pct(p.model, 1),
            TextTable::num(p.host_ns, 3), TextTable::pct(100.0 * p.host_ns / host_sum, 1)});
  benchutil::note(std::string("\nhost column (staged kernels, simd path ") +
                  simd::active_path() + "):");
  benchutil::print_table(ht);
  benchutil::note("  fused front end (NCO + mixer + CIC2 in one pass): " +
                  TextTable::num(h.fused_front, 3) + " ns/sample, vs " +
                  TextTable::num(h.nco_mixer + h.cic2, 3) + " staged");

  benchutil::note("\nsection 4 headline numbers (in-phase doubled for I+Q, as the paper does):");
  benchutil::note("  cycles per input sample (I rail): " +
                  TextTable::num(result.cycles_per_input(n), 2));
  benchutil::note("  required clock: " +
                  TextTable::num(result.required_clock_mhz(n, cfg.input_rate_hz), 0) +
                  " MHz (paper derives 9740 MHz from its compiler output;"
                  " Table 7 prints 6697 MHz)");
  benchutil::note("  power at 0.25 mW/MHz: " +
                  TextTable::num(result.power_mw(n, cfg.input_rate_hz) / 1000.0, 3) +
                  " W (paper: 2.435 W)");
  benchutil::note("  conclusion preserved: one ARM9 cannot run the DDC in real time");
  benchutil::note("  CPI " + TextTable::num(result.stats.cpi(), 2) + ", I-cache hit " +
                  TextTable::pct(100.0 * result.stats.icache_hit_rate, 2) +
                  ", D-cache hit " + TextTable::pct(100.0 * result.stats.dcache_hit_rate, 2));

  // The §4.2.2 DSP-core note, reproduced.
  const auto dsp_core = prog.run(in, gpp::CycleModel::arm9e());
  const double speedup = static_cast<double>(result.stats.cycles) /
                         static_cast<double>(dsp_core.stats.cycles);
  benchutil::note("\nARM9E DSP-extension core (section 4.2.2, note 3):");
  benchutil::note("  speedup " + TextTable::num(speedup, 3) +
                  "x ('did not show a major speed improvement'), power " +
                  TextTable::num(gpp::DdcProgram::kMilliwattPerMhzArm9e *
                                     2.0 * dsp_core.cycles_per_input(n) * 64.512 / 1000.0,
                                 3) +
                  " W ('even higher power consumption')");

  // The first lines of the kernel listing (the view the paper's profiler
  // attributed cycles over).
  benchutil::note("\nkernel listing (head):");
  const std::string listing = gpp::disassemble(prog.program());
  std::size_t pos = 0;
  for (int line = 0; line < 24 && pos != std::string::npos; ++line) {
    const std::size_t nl = listing.find('\n', pos);
    benchutil::note("  " + listing.substr(pos, nl - pos));
    pos = nl == std::string::npos ? nl : nl + 1;
  }
}

void BM_ArmSimulator(benchmark::State& state) {
  const auto cfg = core::DdcConfig::reference(10.0e6);
  gpp::DdcProgram prog(cfg);
  const auto in =
      dsp::quantize_signal(dsp::make_tone(10.0025e6, cfg.input_rate_hz, 2688 * 4, 0.7), 12);
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    const auto result = prog.run(in);
    instructions += result.stats.instructions;
    benchmark::DoNotOptimize(result.outputs);
  }
  state.counters["sim_instr/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ArmSimulator);

}  // namespace

int main(int argc, char** argv) { return twiddc::benchutil::run(argc, argv, &report); }
