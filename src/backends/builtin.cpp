#include "src/backends/builtin.hpp"

#include <cmath>
#include <complex>
#include <optional>
#include <utility>

#include "src/asic/gc4016.hpp"
#include "src/common/rng.hpp"
#include "src/core/fixed_ddc.hpp"
#include "src/core/plan_compiler.hpp"
#include "src/dsp/nco.hpp"
#include "src/dsp/signal.hpp"
#include "src/fpga/ddc_fpga.hpp"
#include "src/gpp/ddc_program.hpp"
#include "src/montium/ddc_mapping.hpp"

namespace twiddc::backends {
namespace {

using core::ArchitectureBackend;
using core::BackendCapabilities;
using core::BackendPowerProfile;
using core::ChainPlan;
using core::DatapathSpec;
using core::DdcConfig;
using core::IqSample;
using core::LoweringError;
using core::SwapMode;

/// Shared name/plan plumbing for the concrete backends.
class BackendBase : public ArchitectureBackend {
 public:
  explicit BackendBase(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const override { return name_; }
  [[nodiscard]] const ChainPlan& plan() const override {
    require_configured();
    return plan_;
  }
  [[nodiscard]] double output_scale() const override {
    require_configured();
    return core::plan_output_scale(plan_);
  }

 protected:
  std::string name_;
  ChainPlan plan_;
};

// ----------------------------------------------------------- native-pipeline

/// Executes through the plan compiler: configure() resolves the plan in the
/// process-wide CompiledPlanCache (N sessions on one config share a single
/// CompiledPlan) and runs it with the fused tile executor, which is bit-exact
/// with the staged DdcPipeline (pinned by the conformance harness).
class NativeBackend final : public BackendBase {
 public:
  NativeBackend() : BackendBase(kNative) {}

  [[nodiscard]] BackendCapabilities capabilities() const override {
    BackendCapabilities c;
    c.bit_exact = true;
    c.arbitrary_topology = true;
    c.supports_splice = true;
    return c;
  }
  [[nodiscard]] DatapathSpec datapath() const override {
    return DatapathSpec::wide16();
  }
  void configure(const ChainPlan& plan) override {
    try {
      auto compiled = core::CompiledPlanCache::instance().get_or_compile(plan);
      exec_.emplace(std::move(compiled));
    } catch (const LoweringError&) {
      throw;
    } catch (const ConfigError& e) {
      throw LoweringError(name_, e.what());
    }
    plan_ = plan;
  }
  [[nodiscard]] bool is_configured() const override { return exec_.has_value(); }
  void process_block(std::span<const std::int64_t> in,
                     std::vector<IqSample>& out) override {
    require_configured();
    exec_->process_block(in, out);
  }
  void reset() override {
    require_configured();
    exec_->reset();
  }
  void swap_plan(const ChainPlan& plan, SwapMode mode) override {
    require_configured();
    try {
      exec_->swap_plan(plan, mode);  // a rejected swap leaves the old plan running
    } catch (const LoweringError&) {
      throw;
    } catch (const ConfigError& e) {
      // Keep the documented contract: lowering/compatibility failures are
      // typed, and the old plan stays active (swap_plan guarantees that).
      throw LoweringError(name_, e.what());
    }
    plan_ = plan;
  }
  [[nodiscard]] core::FusedChainExec* lane_executor() override {
    return exec_ ? &*exec_ : nullptr;
  }

 private:
  std::optional<core::FusedChainExec> exec_;
};

// ----------------------------------------------------------------- fixed-ddc

class FixedDdcBackend final : public BackendBase {
 public:
  FixedDdcBackend() : BackendBase(kFixedDdc) {}

  [[nodiscard]] BackendCapabilities capabilities() const override {
    BackendCapabilities c;
    c.bit_exact = true;
    c.arbitrary_topology = true;
    c.supports_splice = true;
    return c;
  }
  [[nodiscard]] DatapathSpec datapath() const override {
    return DatapathSpec::wide16();
  }
  void configure(const ChainPlan& plan) override {
    try {
      // Resolve through the shared cache first: validates the plan once and
      // dedups its coefficient/LUT storage even though the staged FixedDdc
      // keeps its own executor.
      core::CompiledPlanCache::instance().get_or_compile(plan);
      core::FixedDdc ddc(plan);
      ddc_ = std::move(ddc);
    } catch (const LoweringError&) {
      throw;
    } catch (const ConfigError& e) {
      throw LoweringError(name_, e.what());
    }
    plan_ = plan;
  }
  [[nodiscard]] bool is_configured() const override { return ddc_.has_value(); }
  void process_block(std::span<const std::int64_t> in,
                     std::vector<IqSample>& out) override {
    require_configured();
    ddc_->process_block(in, out);
  }
  void reset() override {
    require_configured();
    ddc_->reset();
  }
  void swap_plan(const ChainPlan& plan, SwapMode mode) override {
    require_configured();
    try {
      ddc_->swap_plan(plan, mode);
    } catch (const LoweringError&) {
      throw;
    } catch (const ConfigError& e) {
      throw LoweringError(name_, e.what());
    }
    plan_ = ddc_->pipeline().plan();
  }

 private:
  std::optional<core::FixedDdc> ddc_;
};

// ----------------------------------------------------------------- float-ddc

/// Double-precision realisation of an arbitrary plan: exact sin/cos front
/// end (at the NCO's quantised tuning frequency), float rails from the same
/// specs, outputs requantised to the plan's output width for comparison.
class FloatDdcBackend final : public BackendBase {
 public:
  FloatDdcBackend() : BackendBase(kFloatDdc) {}

  [[nodiscard]] BackendCapabilities capabilities() const override {
    BackendCapabilities c;
    c.bit_exact = false;
    c.arbitrary_topology = true;
    c.min_snr_db = 35.0;  // 12-bit rails; wider plans do much better
    return c;
  }
  [[nodiscard]] DatapathSpec datapath() const override {
    return DatapathSpec::ideal();
  }
  void configure(const ChainPlan& plan) override {
    std::shared_ptr<const core::CompiledPlan> compiled;
    try {
      // The canonical key only covers the fixed datapath, so the float rails
      // must be built from the *original* plan (taps_float/post_scale are
      // not canonical); the cache still provides validation, the quantised
      // tuning word and shared stats.
      compiled = core::CompiledPlanCache::instance().get_or_compile(plan);
      std::vector<core::StageChain<double>> rails;
      rails.push_back(core::make_float_rail(plan));
      rails.push_back(core::make_float_rail(plan));
      rails_ = std::move(rails);
    } catch (const ConfigError& e) {
      throw LoweringError(name_, e.what());
    }
    plan_ = plan;
    phase_ = 0.0;
    phase_step_ = kTwoPi * static_cast<double>(compiled->tuning_word()) * 0x1p-32;
    configured_ = true;
  }
  [[nodiscard]] bool is_configured() const override { return configured_; }
  void process_block(std::span<const std::int64_t> in,
                     std::vector<IqSample>& out) override {
    require_configured();
    const double in_scale =
        std::ldexp(1.0, -(plan_.front_end.input_bits - 1));
    const double out_gain =
        std::ldexp(1.0, core::plan_output_bits(plan_) - 1);
    mix_i_.clear();
    mix_q_.clear();
    mix_i_.reserve(in.size());
    mix_q_.reserve(in.size());
    for (std::int64_t x : in) {
      const double xf = static_cast<double>(x) * in_scale;
      mix_i_.push_back(xf * std::cos(phase_));
      mix_q_.push_back(xf * std::sin(phase_));
      phase_ += phase_step_;
      if (phase_ >= kTwoPi) phase_ -= kTwoPi;
    }
    out_i_.clear();
    out_q_.clear();
    rails_[0].process_block(mix_i_, out_i_);
    rails_[1].process_block(mix_q_, out_q_);
    out.reserve(out.size() + out_i_.size());
    for (std::size_t j = 0; j < out_i_.size(); ++j)
      out.push_back(IqSample{std::llround(out_i_[j] * out_gain),
                             std::llround(out_q_[j] * out_gain)});
  }
  void reset() override {
    require_configured();
    for (auto& r : rails_) r.reset();
    phase_ = 0.0;
  }

 private:
  static constexpr double kTwoPi = 6.28318530717958647692528676655900577;

  bool configured_ = false;
  std::vector<core::StageChain<double>> rails_;
  double phase_ = 0.0;
  double phase_step_ = 0.0;
  std::vector<double> mix_i_, mix_q_, out_i_, out_q_;
};

// --------------------------------------------------------------- asic-gc4016

class Gc4016Backend final : public BackendBase {
 public:
  Gc4016Backend() : BackendBase(kGc4016) {}

  [[nodiscard]] BackendCapabilities capabilities() const override {
    BackendCapabilities c;
    c.bit_exact = true;
    return c;
  }
  [[nodiscard]] DatapathSpec datapath() const override {
    // The chip's internal precision class: 16-bit words, Q1.15 coefficients.
    auto s = DatapathSpec::wide16();
    s.name = "gc4016-internal16";
    s.input_bits = 14;
    return s;
  }
  [[nodiscard]] ChainPlan plan_for(const DdcConfig& config) const override {
    // The chip's own lowering of a rate plan is its Figure 4 chain; it fits
    // only decimations of the form 4 * CIC with CIC in [8,4096].
    if (config.total_decimation() % 4 != 0 ||
        config.total_decimation() / 4 < asic::Gc4016Limits::kMinCicDecimation ||
        config.total_decimation() / 4 > asic::Gc4016Limits::kMaxCicDecimation)
      throw LoweringError(name_, "total decimation " +
                          std::to_string(config.total_decimation()) +
                          " does not split as 4 x CIC with CIC in [8,4096]");
    asic::Gc4016ChannelConfig ch;
    ch.nco_freq_hz = config.nco_freq_hz;
    ch.cic_decimation = config.total_decimation() / 4;
    return asic::Gc4016Channel::figure4_plan(ch, config.input_rate_hz, 14);
  }
  void configure(const ChainPlan& plan) override {
    const auto config = asic::Gc4016::lower_plan(plan);
    chip_.emplace(config);
    plan_ = plan;
  }
  [[nodiscard]] bool is_configured() const override { return chip_.has_value(); }
  void process_block(std::span<const std::int64_t> in,
                     std::vector<IqSample>& out) override {
    require_configured();
    scratch_.clear();
    chip_->process_block(in, scratch_);
    out.reserve(out.size() + scratch_.size());
    for (const auto& y : scratch_) out.push_back(IqSample{y.i, y.q});
  }
  void reset() override {
    require_configured();
    chip_->reset();
  }
  [[nodiscard]] BackendPowerProfile power_profile() const override {
    require_configured();
    BackendPowerProfile p;
    p.modeled = true;
    p.active_power_mw = chip_->power_mw_native();
    p.idle_power_mw = 1.0;  // dedicated silicon: standby leakage all day
    p.reusable_when_idle = false;
    return p;
  }

 private:
  std::optional<asic::Gc4016> chip_;
  std::vector<asic::Gc4016Output> scratch_;
};

// ------------------------------------------------------------------ fpga-rtl

class FpgaBackend final : public BackendBase {
 public:
  FpgaBackend() : BackendBase(kFpga) {}

  [[nodiscard]] BackendCapabilities capabilities() const override {
    BackendCapabilities c;
    c.bit_exact = true;
    return c;
  }
  [[nodiscard]] DatapathSpec datapath() const override {
    return fpga::DdcFpgaTop::spec();
  }
  void configure(const ChainPlan& plan) override {
    config_ = fpga::DdcFpgaTop::lower_plan(plan);
    top_.emplace(config_);
    plan_ = plan;
  }
  [[nodiscard]] bool is_configured() const override { return top_.has_value(); }
  void process_block(std::span<const std::int64_t> in,
                     std::vector<IqSample>& out) override {
    require_configured();
    for (std::int64_t x : in) {
      if (auto y = top_->clock(x)) out.push_back(*y);
    }
  }
  void reset() override {
    require_configured();
    top_.emplace(config_);  // registers reset to their power-on state
  }
  [[nodiscard]] BackendPowerProfile power_profile() const override {
    require_configured();
    // Measure a representative toggle rate on a scratch instance (the
    // conformance state of top_ must not advance), then apply the
    // PowerPlay-style Cyclone II model.
    fpga::DdcFpgaTop probe(config_);
    Rng rng(7);
    probe.process(dsp::random_samples(
        12, static_cast<std::size_t>(config_.total_decimation()) * 4, rng));
    const double toggle = probe.toggle_summary().rate_percent();
    BackendPowerProfile p;
    p.modeled = true;
    p.active_power_mw = fpga::PowerModel::cyclone2().total_mw(toggle);
    p.idle_power_mw = 0.0;
    p.reusable_when_idle = true;  // fabric reprogrammed for other tasks
    p.reconfig_bytes = 1.2e6 / 8.0;  // EP2C5 bitstream ~1.2 Mb
    p.reconfig_power_mw = p.active_power_mw;
    return p;
  }

 private:
  DdcConfig config_;
  std::optional<fpga::DdcFpgaTop> top_;
};

// ------------------------------------------------------------------- gpp-arm

class GppBackend final : public BackendBase {
 public:
  GppBackend() : BackendBase(kGpp) {}

  [[nodiscard]] BackendCapabilities capabilities() const override {
    BackendCapabilities c;
    c.bit_exact = true;
    c.in_phase_only = true;  // the paper's C code computes only the I rail
    return c;
  }
  [[nodiscard]] DatapathSpec datapath() const override {
    return DatapathSpec::wide16();
  }
  void configure(const ChainPlan& plan) override {
    const auto config = gpp::DdcProgram::lower_plan(plan);
    // Build-then-commit: constructing the stream (a ~260 KB CPU image) may
    // throw, and swap_plan guarantees a failed reconfiguration leaves the
    // old configuration running -- so nothing is replaced until both parts
    // exist.  Heap-owned so the stream's back-reference survives the move.
    auto prog = std::make_unique<gpp::DdcProgram>(config);
    auto stream = std::make_unique<gpp::DdcStream>(*prog);
    prog_ = std::move(prog);
    stream_ = std::move(stream);
    config_ = config;
    plan_ = plan;
  }
  [[nodiscard]] bool is_configured() const override { return prog_ != nullptr; }
  void process_block(std::span<const std::int64_t> in,
                     std::vector<IqSample>& out) override {
    require_configured();
    // Incremental: the DdcStream keeps the program's registers, CIC/FIR
    // state and sample ring alive across blocks, so a long stream costs
    // O(blocks) while staying bit-identical to one batch run() over the
    // concatenated input -- this backend can serve unbounded sessions.
    scratch_.clear();
    stream_->process_block(in, scratch_);
    out.reserve(out.size() + scratch_.size());
    for (const std::int32_t v : scratch_) out.push_back(IqSample{v, 0});
  }
  void reset() override {
    require_configured();
    stream_->reset();
  }
  [[nodiscard]] BackendPowerProfile power_profile() const override {
    require_configured();
    Rng rng(11);
    const std::size_t n = static_cast<std::size_t>(config_.total_decimation()) * 4;
    const auto run = prog_->run(dsp::random_samples(12, n, rng));
    BackendPowerProfile p;
    p.modeled = true;
    p.active_power_mw = run.power_mw(n, config_.input_rate_hz);
    p.idle_power_mw = 0.0;
    p.reusable_when_idle = true;  // the processor runs other code when idle
    p.reconfig_bytes = static_cast<double>(prog_->program().code.size()) * 4.0;
    p.reconfig_power_mw = p.active_power_mw;
    return p;
  }

 private:
  DdcConfig config_;
  std::unique_ptr<gpp::DdcProgram> prog_;   // batch kernel: power profiling
  std::unique_ptr<gpp::DdcStream> stream_;  // incremental streaming state
  std::vector<std::int32_t> scratch_;
};

// ------------------------------------------------------------------- montium

class MontiumBackend final : public BackendBase {
 public:
  MontiumBackend() : BackendBase(kMontium) {}

  [[nodiscard]] BackendCapabilities capabilities() const override {
    BackendCapabilities c;
    c.bit_exact = true;
    return c;
  }
  [[nodiscard]] DatapathSpec datapath() const override {
    return montium::DdcMapping::spec();
  }
  void configure(const ChainPlan& plan) override {
    config_ = montium::DdcMapping::lower_plan(plan);
    map_.emplace(config_);
    plan_ = plan;
  }
  [[nodiscard]] bool is_configured() const override { return map_.has_value(); }
  void process_block(std::span<const std::int64_t> in,
                     std::vector<IqSample>& out) override {
    require_configured();
    for (std::int64_t x : in) {
      if (auto y = map_->step(x)) out.push_back(*y);
    }
  }
  void reset() override {
    require_configured();
    map_.emplace(config_);  // reload the already-lowered configuration
  }
  [[nodiscard]] BackendPowerProfile power_profile() const override {
    require_configured();
    BackendPowerProfile p;
    p.modeled = true;
    p.active_power_mw = map_->power_mw();
    p.idle_power_mw = 0.0;
    p.reusable_when_idle = true;  // the tile hosts other kernels when idle
    p.reconfig_bytes = static_cast<double>(map_->serialize_config().size());
    p.reconfig_power_mw = p.active_power_mw;
    return p;
  }

 private:
  DdcConfig config_;
  std::optional<montium::DdcMapping> map_;
};

}  // namespace

void register_builtin() {
  auto& registry = core::BackendRegistry::instance();
  registry.add(kNative, [] { return std::make_unique<NativeBackend>(); });
  registry.add(kFixedDdc, [] { return std::make_unique<FixedDdcBackend>(); });
  registry.add(kFloatDdc, [] { return std::make_unique<FloatDdcBackend>(); });
  registry.add(kGc4016, [] { return std::make_unique<Gc4016Backend>(); });
  registry.add(kFpga, [] { return std::make_unique<FpgaBackend>(); });
  registry.add(kGpp, [] { return std::make_unique<GppBackend>(); });
  registry.add(kMontium, [] { return std::make_unique<MontiumBackend>(); });
}

void register_decorated(
    const std::string& name, const std::string& inner,
    std::function<std::unique_ptr<core::ArchitectureBackend>(
        std::unique_ptr<core::ArchitectureBackend>)>
        decorate) {
  auto& registry = core::BackendRegistry::instance();
  if (!registry.contains(inner))
    throw ConfigError("register_decorated: unknown inner backend '" + inner + "'");
  // The inner factory is looked up at create() time (not captured), so a
  // later re-registration of `inner` flows through the decoration too.
  registry.add(name, [inner, decorate = std::move(decorate)] {
    return decorate(core::BackendRegistry::instance().create(inner));
  });
}

}  // namespace twiddc::backends
