// twiddc::core -- the unified ArchitectureBackend layer.
//
// The paper's claim is that ONE DDC algorithm maps onto four very different
// architectures.  The pipeline layer (pipeline.hpp) already makes the
// algorithm data (a ChainPlan); this layer makes the *architectures* data
// too.  Every execution path in the repo -- the native stage pipeline, the
// FixedDdc/FloatDdc shims, the FPGA RTL model, the GPP program, the Montium
// mapping and the GC4016 channel -- is wrapped as an ArchitectureBackend:
//
//   configure(plan)  lowers an arbitrary ChainPlan onto the architecture.
//                    Architectures with hardwired structure (the ARM kernel,
//                    the Montium schedule, the FPGA netlist, the GC4016's
//                    Figure 4 chain) accept only the plan family they can
//                    realise and reject everything else with a typed
//                    LoweringError naming the first unmappable feature --
//                    they never silently assume the Figure 1 topology.
//   process_block()  runs raw input samples through the lowered design.
//   swap_plan()      runtime reconfiguration (the Montium's raison d'etre),
//                    with a defined output-glitch contract (see SwapMode).
//
// A static BackendRegistry holds one factory per backend so cross-
// architecture tests, the energy scenarios and the explorer example iterate
// *whatever is registered* instead of enumerating architectures by hand.
// See DESIGN.md for the lowering rules and the reconfiguration contract.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/core/datapath_spec.hpp"
#include "src/core/pipeline.hpp"

namespace twiddc::core {

class FusedChainExec;

/// Thrown by ArchitectureBackend::configure when a plan cannot be lowered
/// onto the architecture.  Carries the backend name and the first
/// unmappable feature as separate fields so harnesses can report *why* an
/// architecture rejected a topology.
class LoweringError : public ConfigError {
 public:
  LoweringError(std::string backend, std::string detail)
      : ConfigError(backend + ": cannot lower plan: " + detail),
        backend_(std::move(backend)),
        detail_(std::move(detail)) {}

  [[nodiscard]] const std::string& backend() const { return backend_; }
  [[nodiscard]] const std::string& detail() const { return detail_; }

 private:
  std::string backend_;
  std::string detail_;
};

/// What a backend can do, declared up front so harnesses can pick the right
/// comparison (bit-exact diff vs SNR bound) and the right feature tests.
struct BackendCapabilities {
  /// Outputs are bit-identical to the fixed functional twin (a DdcPipeline
  /// built from the same plan).  When false, agreement is only
  /// quantisation-bounded: compare at >= min_snr_db.
  bool bit_exact = true;
  /// Produces only the in-phase rail (the paper's ARM program); harnesses
  /// must ignore the Q component.
  bool in_phase_only = false;
  /// configure() accepts any valid ChainPlan (true for the functional
  /// backends); false means only an architecture-specific plan family
  /// lowers and everything else raises LoweringError.
  bool arbitrary_topology = false;
  /// swap_plan(kSplice) is supported (state-preserving reconfiguration).
  /// kFlush is supported by every backend.
  bool supports_splice = false;
  /// Quantisation-noise floor for non-bit-exact agreement checks.
  double min_snr_db = 0.0;
};

/// Silicon cost model of a backend, for the energy scenarios.  Backends
/// that only exist as simulations (the functional twins) leave
/// `modeled == false` and are skipped by the scenario builders.
struct BackendPowerProfile {
  bool modeled = false;
  double active_power_mw = 0.0;
  double idle_power_mw = 0.0;
  bool reusable_when_idle = false;  ///< fabric hosts other tasks while idle
  double reconfig_bytes = 0.0;      ///< configuration loaded per activation
  double reconfig_power_mw = 0.0;
};

/// One architecture executing ChainPlans.  Backends start unconfigured;
/// every other method requires a successful configure() first and throws
/// SimulationError otherwise.
class ArchitectureBackend {
 public:
  virtual ~ArchitectureBackend() = default;

  [[nodiscard]] virtual const std::string& name() const = 0;
  [[nodiscard]] virtual BackendCapabilities capabilities() const = 0;

  /// The fixed-point datapath this architecture natively implements; used
  /// by plan_for() to derive the architecture's own lowering of a rate
  /// plan, and reported in conformance output.
  [[nodiscard]] virtual DatapathSpec datapath() const = 0;

  /// The architecture's own lowering of a DdcConfig rate plan -- the plan
  /// this backend would pick for itself (Figure 1 with its datapath widths,
  /// or the GC4016's Figure 4 chain).  Throws LoweringError when even the
  /// rate plan does not fit the architecture.
  [[nodiscard]] virtual ChainPlan plan_for(const DdcConfig& config) const;

  /// Lowers `plan` onto the architecture and builds the execution state.
  /// Throws LoweringError (with the backend name and the first unmappable
  /// feature) when the plan is outside the architecture's family.
  virtual void configure(const ChainPlan& plan) = 0;
  [[nodiscard]] virtual bool is_configured() const = 0;

  /// The configured plan (valid after configure()).
  [[nodiscard]] virtual const ChainPlan& plan() const = 0;

  /// Runs a block of raw input samples (must fit the plan's input width),
  /// appending produced outputs.  Backends with in_phase_only report q = 0.
  virtual void process_block(std::span<const std::int64_t> in,
                             std::vector<IqSample>& out) = 0;

  /// Clears all execution state (filters, NCO phase, counters); the
  /// configured plan is retained.
  virtual void reset() = 0;

  /// Multiplies raw integer outputs into normalised doubles for
  /// cross-backend comparison.
  [[nodiscard]] virtual double output_scale() const = 0;

  /// Runtime reconfiguration.  kFlush (supported everywhere) reloads the
  /// architecture's configuration: as-if freshly configured, all execution
  /// state discarded.  kSplice (supports_splice backends only) keeps filter
  /// state across a structurally compatible plan change; see SwapMode.
  /// Throws LoweringError when the new plan does not lower, in which case
  /// the old configuration stays active.
  virtual void swap_plan(const ChainPlan& plan, SwapMode mode = SwapMode::kFlush);

  /// Silicon cost for the energy scenarios (valid after configure()).
  [[nodiscard]] virtual BackendPowerProfile power_profile() const { return {}; }

  /// The fused executor this backend runs its blocks through, when it has
  /// one (valid after configure(); the address stays fixed across
  /// configure and swap_plan).  A StreamEngine serves sessions whose
  /// executors share a structure as one FusedChainExec::process_lanes
  /// call, so a backend that returns one promises that process_block is
  /// exactly that executor's process_block.  Default nullptr: the session
  /// is always served alone, through process_block -- decorators that
  /// wrap another backend keep the default.
  [[nodiscard]] virtual FusedChainExec* lane_executor() { return nullptr; }

 protected:
  /// Helper for subclasses: throws SimulationError when not configured.
  void require_configured() const;
};

/// Static registry of backend factories.  Registration is idempotent by
/// name (last registration wins); twiddc's own backends self-register via
/// backends::register_builtin(), which every consumer calls first.
class BackendRegistry {
 public:
  using Factory = std::function<std::unique_ptr<ArchitectureBackend>()>;

  static BackendRegistry& instance();

  void add(const std::string& name, Factory factory);
  [[nodiscard]] bool contains(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;

  /// Builds a fresh, unconfigured backend.  Throws ConfigError for an
  /// unknown name.
  [[nodiscard]] std::unique_ptr<ArchitectureBackend> create(const std::string& name) const;
  /// Builds one fresh instance of every registered backend, in
  /// registration order.
  [[nodiscard]] std::vector<std::unique_ptr<ArchitectureBackend>> create_all() const;

 private:
  BackendRegistry() = default;
  std::vector<std::pair<std::string, Factory>> factories_;
};

// ------------------------------------------------------- lowering helpers

/// Verifies that `plan` equals the architecture's own derivation `ref` in
/// every field a fixed-point datapath consumes -- front-end widths/modes,
/// per-stage CIC geometry and pruning, quantised taps, output conditioning
/// (labels and float-rail taps are presentation, not datapath, and are
/// ignored).  `datapath_name` names the implemented datapath in the
/// diagnostics.  Throws LoweringError naming `backend` and the first
/// differing feature.  Shared by every hardware lowering so new StageSpec
/// fields get checked in one place.
void check_plan_matches_reference(const ChainPlan& plan, const ChainPlan& ref,
                                  const std::string& backend,
                                  const std::string& datapath_name);

/// Recovers the DdcConfig of a Figure-1-family plan (CIC -> CIC ->
/// polyphase FIR) and verifies that `plan` is exactly the `spec` lowering
/// of that config -- i.e. equal to ChainPlan::figure1(config, spec) in
/// every field the fixed-point datapath consumes (front-end widths, stage
/// structure, quantised taps, output conditioning).  Throws LoweringError
/// naming `backend` and the first differing feature.  This is the shared
/// plan -> architecture lowering of the FPGA, GPP and Montium backends,
/// which realise exactly that family in hardware.
DdcConfig lower_figure1_plan(const ChainPlan& plan, const DatapathSpec& spec,
                             const std::string& backend);

}  // namespace twiddc::core
