// twiddc::core -- the plan-compilation layer.
//
// The paper's observation is that thousands of users run a handful of
// standard configurations; this layer applies the precompute-once philosophy
// at the plan level.  A ChainPlan is *lowered once* into an immutable
// CompiledPlan:
//
//   * canonicalisation -- every datapath-relevant field (widths, roundings,
//     decimations, coefficients, the NCO tuning word) is serialised into a
//     canonical key, so two plans that execute identically share one
//     compiled artifact regardless of their names or float-rail metadata;
//   * dedup -- quantised coefficient tables (stored forward + reversed for
//     the SIMD dot kernel) and quarter-wave NCO LUTs live in a process-wide
//     CoeffPool behind shared_ptr<const ...>: N sessions on the same config
//     hold one copy, and the storage is immutable so sharing needs no locks
//     after lookup;
//   * fusion -- FusedChainExec runs the full-rate front end in one pass:
//     NCO phase, quarter-LUT cos/sin, mixer round/saturate and the first
//     CIC's integrator cascade stay in int32 registers, and only every R-th
//     CIC output (after its combs) is stored (simd::front32).  That is
//     where the paper's Table 3 puts 90 % of the cost.  It runs whenever
//     int32 is exact: a LUT NCO, input_bits + nco_amplitude_bits <= 32, an
//     unpruned first CIC of <= 32 register bits, and a build carrying the
//     AVX2 kernels.  Every other plan -- Taylor NCOs, GC4016's pruned CIC5,
//     the `ideal` spec's 36-bit product, portable builds -- runs the generic
//     front end: simd::lut_sincos_block (or Taylor), mul_shift_narrow_block
//     and CicDecimator::process_block over 1024-sample tiles.  The stages
//     after the first then run once per call on the decimated stream, with
//     every stage's output conditioning (shift/narrow/round) applied as its
//     outputs are produced;
//   * lanes -- the same executor advances 1, 4 or 8 channels in lockstep
//     (FusedChainExec::process_lanes).  The front end puts one channel per
//     lane (input broadcast, a phase and tuning word per lane) when the
//     lanes share the first CIC's decimation phase; later CIC stages pack
//     their integrator cascades and shared-tap FIR stages their dots across
//     channels the same way.  One lane runs the front end along time
//     instead, 8 or 16 samples per register.  ChannelBank is the
//     multi-lane client, the native backend the one-lane client; the staged
//     DdcPipeline stays the reference both are checked against.
//
// CompiledPlanCache is the process-wide memo: backends' configure() and the
// stream engine resolve plans through it, so 64 identical sessions compile
// exactly one CompiledPlan (63 hits).  Entries are shared_ptr, so eviction
// never invalidates a running session -- the artifact dies with its last
// holder.
//
// Bit-exactness: the generic path reuses the exact arithmetic of the staged
// path (simd::lut_sincos_block, simd::mul_shift_narrow_block,
// dsp::CicDecimator, the flat-window FIR dot over simd::dot_i64, and
// fixed::shift_right/narrow).  The int32 front end is exact under its
// eligibility rule: the product and its rounding fit int32, and integrators
// that wrap mod 2^32 agree with the CIC's mod-2^W registers once reduced to W
// bits (Hogenauer 1981).  The packed kernels accumulate each lane mod 2^64
// exactly as its own scalar kernel would.  The simd kill switch forces every
// kernel onto its scalar realisation -- for an int32 plan that is
// simd::front32_scalar, since the first CIC's state lives in the executor --
// so the existing bit-exactness tests cover both with no extra plumbing.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/simd.hpp"
#include "src/core/pipeline.hpp"
#include "src/dsp/cic.hpp"

namespace twiddc::core {

// -------------------------------------------------------------- shared data

/// One deduplicated coefficient set: forward taps (splice/retap source),
/// reversed taps (the contiguous-window dot kernel's operand order) and the
/// precomputed fits-int32 flag that gates the single-instruction multiply.
/// Immutable after construction; shared across every CompiledPlan (and every
/// session) using the same quantised coefficients.
struct TapSet {
  std::vector<std::int64_t> forward;
  std::vector<std::int64_t> reversed;
  bool fits_i32 = false;

  explicit TapSet(const std::vector<std::int64_t>& taps);
};

/// Process-wide dedup pool for coefficient tables and quarter-wave NCO LUTs.
/// Entries are held weakly: the pool never keeps an artifact alive on its
/// own, it only guarantees that concurrent holders share one copy.
class CoeffPool {
 public:
  static CoeffPool& instance();

  std::shared_ptr<const TapSet> taps(const std::vector<std::int64_t>& taps);
  std::shared_ptr<const std::vector<std::int32_t>> sine_table(int table_bits,
                                                              int amplitude_bits);

  struct Stats {
    std::uint64_t tap_requests = 0;
    std::uint64_t tap_hits = 0;
    std::uint64_t table_requests = 0;
    std::uint64_t table_hits = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  CoeffPool() = default;

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::weak_ptr<const TapSet>> taps_;
  std::unordered_map<std::uint64_t, std::weak_ptr<const std::vector<std::int32_t>>>
      tables_;
  Stats stats_;
};

// ----------------------------------------------------------------- keys

/// Canonical form of a plan's fixed-point datapath: every field that affects
/// the produced samples (front-end widths/mode/rounding, the NCO *tuning
/// word*, stage kinds/geometry/coefficients/conditioning, the input rate).
/// Excludes presentation-only fields (name) and float-rail metadata
/// (taps_float, post_scale).  Two plans with equal canonical keys execute
/// identically and may share one CompiledPlan.
///
/// Keys are binary: each field is its fixed-width raw bytes, and the
/// variable-length lists (stages, prune_shifts, taps) carry a count prefix,
/// so the encoding is prefix-free -- no key is a prefix of another, and
/// concatenated keys stay unambiguous.
std::string canonical_plan_key(const ChainPlan& plan);

/// Structural form: the canonical key minus everything a SwapMode::kSplice
/// may change (NCO frequency, coefficient values, output conditioning).
/// Two plans with equal structural keys are splice-compatible, and channels
/// with equal structural keys are the lane groups ChannelBank packs.
std::string structural_plan_key(const ChainPlan& plan);

// ------------------------------------------------------------- CompiledPlan

/// An immutable lowered plan: the validated ChainPlan, its canonical and
/// structural keys, the shared NCO LUT, and one shared TapSet per FIR stage.
/// Construction validates (throws ConfigError exactly where DdcPipeline
/// would).  Never mutated after construction -- sessions on different
/// threads execute from one instance without synchronisation.
class CompiledPlan {
 public:
  /// `canonical_key` must be canonical_plan_key(plan) when given (the cache
  /// passes the key it already looked up); empty computes it here.
  explicit CompiledPlan(const ChainPlan& plan, std::string canonical_key = {});

  [[nodiscard]] const ChainPlan& plan() const { return plan_; }
  [[nodiscard]] const std::string& canonical_key() const { return canonical_key_; }
  [[nodiscard]] const std::string& structural_key() const { return structural_key_; }
  [[nodiscard]] std::uint32_t tuning_word() const { return tuning_word_; }
  /// Shared quarter-wave LUT (null in Taylor mode).
  [[nodiscard]] const std::shared_ptr<const std::vector<std::int32_t>>& sine_table()
      const {
    return sine_table_;
  }
  /// Per-stage shared coefficient sets (null for non-FIR stages).
  [[nodiscard]] const std::vector<std::shared_ptr<const TapSet>>& stage_taps() const {
    return stage_taps_;
  }
  [[nodiscard]] int total_decimation() const { return plan_.total_decimation(); }

 private:
  ChainPlan plan_;
  std::string canonical_key_;
  std::string structural_key_;
  std::uint32_t tuning_word_ = 0;
  std::shared_ptr<const std::vector<std::int32_t>> sine_table_;
  std::vector<std::shared_ptr<const TapSet>> stage_taps_;
};

// -------------------------------------------------------- CompiledPlanCache

/// Process-wide LRU memo from canonical key to CompiledPlan.  Thread-safe
/// (one mutex; compilation happens under it, so concurrent configure() calls
/// for the same plan still compile exactly once).  Eviction only drops the
/// cache's reference -- running sessions keep their artifact alive.
class CompiledPlanCache {
 public:
  static CompiledPlanCache& instance();

  /// Returns the cached artifact for the plan's canonical form, compiling
  /// and inserting on miss.  Throws ConfigError (from validation) without
  /// caching anything; the failed lookup still counts as a miss.
  std::shared_ptr<const CompiledPlan> get_or_compile(const ChainPlan& plan);

  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    double compile_seconds = 0.0;  ///< total time spent compiling misses
    std::size_t entries = 0;
    std::size_t capacity = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// Maximum resident entries (clamped to >= 1); evicts LRU down to it.
  void set_capacity(std::size_t capacity);
  /// Drops every entry (running sessions are unaffected).  Counters keep
  /// accumulating; tests assert on deltas.
  void clear();

  static constexpr std::size_t kDefaultCapacity = 128;

 private:
  CompiledPlanCache() = default;

  mutable std::mutex mu_;
  /// MRU-first list of (key, artifact); the map indexes into it.
  std::list<std::pair<std::string, std::shared_ptr<const CompiledPlan>>> lru_;
  std::unordered_map<std::string, decltype(lru_)::iterator> index_;
  std::size_t capacity_ = kDefaultCapacity;
  Stats stats_;
};

// ------------------------------------------------------------ FusedChainExec

/// Per-channel execution state over a shared CompiledPlan: the NCO phase,
/// the first CIC's int32 registers (int32 plans) or two CIC decimators per
/// CIC stage (I and Q rails), one flat FIR delay line per FIR stage per
/// rail.  This is the one fast block executor: the native
/// backend runs channels one at a time (process_block), ChannelBank runs
/// them as lane groups (process_lanes).  Both are bit-exact with
/// DdcPipeline::process_block on the same plan (pinned by tests across
/// randomized topologies, lane counts and both kill-switch states).
class FusedChainExec {
 public:
  /// Widest lane group process_lanes accepts (one AVX-512 register of int64).
  static constexpr int kMaxLanes = 8;

  explicit FusedChainExec(std::shared_ptr<const CompiledPlan> plan);

  /// Runs `n` (1..kMaxLanes) channels over the same input: the front end
  /// and first stage across the lanes (simd::front32, one channel per lane;
  /// or per lane through the generic tiles), then each later stage once
  /// across the lanes -- CIC stages through
  /// dsp::CicDecimator::process_block_packed8 / packed4 (one register holds
  /// every lane's integrator), FIR stages through the multi-lane shared-tap
  /// dot (simd::dot_i64_x8 / x4) when the lanes hold the same TapSet and
  /// decimation phase.  Any lane set a packed kernel cannot take (geometry,
  /// phase, tier, kill switch) runs that stage per lane, so the result is
  /// bit-exact with n process_block calls.
  /// Channel l's outputs are appended to *out[l].  All-or-nothing: the input
  /// is range-checked against every lane's front end before any state
  /// advances (SimulationError).
  static void process_lanes(FusedChainExec* const lanes[], int n,
                            std::span<const std::int64_t> in,
                            std::vector<IqSample>* const out[]);

  /// One lane: process_lanes with n = 1.
  void process_block(std::span<const std::int64_t> in, std::vector<IqSample>& out);
  void reset();

  /// True when `next` is splice-compatible with the running plan (equal
  /// structural keys -- the same contract DdcPipeline::swap_plan(kSplice)
  /// enforces stage by stage).
  [[nodiscard]] bool can_splice(const CompiledPlan& next) const;
  /// State-preserving switch to `next`: filter state and NCO phase survive;
  /// coefficients, conditioning and the tuning word are replaced.  Call
  /// can_splice first; throws ConfigError otherwise.
  void splice(std::shared_ptr<const CompiledPlan> next);
  /// Runtime reconfiguration with DdcPipeline::swap_plan's contract: the
  /// plan is resolved through CompiledPlanCache, kFlush restarts from fresh
  /// state, kSplice keeps it.  A ConfigError (invalid plan, or a kSplice
  /// onto a different structure) leaves the old plan running.
  void swap_plan(const ChainPlan& plan, SwapMode mode);

  [[nodiscard]] const CompiledPlan& compiled() const { return *plan_; }
  [[nodiscard]] const std::shared_ptr<const CompiledPlan>& compiled_ptr() const {
    return plan_;
  }

 private:
  struct Conditioning {
    int shift = 0;
    int bits = 0;
    fixed::Rounding rounding = fixed::Rounding::kTruncate;
  };
  /// Runtime state of one stage (both rails).
  struct StageState {
    StageSpec::Kind kind = StageSpec::Kind::kPassthrough;
    int decimation = 1;
    Conditioning req;
    // kCic: one decimator per rail.
    std::vector<dsp::CicDecimator> cic;  // [0]=I, [1]=Q (empty otherwise)
    // kFirDecimator / kPolyphaseFir: shared taps + flat delay line per rail.
    std::shared_ptr<const TapSet> taps;
    std::vector<std::int64_t> tail[2];  // last (taps-1) inputs, zero-seeded
    int fir_phase = 0;                  // inputs since last output, in [0, D)
  };

  void build_stages();
  /// Generic front end: mixes one tile into mix_tile_[0..1].
  void run_front_end(std::span<const std::int64_t> tile);
  /// int32 front end: stage 0 of every lane over the whole call through
  /// simd::front32, octets and quads where the lanes share the stage-0
  /// decimation phase, one lane at a time otherwise.  Leaves each lane's
  /// conditioned stage-0 output in front_out_.
  static void run_front32(FusedChainExec* const lanes[], int n,
                          std::span<const std::int64_t> in);
  [[nodiscard]] simd::FrontEnd32 front32_config() const;
  /// Stage `s` of rail `r` across the lanes: `cur[l]` is lane l's stage
  /// input, replaced by a view of its conditioned stage output.
  static void run_stage(FusedChainExec* const lanes[], int n, std::size_t s, int r,
                        std::span<const std::int64_t> cur[]);
  static void condition(std::span<std::int64_t> v, const Conditioning& req);

  std::shared_ptr<const CompiledPlan> plan_;
  int mixer_shift_ = 0;
  bool mixer_narrow_ok_ = false;
  /// NCO phase and tuning word (both paths), plus stage 0's CIC registers
  /// on the int32 path.
  simd::FrontLane32 front_;
  /// The plan takes the int32 front end; fixed per structure, so splices
  /// keep it.  Its stage-0 CIC state is front_ and count32_ (stages_[0].cic
  /// stays empty).
  bool front32_ = false;
  int count32_ = 0;  // stage-0 inputs since its last output
  std::vector<StageState> stages_;
  // Generic-path tile scratch (tile-sized, L1-resident).
  std::vector<std::int32_t> cos_tile_;
  std::vector<std::int32_t> sin_tile_;
  std::vector<std::int64_t> mix_tile_[2];
  // Per-call buffers: stage 0's conditioned output, then the later stages'
  // ping-pong outputs and FIR window.
  std::vector<std::int64_t> front_out_[2];
  std::vector<std::int64_t> stage_a_[2];
  std::vector<std::int64_t> stage_b_[2];
  std::vector<std::int64_t> window_;
};

}  // namespace twiddc::core
