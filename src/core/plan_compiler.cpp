#include "src/core/plan_compiler.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <utility>

#include "src/common/error.hpp"
#include "src/common/simd.hpp"
#include "src/common/trace.hpp"
#include "src/dsp/mixer.hpp"
#include "src/dsp/nco.hpp"

namespace twiddc::core {
namespace {

// The generic front end mixes and runs stage 0 in tiles of this many
// samples, so a tile's cos/sin (int32) and two mixed rails (int64) -- 24 KB --
// stay L1-resident; the staged path materialises them at block size.
constexpr std::size_t kFuseTileSamples = 1024;

/// Appends the raw bytes of one fixed-width field.
template <typename T>
void put(std::string& key, T v) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  key.append(bytes, sizeof(T));
}

/// Serialises one plan into a binary key.  `structural` drops the fields a
/// SwapMode::kSplice may change (tuning word, coefficient values, output
/// conditioning) but keeps everything the splice contract requires to be
/// equal -- byte-equal keys == splice-compatible, the same checks
/// DdcPipeline::swap_plan and the Stage::can_splice overrides perform.
/// Every list is count-prefixed, so the encoding is prefix-free.
std::string plan_key(const ChainPlan& plan, bool structural) {
  std::string key(1, structural ? 's' : 'c');
  key.reserve(128);
  const FrontEndSpec& fe = plan.front_end;
  put(key, plan.input_rate_hz);
  for (const int v : {fe.nco_amplitude_bits, fe.nco_table_bits, static_cast<int>(fe.nco_mode),
                      fe.input_bits, fe.mixer_out_bits, static_cast<int>(fe.mixer_rounding)})
    put<std::int32_t>(key, v);
  if (!structural)
    put(key, dsp::PhaseAccumulator::tuning_word(fe.nco_freq_hz, plan.input_rate_hz));
  put<std::uint64_t>(key, plan.stages.size());
  for (const StageSpec& st : plan.stages) {
    put<std::int32_t>(key, static_cast<int>(st.kind));
    put<std::int32_t>(key, st.decimation);
    if (st.kind == StageSpec::Kind::kCic) {
      for (const int v : {st.cic_stages, st.diff_delay, st.input_bits, st.register_bits})
        put<std::int32_t>(key, v);
      put<std::uint64_t>(key, st.prune_shifts.size());
      for (const int p : st.prune_shifts) put<std::int32_t>(key, p);
    }
    if (st.kind == StageSpec::Kind::kFirDecimator ||
        st.kind == StageSpec::Kind::kPolyphaseFir) {
      put<std::uint64_t>(key, st.taps.size());
      if (!structural)
        key.append(reinterpret_cast<const char*>(st.taps.data()),
                   st.taps.size() * sizeof(std::int64_t));
    }
    if (!structural)
      for (const int v : {st.post_shift, st.narrow_bits, static_cast<int>(st.rounding)})
        put<std::int32_t>(key, v);
  }
  return key;
}

/// Core of the packed FIR leg: interleaves L lanes' flat windows at stride
/// L, then computes every kept output's L dots through one multi-lane kernel
/// call (shared-tap broadcast).  Outputs land at window index i = d-1-phase,
/// d-1-phase+d, ... -- identical instants to the per-lane path.  Per-lane
/// accumulation is mod 2^64, so the packed results are bit-exact with
/// per-lane simd::dot_i64.
void packed_dot_outputs(const std::int64_t* rev_taps, std::size_t ntaps,
                        const std::vector<std::int64_t>* const windows[], int L,
                        std::size_t m, int d, int phase, bool narrow_ok,
                        std::vector<std::int64_t>* const out[]) {
  thread_local std::vector<std::int64_t> inter;
  const std::size_t nw = windows[0]->size();
  const auto lanes = static_cast<std::size_t>(L);
  inter.resize(nw * lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    const std::int64_t* w = windows[l]->data();
    for (std::size_t j = 0; j < nw; ++j) inter[j * lanes + l] = w[j];
  }
  const std::size_t kept = m / static_cast<std::size_t>(d) + 1;
  for (std::size_t l = 0; l < lanes; ++l) out[l]->reserve(out[l]->size() + kept);
  std::int64_t res[8];
  for (std::size_t i = static_cast<std::size_t>(d - 1 - phase); i < m;
       i += static_cast<std::size_t>(d)) {
    if (L == 4)
      simd::dot_i64_x4(rev_taps, inter.data() + i * 4, ntaps, narrow_ok, res);
    else
      simd::dot_i64_x8(rev_taps, inter.data() + i * 8, ntaps, narrow_ok, res);
    for (std::size_t l = 0; l < lanes; ++l) out[l]->push_back(res[l]);
  }
}

/// The SIMD tier needed for an L-lane packed FIR pass is available right now.
bool packed_tier_available(int nlanes) {
  if (nlanes == 8) return simd::avx512_active();
#if defined(__AVX2__)
  return simd::enabled();
#else
  return false;
#endif
}

/// Runs a stage over lanes [0, n): octets through `packed(0, 8)` when n is
/// 8, then quads through `packed(first, 4)`; every lane no packed call took
/// runs `per_lane(l)`.  A packed call declines (returns false) without
/// touching state, so any mix of packed and per-lane groups is bit-exact.
template <typename Packed, typename PerLane>
void pack_or_per_lane(int n, Packed packed, PerLane per_lane) {
  if (n == 8 && packed(0, 8)) return;
  for (int first = 0; first < n; first += 4) {
    if (first + 4 <= n && packed(first, 4)) continue;
    for (int l = first; l < std::min(first + 4, n); ++l) per_lane(l);
  }
}

/// Register width of a CIC stage (0 = the Hogenauer full width).
int cic_register_bits(const StageSpec& st) {
  return st.register_bits != 0
             ? st.register_bits
             : st.input_bits + fixed::cic_bit_growth(st.cic_stages, st.decimation,
                                                     st.diff_delay);
}

/// The plan's front end and first CIC are exact in int32 lanes (the
/// preconditions of simd::front32): a LUT NCO, a mixer product of at most
/// 32 bits, and an unpruned first CIC of at most 32 register bits.  Only
/// builds that carry the AVX2 kernels take it; everything else -- Taylor
/// NCOs, pruned CICs, wider products, portable builds -- runs the generic
/// tile path.
bool takes_front32(const ChainPlan& plan) {
#if defined(__AVX2__)
  const FrontEndSpec& fe = plan.front_end;
  const StageSpec& st = plan.stages.front();
  return fe.nco_mode == dsp::Nco::Mode::kLookupTable &&
         fe.input_bits + fe.nco_amplitude_bits <= 32 && fe.mixer_out_bits <= 32 &&
         st.kind == StageSpec::Kind::kCic && st.prune_shifts.empty() &&
         cic_register_bits(st) <= 32;
#else
  (void)plan;
  return false;
#endif
}

}  // namespace

// ------------------------------------------------------------------- TapSet

TapSet::TapSet(const std::vector<std::int64_t>& taps)
    : forward(taps),
      reversed(taps.rbegin(), taps.rend()),
      fits_i32(simd::all_fit_i32(taps.data(), taps.size())) {}

// ---------------------------------------------------------------- CoeffPool

CoeffPool& CoeffPool::instance() {
  static CoeffPool pool;
  return pool;
}

std::shared_ptr<const TapSet> CoeffPool::taps(const std::vector<std::int64_t>& taps) {
  // Content-addressed: the raw bytes of the quantised coefficients.
  std::string key(reinterpret_cast<const char*>(taps.data()),
                  taps.size() * sizeof(std::int64_t));
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.tap_requests;
  auto it = taps_.find(key);
  if (it != taps_.end()) {
    if (auto held = it->second.lock()) {
      ++stats_.tap_hits;
      return held;
    }
  }
  auto made = std::make_shared<const TapSet>(taps);
  taps_[std::move(key)] = made;
  // Weak entries outlive their artifacts; sweep the corpses occasionally so
  // a long-running process cycling through random plans stays bounded.
  if (taps_.size() > 256) {
    for (auto e = taps_.begin(); e != taps_.end();)
      e = e->second.expired() ? taps_.erase(e) : std::next(e);
  }
  return made;
}

std::shared_ptr<const std::vector<std::int32_t>> CoeffPool::sine_table(
    int table_bits, int amplitude_bits) {
  const std::uint64_t key = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                                table_bits))
                             << 32) |
                            static_cast<std::uint32_t>(amplitude_bits);
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.table_requests;
  auto it = tables_.find(key);
  if (it != tables_.end()) {
    if (auto held = it->second.lock()) {
      ++stats_.table_hits;
      return held;
    }
  }
  auto made = std::make_shared<const std::vector<std::int32_t>>(
      dsp::make_quarter_sine_table(table_bits, amplitude_bits));
  tables_[key] = made;
  return made;
}

CoeffPool::Stats CoeffPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

// --------------------------------------------------------------------- keys

std::string canonical_plan_key(const ChainPlan& plan) {
  return plan_key(plan, /*structural=*/false);
}

std::string structural_plan_key(const ChainPlan& plan) {
  return plan_key(plan, /*structural=*/true);
}

// ------------------------------------------------------------- CompiledPlan

CompiledPlan::CompiledPlan(const ChainPlan& plan, std::string canonical_key)
    : plan_(plan), canonical_key_(std::move(canonical_key)) {
  plan_.validate();
  // Deep-validate exactly what execution will need, so configure() fails
  // here (typed, nothing cached) rather than mid-stream: the mixer's shift
  // must be non-negative, every CIC geometry must be realisable, and the
  // fixed rail needs quantised taps.
  {
    dsp::ComplexMixer::Config mc;
    mc.input_bits = plan_.front_end.input_bits;
    mc.nco_amplitude_bits = plan_.front_end.nco_amplitude_bits;
    mc.output_bits = plan_.front_end.mixer_out_bits;
    mc.rounding = plan_.front_end.mixer_rounding;
    dsp::ComplexMixer probe(mc);
    (void)probe;
  }
  for (const StageSpec& st : plan_.stages) {
    if (st.kind == StageSpec::Kind::kCic) {
      dsp::CicDecimator::Config c;
      c.stages = st.cic_stages;
      c.decimation = st.decimation;
      c.diff_delay = st.diff_delay;
      c.input_bits = st.input_bits;
      c.register_bits = st.register_bits;
      c.prune_shifts = st.prune_shifts;
      dsp::CicDecimator probe(c);
      (void)probe;
    }
    if ((st.kind == StageSpec::Kind::kFirDecimator ||
         st.kind == StageSpec::Kind::kPolyphaseFir) &&
        st.taps.empty())
      throw ConfigError("CompiledPlan: stage '" + st.label +
                        "' has no quantised taps (fixed-rail execution "
                        "needs StageSpec::taps)");
  }

  tuning_word_ = dsp::PhaseAccumulator::tuning_word(plan_.front_end.nco_freq_hz,
                                                    plan_.input_rate_hz);
  if (canonical_key_.empty()) canonical_key_ = canonical_plan_key(plan_);
  structural_key_ = structural_plan_key(plan_);

  if (plan_.front_end.nco_mode == dsp::Nco::Mode::kLookupTable)
    sine_table_ = CoeffPool::instance().sine_table(plan_.front_end.nco_table_bits,
                                                   plan_.front_end.nco_amplitude_bits);
  stage_taps_.reserve(plan_.stages.size());
  for (const StageSpec& st : plan_.stages) {
    if (st.kind == StageSpec::Kind::kFirDecimator ||
        st.kind == StageSpec::Kind::kPolyphaseFir)
      stage_taps_.push_back(CoeffPool::instance().taps(st.taps));
    else
      stage_taps_.push_back(nullptr);
  }
}

// -------------------------------------------------------- CompiledPlanCache

CompiledPlanCache& CompiledPlanCache::instance() {
  static CompiledPlanCache cache;
  return cache;
}

std::shared_ptr<const CompiledPlan> CompiledPlanCache::get_or_compile(
    const ChainPlan& plan) {
  // The canonical key needs a positive sample rate (tuning-word math);
  // validate() rejects everything the key computation cannot survive.
  plan.validate();
  std::string key = canonical_plan_key(plan);
  // Trace args carry a hash of the canonical key, so identical plans are
  // correlatable across hit/miss/evict events without shipping the key;
  // untraced lookups hash it once, in the index.
  const std::uint64_t key_hash =
      trace::enabled(trace::Category::kCache) ? std::hash<std::string>{}(key) : 0;

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.lookups;
  auto it = index_.find(key);
  if (it != index_.end()) {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);  // bump to MRU
    if (trace::enabled(trace::Category::kCache)) {
      static const std::uint16_t kName = trace::intern("plan_cache_hit");
      trace::emit(trace::Category::kCache, kName, trace::Phase::kInstant,
                  key_hash, stats_.hits);
    }
    return lru_.front().second;
  }
  ++stats_.misses;
  if (trace::enabled(trace::Category::kCache)) {
    static const std::uint16_t kName = trace::intern("plan_cache_miss");
    trace::emit(trace::Category::kCache, kName, trace::Phase::kInstant,
                key_hash, stats_.misses);
  }
  // Compile under the lock: concurrent configure() calls racing on the same
  // plan would otherwise each pay the compile; the artifact is tiny and the
  // compile is microseconds, so serialising here is the cheap choice.
  trace::Span compile_span(trace::Category::kCache,
                           [] {
                             static const std::uint16_t kName =
                                 trace::intern("plan_compile");
                             return kName;
                           }(),
                           key_hash);
  const auto t0 = std::chrono::steady_clock::now();
  auto compiled = std::make_shared<const CompiledPlan>(plan, key);
  stats_.compile_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  compile_span.finish();
  lru_.emplace_front(std::move(key), compiled);
  index_.emplace(lru_.front().first, lru_.begin());
  while (lru_.size() > capacity_) {
    if (trace::enabled(trace::Category::kCache)) {
      static const std::uint16_t kName = trace::intern("plan_cache_evict");
      trace::emit(trace::Category::kCache, kName, trace::Phase::kInstant,
                  std::hash<std::string>{}(lru_.back().first), lru_.size() - 1);
    }
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
  return compiled;
}

CompiledPlanCache::Stats CompiledPlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.entries = lru_.size();
  s.capacity = capacity_;
  return s;
}

void CompiledPlanCache::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity < 1 ? 1 : capacity;
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void CompiledPlanCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

// ------------------------------------------------------------ FusedChainExec

FusedChainExec::FusedChainExec(std::shared_ptr<const CompiledPlan> plan)
    : plan_(std::move(plan)) {
  const FrontEndSpec& fe = plan_->plan().front_end;
  mixer_shift_ = fe.input_bits + fe.nco_amplitude_bits - 1 - fe.mixer_out_bits;
  mixer_narrow_ok_ = fe.input_bits <= 32 && fe.nco_amplitude_bits <= 32;
  front_.step = plan_->tuning_word();
  front32_ = takes_front32(plan_->plan());
  build_stages();
}

void FusedChainExec::build_stages() {
  stages_.clear();
  const ChainPlan& plan = plan_->plan();
  stages_.reserve(plan.stages.size());
  for (std::size_t i = 0; i < plan.stages.size(); ++i) {
    const StageSpec& spec = plan.stages[i];
    StageState st;
    st.kind = spec.kind;
    st.decimation = spec.decimation;
    st.req = Conditioning{spec.post_shift, spec.narrow_bits, spec.rounding};
    if (spec.kind == StageSpec::Kind::kCic && !(i == 0 && front32_)) {
      dsp::CicDecimator::Config c;
      c.stages = spec.cic_stages;
      c.decimation = spec.decimation;
      c.diff_delay = spec.diff_delay;
      c.input_bits = spec.input_bits;
      c.register_bits = spec.register_bits;
      c.prune_shifts = spec.prune_shifts;
      st.cic.emplace_back(c);
      st.cic.emplace_back(c);
    } else if (spec.kind == StageSpec::Kind::kFirDecimator ||
               spec.kind == StageSpec::Kind::kPolyphaseFir) {
      st.taps = plan_->stage_taps()[i];
      const std::size_t hist = st.taps->forward.size() - 1;
      st.tail[0].assign(hist, 0);
      st.tail[1].assign(hist, 0);
    }
    stages_.push_back(std::move(st));
  }
}

void FusedChainExec::reset() {
  front_ = simd::FrontLane32{};
  front_.step = plan_->tuning_word();
  count32_ = 0;
  for (StageState& st : stages_) {
    for (auto& c : st.cic) c.reset();
    st.tail[0].assign(st.tail[0].size(), 0);
    st.tail[1].assign(st.tail[1].size(), 0);
    st.fir_phase = 0;
  }
}

bool FusedChainExec::can_splice(const CompiledPlan& next) const {
  return next.structural_key() == plan_->structural_key();
}

void FusedChainExec::splice(std::shared_ptr<const CompiledPlan> next) {
  if (!can_splice(*next))
    throw ConfigError("FusedChainExec::splice: plan '" + next->plan().name +
                      "' is structurally incompatible with running plan '" +
                      plan_->plan().name + "' (use SwapMode::kFlush)");
  // Equal structural keys guarantee equal stage counts/kinds/geometry; only
  // coefficients, conditioning and the tuning word move.  Filter state (CIC
  // registers, FIR delay lines, the decimation phases, the NCO phase) stays.
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const StageSpec& spec = next->plan().stages[i];
    stages_[i].req = Conditioning{spec.post_shift, spec.narrow_bits, spec.rounding};
    if (stages_[i].taps) stages_[i].taps = next->stage_taps()[i];
  }
  front_.step = next->tuning_word();
  plan_ = std::move(next);
}

void FusedChainExec::swap_plan(const ChainPlan& plan, SwapMode mode) {
  // Resolve first: an invalid plan throws before any state moves.
  auto next = CompiledPlanCache::instance().get_or_compile(plan);
  if (mode == SwapMode::kFlush)
    *this = FusedChainExec(std::move(next));
  else
    splice(std::move(next));  // throws, untouched, if structurally incompatible
}

void FusedChainExec::run_front_end(std::span<const std::int64_t> tile) {
  const FrontEndSpec& fe = plan_->plan().front_end;
  const std::uint32_t step = front_.step;
  std::uint32_t& phase = front_.phase;
  const std::size_t m = tile.size();
  cos_tile_.resize(m);
  sin_tile_.resize(m);
  if (fe.nco_mode == dsp::Nco::Mode::kLookupTable) {
    phase = simd::lut_sincos_block(phase, step, plan_->sine_table()->data(),
                                    fe.nco_table_bits, m, cos_tile_.data(),
                                    sin_tile_.data());
  } else {
    for (std::size_t k = 0; k < m; ++k) {
      const dsp::SinCos sc = dsp::taylor_sincos(phase, fe.nco_amplitude_bits);
      cos_tile_[k] = sc.cos;
      sin_tile_[k] = sc.sin;
      phase += step;
    }
  }
  for (int r = 0; r < 2; ++r) {
    mix_tile_[r].resize(m);
    simd::mul_shift_narrow_block(tile.data(), (r == 0 ? cos_tile_ : sin_tile_).data(),
                                 m, mixer_shift_, fe.mixer_out_bits, fe.mixer_rounding,
                                 fixed::Overflow::kSaturate, mixer_narrow_ok_,
                                 mix_tile_[r].data());
  }
}

void FusedChainExec::run_stage(FusedChainExec* const lanes[], int n, std::size_t s,
                               int r, std::span<const std::int64_t> cur[]) {
  // Lane l's raw stage outputs land in out[l], conditioned in place below.
  std::vector<std::int64_t>* out[kMaxLanes];
  for (int l = 0; l < n; ++l) {
    out[l] = &(s % 2 == 0 ? lanes[l]->stage_a_ : lanes[l]->stage_b_)[r];
    out[l]->clear();
  }
  const auto same_input_size = [&](int first, int width) {
    for (int l = first + 1; l < first + width; ++l)
      if (cur[l].size() != cur[first].size()) return false;
    return true;
  };
  const StageState& st0 = lanes[0]->stages_[s];
  switch (st0.kind) {
    case StageSpec::Kind::kPassthrough:
    case StageSpec::Kind::kScale:
      for (int l = 0; l < n; ++l) out[l]->assign(cur[l].begin(), cur[l].end());
      break;
    case StageSpec::Kind::kCic: {
      dsp::CicDecimator* kern[kMaxLanes];
      const std::int64_t* in[kMaxLanes];
      for (int l = 0; l < n; ++l) {
        kern[l] = &lanes[l]->stages_[s].cic[static_cast<std::size_t>(r)];
        in[l] = cur[l].data();
      }
      // The kernels check geometry and decimation phase themselves.
      pack_or_per_lane(
          n,
          [&](int first, int width) {
            if (!same_input_size(first, width)) return false;
            return width == 8 ? dsp::CicDecimator::process_block_packed8(
                                    kern + first, in + first, cur[first].size(), out + first)
                              : dsp::CicDecimator::process_block_packed4(
                                    kern + first, in + first, cur[first].size(), out + first);
          },
          [&](int l) { kern[l]->process_block(cur[l], *out[l]); });
      break;
    }
    case StageSpec::Kind::kFirDecimator:
    case StageSpec::Kind::kPolyphaseFir: {
      // Flat-window form: both FIR forms compute the same MAC set and int64
      // sums are order-independent (mod 2^64), so one contiguous dot per
      // output is bit-exact with either staged structure.  Each lane's window
      // is [its delay line | its stage input].
      const std::vector<std::int64_t>* windows[kMaxLanes];
      bool fits[kMaxLanes];
      for (int l = 0; l < n; ++l) {
        FusedChainExec& lane = *lanes[l];
        const StageState& st = lane.stages_[s];
        const auto& tail = st.tail[static_cast<std::size_t>(r)];
        lane.window_.assign(tail.begin(), tail.end());
        lane.window_.insert(lane.window_.end(), cur[l].begin(), cur[l].end());
        fits[l] = st.taps->fits_i32 &&
                  simd::all_fit_i32(lane.window_.data(), lane.window_.size());
        windows[l] = &lane.window_;
      }
      // Lanes pack when they hold the same TapSet (CoeffPool dedup makes
      // pointer equality tap-value equality) at the same decimation phase.
      pack_or_per_lane(
          n,
          [&](int first, int width) {
            const StageState& a = lanes[first]->stages_[s];
            bool narrow_ok = true;
            for (int l = first; l < first + width; ++l) {
              const StageState& b = lanes[l]->stages_[s];
              if (b.taps != a.taps || b.fir_phase != a.fir_phase) return false;
              narrow_ok = narrow_ok && fits[l];
            }
            if (!same_input_size(first, width) || !packed_tier_available(width))
              return false;
            packed_dot_outputs(a.taps->reversed.data(), a.taps->reversed.size(),
                               windows + first, width, cur[first].size(), a.decimation,
                               a.fir_phase, narrow_ok, out + first);
            return true;
          },
          [&](int l) {
            const StageState& st = lanes[l]->stages_[s];
            const std::vector<std::int64_t>& w = *windows[l];
            const std::size_t d = static_cast<std::size_t>(st.decimation);
            // Input j produces an output when fir_phase + j + 1 is a multiple of d.
            for (std::size_t j = d - 1 - static_cast<std::size_t>(st.fir_phase);
                 j < cur[l].size(); j += d)
              out[l]->push_back(simd::dot_i64(st.taps->reversed.data(), w.data() + j,
                                              st.taps->reversed.size(), fits[l]));
          });
      for (int l = 0; l < n; ++l) {
        StageState& st = lanes[l]->stages_[s];
        auto& tail = st.tail[static_cast<std::size_t>(r)];
        if (!tail.empty())
          tail.assign(windows[l]->end() - static_cast<std::ptrdiff_t>(tail.size()),
                      windows[l]->end());
        if (r == 1)  // both rails consumed the input; advance the shared phase
          st.fir_phase = static_cast<int>(
              (static_cast<std::size_t>(st.fir_phase) + cur[l].size()) %
              static_cast<std::size_t>(st.decimation));
      }
      break;
    }
  }
  // Output conditioning (shift/round/narrow) per lane; a passthrough has none.
  for (int l = 0; l < n; ++l) {
    if (st0.kind != StageSpec::Kind::kPassthrough)
      condition(*out[l], lanes[l]->stages_[s].req);
    cur[l] = *out[l];
  }
}

void FusedChainExec::condition(std::span<std::int64_t> v, const Conditioning& req) {
  for (std::int64_t& x : v) {
    x = fixed::shift_right(x, req.shift, req.rounding);
    if (req.bits != 0) x = fixed::narrow(x, req.bits, fixed::Overflow::kSaturate);
  }
}

simd::FrontEnd32 FusedChainExec::front32_config() const {
  const FrontEndSpec& fe = plan_->plan().front_end;
  const StageSpec& cic = plan_->plan().stages.front();
  simd::FrontEnd32 c;
  c.table = plan_->sine_table()->data();
  c.table_bits = fe.nco_table_bits;
  c.shift = mixer_shift_;
  c.round_add = fe.mixer_rounding == fixed::Rounding::kNearest && mixer_shift_ > 0
                    ? std::int32_t{1} << (mixer_shift_ - 1)
                    : 0;
  c.lo = static_cast<std::int32_t>(fixed::min_for_bits(fe.mixer_out_bits));
  c.hi = static_cast<std::int32_t>(fixed::max_for_bits(fe.mixer_out_bits));
  c.stages = cic.cic_stages;
  c.decimation = cic.decimation;
  c.diff_delay = cic.diff_delay;
  c.register_bits = cic_register_bits(cic);
  return c;
}

void FusedChainExec::run_front32(FusedChainExec* const lanes[], int n,
                                 std::span<const std::int64_t> in) {
  const simd::FrontEnd32 c = lanes[0]->front32_config();
  thread_local std::vector<std::int32_t> raw;
  raw.resize((in.size() / static_cast<std::size_t>(c.decimation) + 1) * 2 * kMaxLanes);
  const auto run = [&](int first, int width) {
    simd::FrontLane32* state[kMaxLanes];
    for (int l = 0; l < width; ++l) state[l] = &lanes[first + l]->front_;
    int count = lanes[first]->count32_;
    const std::size_t k =
        simd::front32(c, state, width, in.data(), in.size(), count, raw.data());
    for (int l = 0; l < width; ++l) {
      FusedChainExec& lane = *lanes[first + l];
      lane.count32_ = count;
      const Conditioning& req = lane.stages_[0].req;
      for (int r = 0; r < 2; ++r) {
        std::vector<std::int64_t>& rail = lane.front_out_[r];
        rail.resize(k);
        const std::int32_t* src = raw.data() + r * width + l;
        for (std::size_t j = 0; j < k; ++j) rail[j] = src[j * 2 * width];
        condition(rail, req);
      }
    }
  };
  pack_or_per_lane(
      n,
      [&](int first, int width) {
        for (int l = first + 1; l < first + width; ++l)
          if (lanes[l]->count32_ != lanes[first]->count32_) return false;
        run(first, width);
        return true;
      },
      [&](int l) { run(l, 1); });
}

void FusedChainExec::process_lanes(FusedChainExec* const lanes[], int n,
                                   std::span<const std::int64_t> in,
                                   std::vector<IqSample>* const out[]) {
  if (n < 1 || n > kMaxLanes)
    throw ConfigError("FusedChainExec::process_lanes: lane count " + std::to_string(n) +
                      " outside [1, " + std::to_string(kMaxLanes) + "]");
  // Lanes advance stage by stage in lockstep, so they must share one
  // structure (which also fixes one front-end input width for all of them).
  for (int l = 1; l < n; ++l)
    if (!lanes[l]->can_splice(*lanes[0]->plan_))
      throw ConfigError("FusedChainExec::process_lanes: lanes differ in structure");
  // All-or-nothing input validation, exactly like the staged pipeline: a
  // mid-block throw must not leave any NCO advanced past its rails.
  const int bits = lanes[0]->plan_->plan().front_end.input_bits;
  if (!simd::all_fit_bits(in.data(), in.size(), bits)) {
    const auto bad = std::find_if(in.begin(), in.end(), [bits](std::int64_t v) {
      return !fixed::fits_bits(v, bits);
    });
    throw SimulationError("FusedChainExec: input " + std::to_string(*bad) +
                          " does not fit " + std::to_string(bits) + " bits");
  }
  if (in.empty()) return;

  // Stage 0 over the whole call, into each lane's front_out_.
  for (int l = 0; l < n; ++l)
    for (auto& rail : lanes[l]->front_out_) rail.clear();
  std::span<const std::int64_t> cur[2][kMaxLanes];
  if (lanes[0]->front32_) {
    run_front32(lanes, n, in);
  } else {
    for (std::size_t off = 0; off < in.size(); off += kFuseTileSamples) {
      const std::span<const std::int64_t> tile =
          in.subspan(off, std::min(kFuseTileSamples, in.size() - off));
      for (int l = 0; l < n; ++l) {
        lanes[l]->run_front_end(tile);
        cur[0][l] = lanes[l]->mix_tile_[0];
        cur[1][l] = lanes[l]->mix_tile_[1];
      }
      for (int r = 0; r < 2; ++r) {
        run_stage(lanes, n, 0, r, cur[r]);
        for (int l = 0; l < n; ++l)
          lanes[l]->front_out_[r].insert(lanes[l]->front_out_[r].end(), cur[r][l].begin(),
                                         cur[r][l].end());
      }
    }
  }

  // The later stages run once per call, on the decimated stream.
  for (int l = 0; l < n; ++l)
    for (int r = 0; r < 2; ++r) cur[r][l] = lanes[l]->front_out_[r];
  for (std::size_t s = 1; s < lanes[0]->stages_.size(); ++s)
    for (int r = 0; r < 2; ++r) run_stage(lanes, n, s, r, cur[r]);
  for (int l = 0; l < n; ++l) {
    if (cur[0][l].size() != cur[1][l].size())
      throw SimulationError("FusedChainExec: I/Q rails lost rate lock");
    std::vector<IqSample>& dst = *out[l];
    const std::size_t base = dst.size();
    dst.resize(base + cur[0][l].size());
    for (std::size_t j = 0; j < cur[0][l].size(); ++j)
      dst[base + j] = IqSample{cur[0][l][j], cur[1][l][j]};
  }
}

void FusedChainExec::process_block(std::span<const std::int64_t> in,
                                   std::vector<IqSample>& out) {
  FusedChainExec* self = this;
  std::vector<IqSample>* sink = &out;
  process_lanes(&self, 1, in, &sink);
}

}  // namespace twiddc::core
