// Plan-compiler layer: canonical/structural keys, coefficient/LUT dedup,
// the process-wide CompiledPlanCache (hit/miss/eviction/holder-survival
// semantics, concurrent compile), and the fused tile executor's bit-exactness
// against the staged DdcPipeline -- across randomized topologies, streaming
// seams, both simd kill-switch states, kSplice retunes, and lane groups of
// 4 and 8 channels.
//
// The cache and pool are process-wide singletons shared with every other
// test in this binary, so every assertion on their counters works on deltas.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/asic/gc4016.hpp"
#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/common/simd.hpp"
#include "src/core/datapath_spec.hpp"
#include "src/core/ddc_config.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/plan_compiler.hpp"
#include "src/dsp/fir_design.hpp"
#include "src/dsp/signal.hpp"
#include "src/fixed/qformat.hpp"

namespace twiddc::core {
namespace {

std::vector<std::int64_t> stimulus(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return dsp::random_samples(12, n, rng);
}

ChainPlan reference_plan(double nco_freq_hz = 10.0e6) {
  return ChainPlan::figure1(DdcConfig::reference(nco_freq_hz),
                            DatapathSpec::wide16());
}

/// A stimulus of `bits`-wide samples where every other sample is full scale
/// (alternately the most negative and the most positive value), so the
/// mixer's products reach their extremes at every NCO phase.
std::vector<std::int64_t> full_scale_stimulus(std::size_t n, std::uint64_t seed,
                                              int bits) {
  Rng rng(seed);
  std::vector<std::int64_t> x = dsp::random_samples(bits, n, rng);
  for (std::size_t i = 0; i < n; i += 2)
    x[i] = i % 4 == 0 ? fixed::min_for_bits(bits) : fixed::max_for_bits(bits);
  return x;
}

/// Same generator family as the backend conformance harness: 2..4 stages
/// drawn from the whole StageSpec vocabulary on a 16-bit rail.  The front
/// end and the first CIC are drawn across the int32 front end's
/// eligibility edges (trial % 4 picks the front end; trials 1..3 lead with
/// a CIC):
///   0: 12-bit input, 16-bit NCO, 16-bit mixer bus (the wide16 front end);
///   1: input + NCO amplitude bits of exactly 32 (the widest int32 case);
///   2: 33 bits with a 32-bit mixer bus (one bit too wide: generic path);
///   3: a 12-bit mixer bus under a 16-bit NCO with kNearest rounding, so a
///      full-scale input rounds past the bus and saturates the mixer.
/// Edge 0 draws a Taylor NCO half the time; the others keep the LUT.
/// The first CIC draws its register width (Hogenauer, exactly 32, or two
/// bits below Hogenauer, which wraps), its differential delay, and a
/// decimation that need not be a multiple of 8 or 16.
ChainPlan random_arbitrary_plan(Rng& rng, int trial) {
  ChainPlan plan;
  plan.name = "compiler-arbitrary-" + std::to_string(trial);
  plan.input_rate_hz = 40.0e6;
  plan.front_end.nco_freq_hz = rng.uniform(2.0e6, 12.0e6);
  FrontEndSpec& fe = plan.front_end;
  fe.mixer_rounding =
      rng.uniform_int(0, 1) == 0 ? fixed::Rounding::kTruncate : fixed::Rounding::kNearest;
  const int edge = trial % 4;
  switch (edge) {
    case 0: fe.input_bits = 12; fe.nco_amplitude_bits = 16; fe.mixer_out_bits = 16; break;
    case 1: fe.input_bits = 14; fe.nco_amplitude_bits = 18; fe.mixer_out_bits = 16; break;
    case 2: fe.input_bits = 15; fe.nco_amplitude_bits = 18; fe.mixer_out_bits = 32; break;
    default:
      fe.input_bits = 12;
      fe.nco_amplitude_bits = 16;
      fe.mixer_out_bits = 12;
      fe.mixer_rounding = fixed::Rounding::kNearest;
      break;
  }
  // Taylor NCOs take the generic path; the edge trials keep the LUT so each
  // edge reaches the int32 kernels whenever its widths allow.
  if (edge == 0 && rng.uniform_int(0, 1) == 0)
    plan.front_end.nco_mode = dsp::Nco::Mode::kTaylor;

  const int n_stages = static_cast<int>(rng.uniform_int(2, 4));
  for (int s = 0; s < n_stages; ++s) {
    const auto pick = s == 0 && edge != 0 ? 0 : rng.uniform_int(0, 2);
    if (pick == 0) {
      const int stages = static_cast<int>(rng.uniform_int(1, 4));
      static constexpr int kFirstDecimations[] = {2, 3, 5, 7, 8, 9, 13, 16, 17, 31};
      const int dec =
          s == 0 ? kFirstDecimations[rng.uniform_int(0, 9)]
                 : static_cast<int>(rng.uniform_int(2, 9));
      StageSpec cic = StageSpec::cic("cic" + std::to_string(s), stages, dec,
                                     s == 0 ? fe.mixer_out_bits : 16);
      if (s == 0) {
        cic.diff_delay = static_cast<int>(rng.uniform_int(1, 2));
        const int hogenauer =
            cic.input_bits + fixed::cic_bit_growth(stages, dec, cic.diff_delay);
        const auto width = rng.uniform_int(0, 2);
        cic.register_bits = width == 0 ? 0 : (width == 1 ? 32 : hogenauer - 2);
      }
      cic.post_shift = std::max(
          0, fixed::cic_bit_growth(stages, dec, cic.diff_delay) + cic.input_bits - 16);
      cic.narrow_bits = 16;
      plan.stages.push_back(std::move(cic));
    } else {
      const int dec = static_cast<int>(rng.uniform_int(2, 4));
      const int taps = static_cast<int>(rng.uniform_int(15, 47));
      auto ideal = dsp::design_lowpass(taps, 0.4 / dec, dsp::Window::kBlackman);
      const auto q = dsp::quantize_coefficients(ideal, 15);
      StageSpec fir =
          pick == 1 ? StageSpec::fir("fir" + std::to_string(s),
                                     {q.begin(), q.end()}, ideal, dec)
                    : StageSpec::polyphase_fir("pfir" + std::to_string(s),
                                               {q.begin(), q.end()}, ideal, dec);
      fir.post_shift = 15;
      fir.narrow_bits = 16;
      plan.stages.push_back(std::move(fir));
    }
  }
  plan.validate();
  return plan;
}

// ------------------------------------------------------------------- keys

TEST(PlanCompilerKeys, CanonicalIgnoresPresentationFields) {
  ChainPlan a = reference_plan();
  ChainPlan b = a;
  b.name = "renamed";
  for (auto& st : b.stages) {
    st.label += "-x";
    st.post_scale *= 2.0;   // float-rail only
    st.taps_float.clear();  // float-rail only
  }
  EXPECT_EQ(canonical_plan_key(a), canonical_plan_key(b));
  EXPECT_EQ(structural_plan_key(a), structural_plan_key(b));
}

TEST(PlanCompilerKeys, CanonicalSeparatesDatapathChanges) {
  const ChainPlan base = reference_plan();
  ChainPlan retuned = base;
  retuned.front_end.nco_freq_hz += 1.0e6;
  EXPECT_NE(canonical_plan_key(base), canonical_plan_key(retuned));

  ChainPlan retapped = base;
  for (auto& st : retapped.stages)
    if (!st.taps.empty()) {
      st.taps[0] += 1;
      break;
    }
  EXPECT_NE(canonical_plan_key(base), canonical_plan_key(retapped));
}

TEST(PlanCompilerKeys, CanonicalFollowsTheQuantisedTuningWord) {
  // Two frequencies inside the same tuning-word LSB execute identically, so
  // they must share a canonical key.  Build both FROM a word so neither sits
  // on a rounding boundary.
  ChainPlan base = reference_plan();
  const auto word = dsp::PhaseAccumulator::tuning_word(
      base.front_end.nco_freq_hz, base.input_rate_hz);
  const double lsb = dsp::PhaseAccumulator::resolution_hz(base.input_rate_hz);
  base.front_end.nco_freq_hz = static_cast<double>(word) * lsb;
  ChainPlan nudged = base;
  nudged.front_end.nco_freq_hz += 0.25 * lsb;
  ASSERT_EQ(dsp::PhaseAccumulator::tuning_word(base.front_end.nco_freq_hz,
                                               base.input_rate_hz),
            dsp::PhaseAccumulator::tuning_word(nudged.front_end.nco_freq_hz,
                                               nudged.input_rate_hz));
  EXPECT_EQ(canonical_plan_key(base), canonical_plan_key(nudged));
}

TEST(PlanCompilerKeys, StructuralKeyDefinesSpliceCompatibility) {
  const ChainPlan base = reference_plan();
  // A retune (frequency + coefficients + conditioning) is splice-compatible:
  // structural keys match while canonical keys differ.
  ChainPlan retune = base;
  retune.front_end.nco_freq_hz += 2.0e6;
  for (auto& st : retune.stages) {
    if (!st.taps.empty())
      for (auto& t : st.taps) t = -t;
    st.rounding = fixed::Rounding::kNearest;
  }
  EXPECT_EQ(structural_plan_key(base), structural_plan_key(retune));
  EXPECT_NE(canonical_plan_key(base), canonical_plan_key(retune));

  // A geometry change is not.
  ChainPlan regeom = base;
  regeom.stages[0].decimation += 1;
  EXPECT_NE(structural_plan_key(base), structural_plan_key(regeom));
}

// ------------------------------------------------------------------ dedup

TEST(PlanCompilerPool, IdenticalPlansShareCoefficientStorage) {
  const ChainPlan plan = reference_plan();
  const CompiledPlan a(plan);
  const CompiledPlan b(plan);
  ASSERT_EQ(a.stage_taps().size(), b.stage_taps().size());
  bool saw_fir = false;
  for (std::size_t i = 0; i < a.stage_taps().size(); ++i) {
    if (!a.stage_taps()[i]) continue;
    saw_fir = true;
    EXPECT_EQ(a.stage_taps()[i].get(), b.stage_taps()[i].get());
  }
  EXPECT_TRUE(saw_fir);
  ASSERT_TRUE(a.sine_table());
  EXPECT_EQ(a.sine_table().get(), b.sine_table().get());
  // Reversed taps are precomputed for the contiguous-window dot kernel.
  for (const auto& ts : a.stage_taps()) {
    if (!ts) continue;
    ASSERT_EQ(ts->forward.size(), ts->reversed.size());
    for (std::size_t k = 0; k < ts->forward.size(); ++k)
      EXPECT_EQ(ts->forward[k], ts->reversed[ts->reversed.size() - 1 - k]);
  }
}

TEST(PlanCompilerPool, PoolHoldsEntriesWeakly) {
  std::vector<std::int64_t> taps = {3, 1, 4, 1, 5, 9, 2, 6};
  auto& pool = CoeffPool::instance();
  const TapSet* first = nullptr;
  {
    auto held = pool.taps(taps);
    first = held.get();
    EXPECT_EQ(pool.taps(taps).get(), first);  // live entry dedups
  }
  // Both holders dropped: the pool must not keep the artifact alive, so a
  // fresh request allocates (possibly at the same address -- compare
  // CONTENT identity via the stats delta instead).
  const auto before = pool.stats();
  auto fresh = pool.taps(taps);
  const auto after = pool.stats();
  EXPECT_EQ(after.tap_requests, before.tap_requests + 1);
  EXPECT_EQ(after.tap_hits, before.tap_hits);  // expired -> miss, recompute
}

// ------------------------------------------------------------------ cache

TEST(PlanCompilerCache, HitMissEvictionSemantics) {
  auto& cache = CompiledPlanCache::instance();
  cache.clear();
  cache.set_capacity(2);
  const auto base = cache.stats();

  const ChainPlan p1 = reference_plan(9.0e6);
  const ChainPlan p2 = reference_plan(10.0e6);
  const ChainPlan p3 = reference_plan(11.0e6);

  auto c1 = cache.get_or_compile(p1);
  EXPECT_EQ(cache.stats().misses, base.misses + 1);
  auto c1_again = cache.get_or_compile(p1);
  EXPECT_EQ(c1.get(), c1_again.get());
  EXPECT_EQ(cache.stats().hits, base.hits + 1);

  (void)cache.get_or_compile(p2);
  (void)cache.get_or_compile(p3);  // capacity 2: evicts the LRU entry (p1)
  EXPECT_EQ(cache.stats().evictions, base.evictions + 1);
  EXPECT_EQ(cache.stats().entries, 2u);

  // Eviction never invalidates holders: c1 still executes.
  FusedChainExec exec(c1);
  std::vector<IqSample> sink;
  exec.process_block(stimulus(1024, 7), sink);

  // Re-requesting the evicted plan recompiles (a miss, not a hit).
  const auto before = cache.stats();
  auto c1_re = cache.get_or_compile(p1);
  EXPECT_EQ(cache.stats().misses, before.misses + 1);
  EXPECT_EQ(c1_re->canonical_key(), c1->canonical_key());

  cache.set_capacity(CompiledPlanCache::kDefaultCapacity);
  cache.clear();
}

TEST(PlanCompilerCache, InvalidPlansThrowWithoutCaching) {
  auto& cache = CompiledPlanCache::instance();
  ChainPlan bad = reference_plan();
  bad.input_rate_hz = -1.0;
  const auto before = cache.stats();
  EXPECT_THROW((void)cache.get_or_compile(bad), ConfigError);
  EXPECT_EQ(cache.stats().entries, before.entries);

  // Front-end widths int64 lanes cannot hold are rejected by validate(), so
  // the staged pipeline and the compiler refuse them alike (49 bits: the
  // product with the 16-bit NCO needs 64).
  for (int input_bits : {0, 64, 70, 49}) {
    ChainPlan wide = reference_plan();
    wide.front_end.input_bits = input_bits;
    EXPECT_THROW(wide.validate(), ConfigError) << input_bits;
    EXPECT_THROW(DdcPipeline{wide}, ConfigError) << input_bits;
    EXPECT_THROW((void)cache.get_or_compile(wide), ConfigError) << input_bits;
  }
  EXPECT_EQ(cache.stats().entries, before.entries);
}

TEST(PlanCompilerCache, ConcurrentGetOrCompileSharesOneArtifact) {
  auto& cache = CompiledPlanCache::instance();
  cache.clear();
  const ChainPlan plan = reference_plan(13.0e6);
  const auto before = cache.stats();
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const CompiledPlan>> got(kThreads);
  {
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
      pool.emplace_back([&cache, &plan, &got, t] {
        for (int i = 0; i < 16; ++i) got[static_cast<std::size_t>(t)] =
            cache.get_or_compile(plan);
      });
    for (auto& th : pool) th.join();
  }
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(got[0].get(), got[static_cast<std::size_t>(t)].get());
  const auto after = cache.stats();
  // Compilation happens under the cache mutex: exactly one compile no matter
  // how the threads interleave.
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_EQ(after.lookups, before.lookups + kThreads * 16);
}

// ------------------------------------------------------------ fused exec

void expect_fused_matches_staged(const ChainPlan& plan, std::uint64_t seed,
                                 bool simd_on) {
  simd::ScopedEnable guard(simd_on);
  DdcPipeline staged(plan);
  FusedChainExec fused(CompiledPlanCache::instance().get_or_compile(plan));

  // Two uneven blocks: the second exercises the carried state (NCO phase,
  // CIC registers, FIR tails, decimation phases) across the seam.  4097
  // also exercises the kernels' partial-register tails, and the blocks of
  // 1..17 samples after them run on tails alone.
  const int bits = plan.front_end.input_bits;
  std::vector<std::vector<std::int64_t>> blocks = {
      full_scale_stimulus(4097, seed, bits),
      full_scale_stimulus(2688 * 2 + 13, seed + 1, bits)};
  for (std::size_t len = 1; len <= 17; ++len)
    blocks.push_back(full_scale_stimulus(len, seed + 1 + len, bits));
  std::vector<IqSample> want;
  std::vector<IqSample> got;
  for (const auto& block : blocks) {
    staged.process_block(block, want);
    fused.process_block(block, got);
  }
  ASSERT_EQ(want.size(), got.size()) << plan.name << " simd=" << simd_on;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i], got[i]) << plan.name << " sample " << i
                               << " simd=" << simd_on;
  }
}

TEST(FusedChainExec, Figure1BitExactWithStagedPipeline) {
  expect_fused_matches_staged(reference_plan(), 11, true);
}

TEST(FusedChainExec, KillSwitchForcesScalarAndStaysBitExact) {
  // simd::set_enabled(false) must route the fused kernels onto the scalar
  // path too; outputs stay identical to the (also scalar) staged pipeline.
  expect_fused_matches_staged(reference_plan(), 12, false);
}

TEST(FusedChainExec, RandomizedTopologiesBitExactBothSimdStates) {
  Rng rng(2026);
  for (int trial = 0; trial < 24; ++trial) {
    const ChainPlan plan = random_arbitrary_plan(rng, trial);
    // Each front-end edge (trial % 4) runs under both kill-switch states.
    expect_fused_matches_staged(plan, 100 + static_cast<std::uint64_t>(trial),
                                trial % 8 < 4);
  }
}

TEST(FusedChainExec, RejectsOutOfRangeInputWithoutAdvancingState) {
  const ChainPlan plan = reference_plan();
  FusedChainExec fused(CompiledPlanCache::instance().get_or_compile(plan));
  DdcPipeline staged(plan);

  std::vector<std::int64_t> bad = stimulus(512, 3);
  bad[300] = std::int64_t{1} << 40;  // does not fit 12 bits
  std::vector<IqSample> sink;
  EXPECT_THROW(fused.process_block(bad, sink), SimulationError);
  EXPECT_THROW(staged.process_block(bad, sink), SimulationError);

  // All-or-nothing: no state advanced, so the SAME instances must still
  // agree on the next (valid) block.
  const auto good = stimulus(2688 * 2, 5);
  std::vector<IqSample> want;
  std::vector<IqSample> got;
  staged.process_block(good, want);
  fused.process_block(good, got);
  EXPECT_EQ(want, got);
}

TEST(FusedChainExec, SpliceToCachedPlanMatchesStagedSplice) {
  auto& cache = CompiledPlanCache::instance();
  const ChainPlan base = reference_plan();

  // A retune: new frequency, negated FIR taps, nearest rounding -- the
  // structural form is unchanged, so the retune resolves to a (possibly
  // already cached) CompiledPlan and splices in.
  ChainPlan retune = base;
  retune.name = "retuned";
  retune.front_end.nco_freq_hz += 1.5e6;
  for (auto& st : retune.stages)
    if (!st.taps.empty())
      for (auto& t : st.taps) t = -t;

  // Pre-populate the cache with the retune target: the splice must reuse it.
  const auto cached_target = cache.get_or_compile(retune);

  DdcPipeline staged(base);
  FusedChainExec fused(cache.get_or_compile(base));
  std::vector<IqSample> want;
  std::vector<IqSample> got;
  const auto pre = stimulus(2688, 21);
  staged.process_block(pre, want);
  fused.process_block(pre, got);
  ASSERT_EQ(want, got);

  staged.swap_plan(retune, SwapMode::kSplice);
  ASSERT_TRUE(fused.can_splice(*cached_target));
  fused.splice(cache.get_or_compile(retune));
  EXPECT_EQ(fused.compiled_ptr().get(), cached_target.get());

  want.clear();
  got.clear();
  const auto post = stimulus(2688 * 2, 22);
  staged.process_block(post, want);
  fused.process_block(post, got);
  EXPECT_EQ(want, got);
}

TEST(FusedChainExec, SpliceRejectsStructuralChanges) {
  auto& cache = CompiledPlanCache::instance();
  ChainPlan other = reference_plan();
  other.stages[0].decimation += 1;
  FusedChainExec fused(cache.get_or_compile(reference_plan()));
  const auto incompatible = cache.get_or_compile(other);
  EXPECT_FALSE(fused.can_splice(*incompatible));
  EXPECT_THROW(fused.splice(incompatible), ConfigError);
}

// ------------------------------------------------------------ key properties

TEST(PlanCompilerKeys, EveryDatapathFieldChangesTheCanonicalKey) {
  const ChainPlan base = reference_plan();  // cic2 -> cic5 -> polyphase fir
  const std::string key = canonical_plan_key(base);
  using Edit = std::pair<const char*, std::function<void(ChainPlan&)>>;
  const std::vector<Edit> edits = {
      {"input rate", [](ChainPlan& p) { p.input_rate_hz *= 2.0; }},
      {"tuning word", [](ChainPlan& p) { p.front_end.nco_freq_hz += 1.0e3; }},
      {"nco amplitude bits", [](ChainPlan& p) { p.front_end.nco_amplitude_bits -= 1; }},
      {"nco table bits", [](ChainPlan& p) { p.front_end.nco_table_bits -= 1; }},
      {"nco mode", [](ChainPlan& p) { p.front_end.nco_mode = dsp::Nco::Mode::kTaylor; }},
      {"input bits", [](ChainPlan& p) { p.front_end.input_bits += 1; }},
      {"mixer bits", [](ChainPlan& p) { p.front_end.mixer_out_bits -= 1; }},
      {"mixer rounding",
       [](ChainPlan& p) { p.front_end.mixer_rounding = fixed::Rounding::kNearest; }},
      {"stage kind",
       [](ChainPlan& p) { p.stages[2].kind = StageSpec::Kind::kFirDecimator; }},
      {"decimation", [](ChainPlan& p) { p.stages[0].decimation += 1; }},
      {"cic stages", [](ChainPlan& p) { p.stages[1].cic_stages -= 1; }},
      {"diff delay", [](ChainPlan& p) { p.stages[1].diff_delay = 2; }},
      {"cic input bits", [](ChainPlan& p) { p.stages[1].input_bits += 1; }},
      {"register bits", [](ChainPlan& p) { p.stages[0].register_bits = 40; }},
      {"empty vs populated prune shifts",
       [](ChainPlan& p) { p.stages[0].prune_shifts.assign(2, 0); }},
      {"tap value", [](ChainPlan& p) { p.stages[2].taps[5] += 1; }},
      {"tap count", [](ChainPlan& p) { p.stages[2].taps.push_back(0); }},
      {"post shift", [](ChainPlan& p) { p.stages[2].post_shift += 1; }},
      {"narrow bits", [](ChainPlan& p) { p.stages[1].narrow_bits -= 1; }},
      {"rounding", [](ChainPlan& p) { p.stages[0].rounding = fixed::Rounding::kNearest; }},
      {"stage count", [](ChainPlan& p) { p.stages.push_back(StageSpec::passthrough()); }},
  };
  ASSERT_EQ(base.stages[0].rounding, fixed::Rounding::kTruncate);
  for (const auto& [what, edit] : edits) {
    ChainPlan p = base;
    edit(p);
    EXPECT_NE(canonical_plan_key(p), key) << what;
  }
}

/// One random edit of `p` that keeps it valid: either a field a kSplice may
/// change (frequency, coefficients, conditioning) or a structural one.
void mutate(ChainPlan& p, Rng& rng) {
  StageSpec& st = p.stages[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(p.stages.size()) - 1))];
  const bool cic = st.kind == StageSpec::Kind::kCic;
  switch (rng.uniform_int(0, 14)) {
    case 0: p.front_end.nco_freq_hz = rng.uniform(1.0e6, 15.0e6); break;
    case 1: st.post_shift += 1; break;
    case 2: st.narrow_bits = st.narrow_bits == 16 ? 18 : 16; break;
    case 3: st.rounding = fixed::Rounding::kNearest; break;
    case 4:
      if (!st.taps.empty()) st.taps[st.taps.size() / 2] += 1;
      break;
    case 5: p.input_rate_hz *= 1.5; break;
    case 6: p.front_end.mixer_out_bits -= 1; break;
    case 7: p.front_end.nco_mode = dsp::Nco::Mode::kTaylor; break;
    case 8:
      if (st.kind != StageSpec::Kind::kScale) st.decimation += 1;
      break;
    case 9:
      if (cic) {
        st.cic_stages = st.cic_stages % 8 + 1;
        if (!st.prune_shifts.empty())
          st.prune_shifts.assign(static_cast<std::size_t>(st.cic_stages), 0);
      }
      break;
    case 10:
      if (cic)
        st.prune_shifts = st.prune_shifts.empty()
                              ? std::vector<int>(static_cast<std::size_t>(st.cic_stages), 0)
                              : std::vector<int>{};
      break;
    case 11:
      if (cic) st.register_bits = st.register_bits == 0 ? 60 : 0;
      break;
    case 12:
      if (!st.taps.empty()) st.taps.push_back(1);
      break;
    case 13:
      if (!cic)
        st.kind = st.kind == StageSpec::Kind::kFirDecimator
                      ? StageSpec::Kind::kPolyphaseFir
                      : StageSpec::Kind::kFirDecimator;
      break;
    default: p.stages.push_back(StageSpec::scale("extra", 1, 16)); break;
  }
}

TEST(PlanCompilerKeys, EqualStructuralKeysIffStagedSpliceAccepts) {
  Rng rng(0x5eed);
  int accepted = 0;
  int rejected = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const ChainPlan a = random_arbitrary_plan(rng, trial);
    ChainPlan b = a;
    const auto edits = rng.uniform_int(1, 3);
    for (std::int64_t e = 0; e < edits; ++e) mutate(b, rng);
    ASSERT_NO_THROW(b.validate()) << "trial " << trial;

    DdcPipeline staged(a);
    bool splices = true;
    try {
      staged.swap_plan(b, SwapMode::kSplice);
    } catch (const ConfigError&) {
      splices = false;
    }
    const std::string sa = structural_plan_key(a);
    const std::string sb = structural_plan_key(b);
    EXPECT_EQ(sa == sb, splices) << "trial " << trial;
    (splices ? accepted : rejected) += 1;
    // Prefix-free: distinct keys never extend one another, so concatenated
    // keys stay unambiguous.
    for (const auto& [ka, kb] : {std::pair{sa, sb},
                                 std::pair{canonical_plan_key(a), canonical_plan_key(b)}}) {
      if (ka == kb) continue;
      EXPECT_NE(ka.compare(0, kb.size(), kb), 0) << "trial " << trial;
      EXPECT_NE(kb.compare(0, ka.size(), ka), 0) << "trial " << trial;
    }
  }
  // Both sides of the equivalence are exercised.
  EXPECT_GT(accepted, 20);
  EXPECT_GT(rejected, 20);
}

TEST(PlanCompilerKeys, EqualCanonicalKeysGiveIdenticalOutputs) {
  Rng rng(0xca11);
  for (int trial = 0; trial < 6; ++trial) {
    ChainPlan a = random_arbitrary_plan(rng, 700 + trial);
    // Pin the frequency to a tuning word so the twin can move inside its LSB.
    const double lsb = dsp::PhaseAccumulator::resolution_hz(a.input_rate_hz);
    a.front_end.nco_freq_hz =
        static_cast<double>(dsp::PhaseAccumulator::tuning_word(a.front_end.nco_freq_hz,
                                                               a.input_rate_hz)) *
        lsb;
    ChainPlan b = a;
    b.name = "twin";
    b.front_end.nco_freq_hz += 0.25 * lsb;
    for (auto& st : b.stages) {
      st.label += "-twin";
      st.post_scale *= 3.0;
      st.taps_float.clear();
    }
    ASSERT_EQ(canonical_plan_key(a), canonical_plan_key(b)) << a.name;

    const auto input = stimulus(4097, 800 + static_cast<std::uint64_t>(trial));
    DdcPipeline pa(a);
    DdcPipeline pb(b);
    std::vector<IqSample> out_a;
    std::vector<IqSample> out_b;
    pa.process_block(input, out_a);
    pb.process_block(input, out_b);
    EXPECT_EQ(out_a, out_b) << a.name;
    EXPECT_EQ(CompiledPlanCache::instance().get_or_compile(a).get(),
              CompiledPlanCache::instance().get_or_compile(b).get())
        << a.name;
  }
}

// --------------------------------------------------------- fused swap_plan

TEST(FusedChainExec, SwapPlanFollowsTheStagedContract) {
  const ChainPlan base = reference_plan();
  ChainPlan hop = base;
  hop.front_end.nco_freq_hz += 1.0e6;
  ChainPlan regeom = base;
  regeom.stages[1].decimation += 2;
  ChainPlan invalid = base;
  invalid.stages[0].decimation = 0;

  DdcPipeline staged(base);
  FusedChainExec fused(CompiledPlanCache::instance().get_or_compile(base));
  std::vector<IqSample> want;
  std::vector<IqSample> got;
  const auto run = [&](std::uint64_t seed) {
    const auto block = stimulus(2688 + 311, seed);
    staged.process_block(block, want);
    fused.process_block(block, got);
  };
  run(41);
  // Rejected swaps leave the old plan running on both paths.
  EXPECT_THROW(staged.swap_plan(regeom, SwapMode::kSplice), ConfigError);
  EXPECT_THROW(fused.swap_plan(regeom, SwapMode::kSplice), ConfigError);
  EXPECT_THROW(fused.swap_plan(invalid, SwapMode::kFlush), ConfigError);
  run(42);
  staged.swap_plan(hop, SwapMode::kSplice);
  fused.swap_plan(hop, SwapMode::kSplice);
  run(43);
  staged.swap_plan(regeom, SwapMode::kFlush);
  fused.swap_plan(regeom, SwapMode::kFlush);
  run(44);
  EXPECT_EQ(fused.compiled().canonical_key(), canonical_plan_key(regeom));
  EXPECT_EQ(want, got);
}

// ------------------------------------------------------------ lane groups
//
// process_lanes against the reference: every lane of a group must equal its
// own staged DdcPipeline fed the same blocks, whatever packs and whatever
// falls back per lane.

/// `n` lanes of `base`, each detuned by 37 kHz more than the last: one
/// structure, a different stream per lane.
std::vector<ChainPlan> lane_plans(const ChainPlan& base, int n) {
  std::vector<ChainPlan> plans;
  for (int l = 0; l < n; ++l) {
    ChainPlan p = base;
    p.front_end.nco_freq_hz += 37.0e3 * l;
    plans.push_back(std::move(p));
  }
  return plans;
}

/// A lane group and one staged pipeline per lane, fed identical blocks.
class LaneRig {
 public:
  explicit LaneRig(const std::vector<ChainPlan>& plans)
      : got_(plans.size()), want_(plans.size()) {
    for (const ChainPlan& p : plans) {
      lanes_.emplace_back(CompiledPlanCache::instance().get_or_compile(p));
      refs_.emplace_back(p);
    }
  }

  void feed(std::span<const std::int64_t> block) {
    FusedChainExec* lanes[FusedChainExec::kMaxLanes];
    std::vector<IqSample>* outs[FusedChainExec::kMaxLanes];
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      lanes[l] = &lanes_[l];
      outs[l] = &got_[l];
      refs_[l].process_block(block, want_[l]);
    }
    FusedChainExec::process_lanes(lanes, static_cast<int>(lanes_.size()), block, outs);
  }

  /// Feeds `input` in ragged blocks of 1..3000 samples, a quarter of them
  /// 1..17 samples long, so block seams fall inside tiles, registers, stage
  /// decimations and FIR windows.
  void feed_ragged(const std::vector<std::int64_t>& input, Rng& rng) {
    for (std::size_t pos = 0; pos < input.size();) {
      const auto drawn = rng.uniform_int(0, 3) == 0 ? rng.uniform_int(1, 17)
                                                    : rng.uniform_int(1, 3000);
      const auto len =
          std::min<std::size_t>(static_cast<std::size_t>(drawn), input.size() - pos);
      feed({input.data() + pos, len});
      pos += len;
    }
  }

  FusedChainExec& lane(std::size_t l) { return lanes_[l]; }
  DdcPipeline& ref(std::size_t l) { return refs_[l]; }

  void expect_lanes_match(const std::string& what) const {
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      EXPECT_FALSE(want_[l].empty()) << what << " lane " << l;
      EXPECT_EQ(got_[l], want_[l]) << what << " lane " << l << " of " << lanes_.size();
    }
  }

 private:
  std::vector<FusedChainExec> lanes_;
  std::vector<DdcPipeline> refs_;
  std::vector<std::vector<IqSample>> got_;
  std::vector<std::vector<IqSample>> want_;
};

void expect_group_matches(const ChainPlan& base, int n, std::uint64_t seed,
                          const std::string& what) {
  LaneRig rig(lane_plans(base, n));
  Rng rng(seed);
  rig.feed_ragged(
      full_scale_stimulus(static_cast<std::size_t>(base.total_decimation()) * 4 + 777,
                          seed, base.front_end.input_bits),
      rng);
  rig.expect_lanes_match(what + " n=" + std::to_string(n));
}

/// The paper's other lane-group shapes: the burst plan (CIC2 /12, CIC5 /14,
/// 97-tap FIR) and the GC4016 Figure 4 chain (CIC5 -> CFIR -> PFIR).
ChainPlan burst_plan() {
  DdcConfig cfg = DdcConfig::reference(9.0e6);
  cfg.cic2_decimation = 12;
  cfg.cic5_decimation = 14;
  cfg.fir_taps = 97;
  return ChainPlan::figure1(cfg, DatapathSpec::wide16());
}

ChainPlan figure4_plan() {
  asic::Gc4016ChannelConfig ch;
  ch.nco_freq_hz = 15.0e6;
  ch.cic_decimation = 64;
  return asic::Gc4016Channel::figure4_plan(ch, 69.333e6, 14);
}

TEST(FusedChainExecLanes, PaperPlansMatchTheirStagedPipelines) {
  for (const int n : {4, 8}) {
    expect_group_matches(reference_plan(), n, 61, "figure1");
    expect_group_matches(burst_plan(), n, 62, "burst");
    expect_group_matches(figure4_plan(), n, 63, "figure4");
  }
}

TEST(FusedChainExecLanes, RandomTopologiesMatchBothSimdStates) {
  // Every lane has its own tuning word (lane_plans detunes each lane), and
  // each front-end edge (trial % 4) runs as quads and octets under both
  // kill-switch states.
  Rng rng(0x1a2e);
  for (int trial = 0; trial < 16; ++trial) {
    const ChainPlan plan = random_arbitrary_plan(rng, 900 + trial);
    simd::ScopedEnable guard(trial % 16 < 8);
    expect_group_matches(plan, trial % 8 < 4 ? 4 : 8,
                         1000 + static_cast<std::uint64_t>(trial), plan.name);
  }
}

TEST(FusedChainExecLanes, RandomTapFirShapesMatchAcrossSeams) {
  // Integer taps anywhere in int16 (1..40 of them, decimation 1..9) behind a
  // CIC, in both FIR forms -- the shapes the packed dot kernels must match.
  Rng rng(0xf14);
  for (int trial = 0; trial < 8; ++trial) {
    ChainPlan plan;
    plan.name = "random-taps-" + std::to_string(trial);
    plan.input_rate_hz = 40.0e6;
    plan.front_end.nco_freq_hz = rng.uniform(2.0e6, 12.0e6);
    StageSpec cic = StageSpec::cic("cic", 3, static_cast<int>(rng.uniform_int(2, 5)), 16);
    cic.post_shift = fixed::cic_bit_growth(3, cic.decimation);
    cic.narrow_bits = 16;
    std::vector<std::int64_t> taps(static_cast<std::size_t>(rng.uniform_int(1, 40)));
    for (auto& t : taps) t = rng.uniform_int(-32768, 32767);
    const int d = static_cast<int>(rng.uniform_int(1, 9));
    StageSpec fir = trial % 2 == 0 ? StageSpec::fir("fir", taps, {}, d)
                                   : StageSpec::polyphase_fir("pfir", taps, {}, d);
    fir.post_shift = 15;
    fir.narrow_bits = 16;
    plan.stages = {cic, fir};
    expect_group_matches(plan, trial < 4 ? 4 : 8, 1100 + static_cast<std::uint64_t>(trial),
                         plan.name);
  }
}

TEST(FusedChainExecLanes, KillSwitchAndAvx512CapFlipsMidStream) {
  // Tiers come and go between blocks: octets fall back to quads under the
  // AVX-512 cap and to per-lane scalar stages under the kill switch, with
  // every lane's state carried across the switches.
  for (const int n : {4, 8}) {
    LaneRig rig(lane_plans(reference_plan(), n));
    Rng rng(71);
    for (int step = 0; step < 6; ++step) {
      const auto block = stimulus(2688 + static_cast<std::size_t>(rng.uniform_int(0, 900)),
                                  72 + static_cast<std::uint64_t>(step));
      simd::ScopedEnable on(step % 3 != 1);
      simd::ScopedAvx512 cap(step % 3 != 2);
      rig.feed(block);
    }
    rig.expect_lanes_match("tier flips n=" + std::to_string(n));
  }
}

TEST(FusedChainExecLanes, LaneWithOtherTapsStaysExact) {
  // One lane's FIR taps differ (same count, so same structure): the FIR
  // stage declines to pack for that lane's group while its CIC stages
  // still pack.
  for (const int n : {4, 8}) {
    std::vector<ChainPlan> plans = lane_plans(reference_plan(), n);
    for (auto& t : plans[1].stages[2].taps) t = -t;
    LaneRig rig(plans);
    Rng rng(81);
    rig.feed_ragged(stimulus(2688 * 3 + 55, 82), rng);
    rig.expect_lanes_match("other taps n=" + std::to_string(n));
  }
}

TEST(FusedChainExecLanes, FlushedLaneRunsOutOfPhase) {
  // A kFlush mid-stream restarts one lane's decimation phases; from then on
  // its group's CIC and FIR stages run that lane per lane.
  for (const int n : {4, 8}) {
    const std::vector<ChainPlan> plans = lane_plans(reference_plan(), n);
    LaneRig rig(plans);
    Rng rng(91);
    rig.feed_ragged(stimulus(2688 + 1234, 92), rng);
    rig.lane(2).swap_plan(plans[2], SwapMode::kFlush);
    rig.ref(2).swap_plan(plans[2], SwapMode::kFlush);
    rig.feed_ragged(stimulus(2688 * 3, 93), rng);
    rig.expect_lanes_match("flushed lane n=" + std::to_string(n));
  }
}

TEST(FusedChainExecLanes, RejectsBadGroupsWithoutAdvancingState) {
  LaneRig rig(lane_plans(reference_plan(), 4));
  ChainPlan other = reference_plan();
  other.stages[0].decimation += 1;
  FusedChainExec odd(CompiledPlanCache::instance().get_or_compile(other));
  std::vector<IqSample> sink[FusedChainExec::kMaxLanes + 1];
  FusedChainExec* lanes[FusedChainExec::kMaxLanes + 1];
  std::vector<IqSample>* outs[FusedChainExec::kMaxLanes + 1];
  for (int l = 0; l <= FusedChainExec::kMaxLanes; ++l) {
    lanes[l] = &rig.lane(static_cast<std::size_t>(l % 4));
    outs[l] = &sink[l];
  }
  const auto good = stimulus(512, 5);
  EXPECT_THROW(FusedChainExec::process_lanes(lanes, 0, good, outs), ConfigError);
  EXPECT_THROW(FusedChainExec::process_lanes(lanes, FusedChainExec::kMaxLanes + 1,
                                             good, outs),
               ConfigError);
  lanes[3] = &odd;  // a different structure cannot join the group
  EXPECT_THROW(FusedChainExec::process_lanes(lanes, 4, good, outs), ConfigError);
  lanes[3] = &rig.lane(3);
  auto bad = good;
  bad[300] = std::int64_t{1} << 40;  // does not fit 12 bits
  EXPECT_THROW(FusedChainExec::process_lanes(lanes, 4, bad, outs), SimulationError);
  // Nothing advanced: the group still tracks its references exactly.
  rig.feed(stimulus(2688 * 2, 6));
  rig.expect_lanes_match("after rejections");
}

}  // namespace
}  // namespace twiddc::core
