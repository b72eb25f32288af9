// ChannelBank: N batched channels must equal N independent single-channel
// runs, serial and sharded modes must agree bit-for-bit, and retunes through
// channel(i).swap_plan must follow the staged pipeline's swap contract.
#include "src/core/channel_bank.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/simd.hpp"
#include "src/core/datapath_spec.hpp"
#include "src/core/ddc_config.hpp"
#include "src/dsp/signal.hpp"

namespace twiddc::core {
namespace {

std::vector<ChainPlan> detuned_plans(std::size_t n) {
  const auto cfg = DdcConfig::reference(10.0e6);
  const auto spec = DatapathSpec::wide16();
  std::vector<ChainPlan> plans;
  for (std::size_t c = 0; c < n; ++c) {
    auto ch = cfg;
    ch.nco_freq_hz = cfg.nco_freq_hz + 40.0e3 * static_cast<double>(c);
    plans.push_back(ChainPlan::figure1(ch, spec));
  }
  return plans;
}

std::vector<std::int64_t> stimulus(std::size_t n) {
  const auto cfg = DdcConfig::reference(10.0e6);
  return dsp::quantize_signal(dsp::make_tone(10.0025e6, cfg.input_rate_hz, n, 0.7), 12);
}

void expect_equal(const std::vector<IqSample>& a, const std::vector<IqSample>& b,
                  std::size_t channel) {
  ASSERT_EQ(a.size(), b.size()) << "channel " << channel;
  for (std::size_t k = 0; k < a.size(); ++k) {
    ASSERT_EQ(a[k].i, b[k].i) << "channel " << channel << " sample " << k;
    ASSERT_EQ(a[k].q, b[k].q) << "channel " << channel << " sample " << k;
  }
}

TEST(ChannelBank, RejectsEmptyPlanList) {
  EXPECT_THROW(ChannelBank({}), twiddc::ConfigError);
}

TEST(ChannelBank, BatchEqualsIndependentRuns) {
  const auto plans = detuned_plans(4);
  const auto input = stimulus(2688 * 5);

  ChannelBank bank(plans);
  std::vector<std::vector<IqSample>> got;
  bank.process_block(input, got);
  ASSERT_EQ(got.size(), plans.size());

  for (std::size_t c = 0; c < plans.size(); ++c) {
    DdcPipeline solo(plans[c]);
    std::vector<IqSample> want;
    solo.process_block(input, want);
    expect_equal(got[c], want, c);
  }
}

TEST(ChannelBank, ShardedEqualsSerial) {
  const auto plans = detuned_plans(5);  // odd count: uneven shards
  const auto input = stimulus(2688 * 4);

  ChannelBank serial(plans, 1);
  std::vector<std::vector<IqSample>> want;
  serial.process_block(input, want);

  for (int workers : {2, 3, 5}) {
    ChannelBank sharded(plans, workers);
    std::vector<std::vector<IqSample>> got;
    sharded.process_block(input, got);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t c = 0; c < want.size(); ++c) expect_equal(got[c], want[c], c);
  }
}

TEST(ChannelBank, StreamingBlocksAccumulatePlanarOutputs) {
  const auto plans = detuned_plans(2);
  const auto input = stimulus(2688 * 3);

  ChannelBank whole(plans);
  std::vector<std::vector<IqSample>> want;
  whole.process_block(input, want);

  ChannelBank chunked(plans);
  std::vector<std::vector<IqSample>> got;
  const std::size_t half = input.size() / 2;
  chunked.process_block(std::span<const std::int64_t>(input.data(), half), got);
  chunked.process_block(
      std::span<const std::int64_t>(input.data() + half, input.size() - half), got);
  for (std::size_t c = 0; c < want.size(); ++c) expect_equal(got[c], want[c], c);
}

TEST(ChannelBank, ResetRestoresFreshState) {
  const auto plans = detuned_plans(2);
  const auto input = stimulus(2688 * 2);

  ChannelBank bank(plans);
  std::vector<std::vector<IqSample>> first;
  bank.process_block(input, first);
  bank.reset();
  std::vector<std::vector<IqSample>> second;
  bank.process_block(input, second);
  for (std::size_t c = 0; c < first.size(); ++c)
    expect_equal(second[c], first[c], c);
}

TEST(ChannelBank, WorkerCountIsClampedToChannels) {
  ChannelBank wide(detuned_plans(2), 16);
  EXPECT_EQ(wide.workers(), 2);
  ASSERT_NE(wide.scheduler(), nullptr);
  EXPECT_EQ(wide.scheduler()->workers(), 1);  // the caller is the other worker
  ChannelBank serial(detuned_plans(2), 0);
  EXPECT_EQ(serial.workers(), 1);
  EXPECT_EQ(serial.scheduler(), nullptr);
}

// Channels whose plans decimate at very different rates (the skewed-shard
// case the thread-pool follow-up flagged): shard partitions are uneven in
// work, but batching and sharding must stay bit-exact with solo runs.
TEST(ChannelBank, SkewedDecimationsStayBitExact) {
  const auto spec = DatapathSpec::wide16();
  auto light = DdcConfig::reference(10.0e6);  // 16 * 21 * 8 = 2688
  auto heavy = light;
  heavy.cic2_decimation = 64;
  heavy.cic5_decimation = 42;
  heavy.fir_decimation = 16;  // 43008: 16x the light channel's decimation
  auto mid = light;
  mid.cic2_decimation = 8;
  mid.fir_decimation = 4;  // 672: a fast, output-heavy channel
  const std::vector<ChainPlan> plans = {
      ChainPlan::figure1(light, spec),
      ChainPlan::figure1(heavy, spec),
      ChainPlan::figure1(mid, spec),
  };
  const auto input = stimulus(43008 * 2);

  ChannelBank serial(plans, 1);
  std::vector<std::vector<IqSample>> want;
  serial.process_block(input, want);
  EXPECT_FALSE(want[0].empty());
  EXPECT_FALSE(want[1].empty());
  EXPECT_FALSE(want[2].empty());
  EXPECT_GT(want[2].size(), want[1].size());  // skew is real

  for (std::size_t c = 0; c < plans.size(); ++c) {
    DdcPipeline solo(plans[c]);
    std::vector<IqSample> solo_out;
    solo.process_block(input, solo_out);
    expect_equal(want[c], solo_out, c);
  }
  for (int workers : {2, 3}) {
    ChannelBank sharded(plans, workers);
    std::vector<std::vector<IqSample>> got;
    sharded.process_block(input, got);
    for (std::size_t c = 0; c < want.size(); ++c) expect_equal(got[c], want[c], c);
  }
}

// More lane groups than workers with heavy skew: whichever thread claims a
// group runs it, so the planar outputs must stay bit-identical to serial
// execution block after block, and every block hands the pool exactly
// min(workers, units) - 1 drain tasks (the caller drains too).
TEST(ChannelBank, SkewedParallelDrainStaysBitExact) {
  const auto spec = DatapathSpec::wide16();
  auto light = DdcConfig::reference(10.0e6);
  auto heavy = light;
  heavy.cic2_decimation = 64;
  heavy.cic5_decimation = 42;
  heavy.fir_decimation = 16;
  auto mid = light;
  mid.cic2_decimation = 8;
  mid.fir_decimation = 4;
  std::vector<ChainPlan> plans;
  for (int c = 0; c < 2; ++c) plans.push_back(ChainPlan::figure1(light, spec));
  for (int c = 0; c < 2; ++c) plans.push_back(ChainPlan::figure1(heavy, spec));
  for (int c = 0; c < 2; ++c) plans.push_back(ChainPlan::figure1(mid, spec));
  const auto input = stimulus(43008 * 2);  // ~10 tiles per group
  constexpr std::uint64_t kUnits = 6;  // three geometries, two channels each

  for (int workers : {2, 3}) {
    ChannelBank serial(plans, 1);
    ChannelBank sharded(plans, workers);
    ASSERT_NE(sharded.scheduler(), nullptr);
    std::vector<std::vector<IqSample>> want;
    std::vector<std::vector<IqSample>> got;
    const std::uint64_t helpers = std::min<std::uint64_t>(workers, kUnits) - 1;
    // Streaming several blocks through the same bank stays exact too (group
    // state carried across process_block calls).
    for (std::uint64_t block = 1; block <= 3; ++block) {
      serial.process_block(input, want);
      sharded.process_block(input, got);
      for (std::size_t c = 0; c < want.size(); ++c) expect_equal(got[c], want[c], c);
      EXPECT_EQ(sharded.scheduler()->stats().executed, block * helpers)
          << workers << " workers";
    }
  }
}

TEST(ChannelBank, SingleChannelPathMatchesSolo) {
  const auto plans = detuned_plans(1);
  const auto input = stimulus(2688 * 3);

  // Worker counts clamp to the single channel; the pool path must not engage.
  ChannelBank bank(plans, 8);
  EXPECT_EQ(bank.workers(), 1);
  std::vector<std::vector<IqSample>> got;
  bank.process_block(input, got);
  ASSERT_EQ(got.size(), 1u);

  DdcPipeline solo(plans[0]);
  std::vector<IqSample> want;
  solo.process_block(input, want);
  expect_equal(got[0], want, 0);
}

TEST(ChannelBank, EmptyInputProducesNoOutput) {
  ChannelBank bank(detuned_plans(2), 2);
  std::vector<std::vector<IqSample>> got;
  bank.process_block(std::span<const std::int64_t>(), got);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(got[0].empty());
  EXPECT_TRUE(got[1].empty());
}

// --------------------------------------------------- cross-channel packing
//
// Eight identical-geometry figure-1 channels form one packed octet; the
// earlier BatchEqualsIndependentRuns/ShardedEqualsSerial tests already run
// through the packed path (4 and 5 detuned channels), so these focus on the
// packing-specific seams: remainder lanes, the kill switch, partial blocks
// and fallback triggers.

void expect_bank_matches_solo(const std::vector<ChainPlan>& plans,
                              const std::vector<std::int64_t>& input,
                              int workers) {
  ChannelBank bank(plans, workers);
  std::vector<std::vector<IqSample>> got;
  bank.process_block(input, got);
  ASSERT_EQ(got.size(), plans.size());
  for (std::size_t c = 0; c < plans.size(); ++c) {
    DdcPipeline solo(plans[c]);
    std::vector<IqSample> want;
    solo.process_block(input, want);
    expect_equal(got[c], want, c);
  }
}

TEST(ChannelBank, PackedQuadsWithRemainderLanesMatchSolo) {
  // 5 channels: one quad + one leftover single lane.  Uneven block size
  // exercises the packed tile loop's partial final tile.
  expect_bank_matches_solo(detuned_plans(5), stimulus(2688 * 4 + 1337), 1);
}

TEST(ChannelBank, PackedParallelMatchesSolo) {
  expect_bank_matches_solo(detuned_plans(9), stimulus(2688 * 4 + 1337), 3);
}

TEST(ChannelBank, PackedKillSwitchFallsBackBitExact) {
  // With simd disabled every packed kernel declines and each lane runs its
  // stages on the scalar path -- outputs must not change.
  simd::ScopedEnable guard(false);
  expect_bank_matches_solo(detuned_plans(8), stimulus(2688 * 3 + 17), 1);
}

TEST(ChannelBank, MixedGeometriesGroupSeparately) {
  // Two CIC geometries (4 + 3 channels) plus skew: group keys must keep
  // them apart (one quad, and 3 singles or a partial group), still exact.
  const auto spec = DatapathSpec::wide16();
  std::vector<ChainPlan> plans = detuned_plans(4);
  auto alt = DdcConfig::reference(10.0e6);
  alt.cic2_decimation = 8;
  alt.fir_decimation = 4;
  for (int c = 0; c < 3; ++c) {
    auto ch = alt;
    ch.nco_freq_hz += 55.0e3 * c;
    plans.push_back(ChainPlan::figure1(ch, spec));
  }
  expect_bank_matches_solo(plans, stimulus(2688 * 4), 2);
}

TEST(ChannelBank, PackedStreamingSeamsCarryState) {
  // Feed the same data as one block and as three ragged blocks through
  // packed banks: every stage's decimation phase is mid-revolution at the
  // seams and must carry across them.
  const auto plans = detuned_plans(8);
  const auto input = stimulus(2688 * 4 + 100);

  ChannelBank whole(plans, 1);
  std::vector<std::vector<IqSample>> want;
  whole.process_block(input, want);

  ChannelBank chunked(plans, 1);
  std::vector<std::vector<IqSample>> got;
  const std::size_t cut1 = 1234;  // not a multiple of any decimation
  const std::size_t cut2 = 2688 * 2 + 7;
  chunked.process_block({input.data(), cut1}, got);
  chunked.process_block({input.data() + cut1, cut2 - cut1}, got);
  chunked.process_block({input.data() + cut2, input.size() - cut2}, got);
  for (std::size_t c = 0; c < want.size(); ++c) expect_equal(got[c], want[c], c);
}

TEST(ChannelBank, PackedRejectsOutOfRangeInputPerLane) {
  // Nine channels form two or three lane groups, so with 3 workers every
  // draining thread meets a throwing group: the first error must come back
  // to the caller, with no hang and no channel advanced.
  const auto plans = detuned_plans(9);
  const auto clean = stimulus(512);
  auto input = clean;
  input[128] = std::int64_t{1} << 30;  // beyond the 12-bit front end
  for (int workers : {1, 3}) {
    ChannelBank bank(plans, workers);
    std::vector<std::vector<IqSample>> got;
    EXPECT_THROW(bank.process_block(input, got), twiddc::SimulationError);
    for (const auto& ch : got) EXPECT_TRUE(ch.empty());
    bank.process_block(clean, got);
    for (std::size_t c = 0; c < plans.size(); ++c) {
      DdcPipeline solo(plans[c]);
      std::vector<IqSample> want;
      solo.process_block(clean, want);
      expect_equal(got[c], want, c);
    }
  }
}

// ------------------------------------------- FIR packing & octet units
//
// Every CIC stage and every shared-tap FIR stage packs, and the bank forms
// 8-channel octets before quads on every tier.  These
// tests pin the seams: octet remainder lanes, the AVX-512 runtime cap, the
// set_packing knob, mid-stream kill-switch flips, full-scale per-lane
// values (the widest intermediates the packed FIR's narrow_ok fallback must
// survive), and retunes that knock one lane out of its group's phase.

TEST(ChannelBank, PackedOctetsWithRemainderLanesMatchSolo) {
  // 11 channels: one octet + 3 singles, solo-exact; the uneven block size
  // exercises the packed tile loop's partial final tile.
  expect_bank_matches_solo(detuned_plans(11), stimulus(2688 * 3 + 1337), 1);
}

TEST(ChannelBank, PackedOctetRemainderQuadMatchesSolo) {
  // 13 channels: octet + quad + single -- every unit size in one bank,
  // parallel workers included.
  expect_bank_matches_solo(detuned_plans(13), stimulus(2688 * 3 + 19), 3);
}

TEST(ChannelBank, PackedAvx512CapToggleStaysBitExact) {
  // The same population (one octet + one single) with the AVX-512 runtime
  // cap forced off (the AVX2 octet kernels) and left at the host default
  // (the AVX-512 ones where the tier is live) must agree bit for bit.  On
  // hosts without AVX-512 both runs take the AVX2 path and the test
  // degenerates to a self-comparison.
  const auto plans = detuned_plans(9);
  const auto input = stimulus(2688 * 3 + 41);
  std::vector<std::vector<IqSample>> want;
  {
    simd::ScopedAvx512 cap(false);
    ChannelBank bank(plans, 1);
    bank.process_block(input, want);
  }
  std::vector<std::vector<IqSample>> got;
  {
    ChannelBank bank(plans, 1);
    bank.process_block(input, got);
  }
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t c = 0; c < want.size(); ++c) expect_equal(got[c], want[c], c);
}

TEST(ChannelBank, SetPackingOffMatchesPackedBitExact) {
  // The packing knob is the bench's monolithic baseline: disabling it must
  // change the execution strategy only, never a single output bit.
  const auto plans = detuned_plans(8);
  const auto input = stimulus(2688 * 2 + 77);

  ChannelBank mono(plans, 1);
  mono.set_packing(false);
  EXPECT_FALSE(mono.packing());
  std::vector<std::vector<IqSample>> want;
  mono.process_block(input, want);

  ChannelBank packed(plans, 1);
  EXPECT_TRUE(packed.packing());
  std::vector<std::vector<IqSample>> got;
  packed.process_block(input, got);

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t c = 0; c < want.size(); ++c) expect_equal(got[c], want[c], c);
}

TEST(ChannelBank, PackedKillSwitchMidStreamStaysBitExact) {
  // Flip the kill switch off and back on across block seams: units regroup
  // per block, per-lane state (CIC integrators, FIR delay lines, NCO phase) must
  // carry across the strategy changes.
  const auto plans = detuned_plans(9);
  const auto input = stimulus(2688 * 3 + 100);

  ChannelBank toggled(plans, 1);
  std::vector<std::vector<IqSample>> got;
  const std::size_t cut1 = 1234;
  const std::size_t cut2 = 2688 + 613;
  toggled.process_block({input.data(), cut1}, got);
  {
    simd::ScopedEnable guard(false);
    toggled.process_block({input.data() + cut1, cut2 - cut1}, got);
  }
  toggled.process_block({input.data() + cut2, input.size() - cut2}, got);

  for (std::size_t c = 0; c < plans.size(); ++c) {
    DdcPipeline solo(plans[c]);
    std::vector<IqSample> want;
    solo.process_block(input, want);
    expect_equal(got[c], want, c);
  }
}

TEST(ChannelBank, PackedFullScaleInputStaysBitExact) {
  // Near-full-scale 12-bit drive produces the widest intermediates in the
  // FIR tail: whether a lane takes the narrow-multiply or the exact wide
  // path, outputs must equal the per-channel reference.
  const auto cfg = DdcConfig::reference(10.0e6);
  const auto input = dsp::quantize_signal(
      dsp::make_tone(10.0025e6, cfg.input_rate_hz, 2688 * 2 + 31, 0.999), 12);
  expect_bank_matches_solo(detuned_plans(8), input, 1);
}

TEST(ChannelBank, RetunesThroughChannelSwapPlanMatchStagedSwaps) {
  // Between blocks one channel splices onto a hop frequency (state kept,
  // still in phase with its group) and another flushes (fresh state: its
  // lane falls out of phase and runs per stage) -- the staged pipelines
  // taking the same swaps are the reference.
  const auto plans = detuned_plans(9);
  const auto input = stimulus(2688 * 3 + 211);
  const std::size_t cut = 2688 + 97;
  ChainPlan hop = plans[3];
  hop.front_end.nco_freq_hz += 70.0e3;

  ChannelBank bank(plans, 2);
  std::vector<std::vector<IqSample>> got;
  bank.process_block({input.data(), cut}, got);
  bank.channel(3).swap_plan(hop, SwapMode::kSplice);
  bank.channel(5).swap_plan(plans[5], SwapMode::kFlush);
  ChainPlan regeom = plans[6];
  regeom.stages[0].decimation += 1;
  EXPECT_THROW(bank.channel(6).swap_plan(regeom, SwapMode::kSplice), ConfigError);
  bank.process_block({input.data() + cut, input.size() - cut}, got);

  for (std::size_t c = 0; c < plans.size(); ++c) {
    DdcPipeline solo(plans[c]);
    std::vector<IqSample> want;
    solo.process_block({input.data(), cut}, want);
    if (c == 3) solo.swap_plan(hop, SwapMode::kSplice);
    if (c == 5) solo.swap_plan(plans[5], SwapMode::kFlush);
    solo.process_block({input.data() + cut, input.size() - cut}, want);
    expect_equal(got[c], want, c);
  }
}

}  // namespace
}  // namespace twiddc::core
