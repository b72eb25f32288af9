#include "perfbench/src/workloads.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <numeric>

#include "perfbench/src/harness.hpp"
#include "perfbench/src/layers.hpp"
#include "perfbench/src/scene.hpp"
#include "perfbench/src/stream_run.hpp"
#include "src/backends/builtin.hpp"
#include "src/common/simd.hpp"
#include "src/core/backend.hpp"
#include "src/core/channel_bank.hpp"
#include "src/core/plan_compiler.hpp"

namespace perfbench {

using twiddc::Rng;
using twiddc::core::ChainPlan;
using twiddc::core::ChannelBank;
using twiddc::core::CompiledPlanCache;
using twiddc::core::IqSample;
using twiddc::core::SwapMode;

namespace {

/// Workload-specific seed streams, so two workloads run with one seed do not
/// see the same scene.
Rng workload_rng(std::uint64_t seed, std::uint64_t salt) {
  return Rng(seed * 0x9e3779b97f4a7c15ull ^ salt);
}

/// Seeded Fisher-Yates permutation of [0, n).
std::vector<std::size_t> permutation(Rng& rng, std::size_t n) {
  std::vector<std::size_t> p(n);
  std::iota(p.begin(), p.end(), 0);
  for (std::size_t i = n; i > 1; --i)
    std::swap(p[i - 1], p[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  return p;
}

/// Channels of `plans` the bank runs through its cross-channel packed
/// kernels: groups of equal first-stage CIC geometry, in octets when the
/// AVX-512 tier is live, then quads; the rest run the per-channel path.
/// Mirrors ChannelBank's grouping for a freshly reset bank (equal phases).
double packable_share(const std::vector<ChainPlan>& plans) {
  const bool avx512 = twiddc::simd::avx512_active();
  const bool avx2 = twiddc::simd::enabled() && std::string(twiddc::simd::isa_name()) == "avx2";
  if (!avx2 && !avx512) return 0.0;
  std::map<std::tuple<int, int, int, int>, std::size_t> groups;
  for (const ChainPlan& p : plans) {
    const auto& s = p.stages.front();
    ++groups[{s.cic_stages, s.decimation, s.diff_delay, s.input_bits}];
  }
  std::size_t packed = 0;
  for (const auto& [key, g] : groups) {
    std::size_t rest = g;
    if (avx512) {
      packed += rest / 8 * 8;
      rest %= 8;
    }
    packed += rest / 4 * 4;
  }
  return static_cast<double>(packed) / static_cast<double>(plans.size());
}

/// Cold compile of `plans` through the process-wide cache: seconds per
/// compiled plan and the hit ratio of the lookups.
std::pair<double, double> compile_probe(const std::vector<ChainPlan>& plans) {
  auto& cache = CompiledPlanCache::instance();
  cache.clear();
  const auto s0 = cache.stats();
  std::vector<std::shared_ptr<const twiddc::core::CompiledPlan>> hold;
  for (const ChainPlan& p : plans) hold.push_back(cache.get_or_compile(p));
  const auto s1 = cache.stats();
  const double misses = static_cast<double>(s1.misses - s0.misses);
  const double lookups = static_cast<double>(s1.lookups - s0.lookups);
  return {misses > 0 ? (s1.compile_seconds - s0.compile_seconds) / misses : 0.0,
          lookups > 0 ? static_cast<double>(s1.hits - s0.hits) / lookups : 0.0};
}

/// Median native-pipeline swap_plan(kSplice) time between two plans of one
/// geometry, alternating, in milliseconds.
double swap_probe(const ChainPlan& a, const ChainPlan& b, int reps) {
  auto backend = twiddc::core::BackendRegistry::instance().create(twiddc::backends::kNative);
  backend->configure(a);
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    backend->swap_plan(i % 2 ? a : b, SwapMode::kSplice);
    ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  return median(ms);
}

void add_layer_times(Result& r, const LayerTimes& lt) {
  r.add("dsp.nco_mixer_ns", lt.nco_mixer_ns, "ns");
  r.add("dsp.cic2_ns", lt.cic2_ns, "ns");
  r.add("dsp.cic5_ns", lt.cic5_ns, "ns");
  r.add("dsp.fir_ns", lt.fir_ns, "ns");
  r.add("core.chain_ns", lt.chain_ns, "ns");
  const double ratio = lt.chain_ns > 0 ? lt.stage_sum_ns() / lt.chain_ns : 0.0;
  r.add("core.stage_sum_ratio", ratio, "ratio");
  r.add("backends.native_ns", lt.native_ns, "ns");
  r.fact("stage_sum_base_ns", num(lt.chain_ns));
  r.fact("stage_sum_tolerance", "0.75..1.25");
  r.fact("stage_sum_ok", ratio >= 0.75 && ratio <= 1.25 ? "true" : "false");
  if (!lt.stages_match) {
    r.correct = false;
    r.notes.push_back("standalone dsp stages or the native backend differ from the staged chain");
  }
}

void add_end_to_end_common(Result& r, double setup_s, double rss_mb) {
  r.add("setup_s", setup_s, "s");
  r.add("peak_rss_mb", rss_mb, "MB");
}

void finish_ledger(Result& r, const FailLedger& ledger, std::uint64_t control_ops,
                   std::uint64_t control_failures) {
  r.attempted = ledger.attempted + control_ops;
  r.failed = ledger.failed() + control_failures;
  if (r.failed > 0) {
    r.correct = false;
    r.notes.push_back("output check: " + std::to_string(ledger.lost) + " blocks lost, " +
                      std::to_string(ledger.mismatched) + " not bit-exact, " +
                      std::to_string(control_failures) + " control calls failed");
  }
}

// =================================================================== bank64

constexpr std::size_t kBankChannels = 64;
constexpr std::size_t kBankBurst = 6;  // 58 + 6: each family leaves singles
constexpr std::size_t kBankHops = 8;
constexpr std::size_t kBankCaptureBlocks = 256;              // 1 Mi samples
constexpr std::size_t kBankBlock = 16 * kBlockSamples;       // 64 Ki samples

/// One channel's staged-pipeline output over the capture, with the output
/// count after each bank block.
struct ChannelRef {
  std::vector<IqSample> out;
  std::vector<std::size_t> block_end;
};

ChannelRef reference_channel(const ChainPlan& plan, const std::vector<std::int64_t>& capture) {
  ChannelRef ref;
  twiddc::core::DdcPipeline pipe(plan);
  const std::span<const std::int64_t> x(capture);
  for (std::size_t off = 0; off < x.size(); off += kBankBlock) {
    pipe.process_block(x.subspan(off, std::min(kBankBlock, x.size() - off)), ref.out);
    ref.block_end.push_back(ref.out.size());
  }
  return ref;
}

struct BankSetup {
  Scene scene;
  std::vector<ChainPlan> plans;    ///< base plan per channel
  std::vector<ChainPlan> alt;      ///< hop plan per channel (hop channels only)
  std::vector<bool> hops;          ///< channel alternates base/alt per capture
  std::vector<ChannelRef> ref[2];  ///< [0] base, [1] alt (hop channels only)
};

struct BankRun {
  std::vector<double> pass_msps;
  std::vector<double> block_ms;
  std::vector<double> swap_ms;
  std::vector<std::size_t> block_pass, swap_pass;  ///< pass of each sample
  // The best quarter of the passes by rate, see best_quarter.
  double best_msps = 0.0;
  std::vector<double> best_block_ms, best_swap_ms;
  double cpu_s = 0.0;
  double steal_share = 0.0;
  std::int64_t ctx_switches = 0;
  double rss_mb = 0.0;  ///< ru_maxrss when the timed loop starts
  std::uint64_t channel_blocks = 0;
  twiddc::common::TaskScheduler::Stats sched{};
  FailLedger ledger;
};

/// Captures back to back for `seconds`: each pass hops the hop channels
/// (timed swap_plan), resets the bank, channelizes the capture block by
/// block (each call timed), then checks every channel-block against the
/// staged reference outside the timed calls.
BankRun run_bank(ChannelBank& bank, const BankSetup& s, double seconds, SpanLog* spans) {
  BankRun run;
  const std::span<const std::int64_t> x(s.scene.capture);
  const std::size_t blocks = (x.size() + kBankBlock - 1) / kBankBlock;
  std::vector<std::vector<IqSample>> out(kBankChannels);
  std::vector<std::size_t> ends(blocks * kBankChannels);
  const auto sched0 = bank.scheduler() ? bank.scheduler()->stats() : twiddc::common::TaskScheduler::Stats{};
  const Usage u0 = usage_now();
  run.rss_mb = u0.max_rss_mb;
  const std::int64_t t_end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::uint64_t pass = 0; pass == 0 || now_ns() < t_end; ++pass) {
    const int variant = static_cast<int>(pass % 2);
    for (std::size_t c = 0; c < kBankChannels; ++c) {
      if (!s.hops[c]) continue;
      const std::int64_t t0 = now_ns();
      bank.channel(c).swap_plan(variant ? s.alt[c] : s.plans[c], SwapMode::kSplice);
      const std::int64_t t1 = now_ns();
      run.swap_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      run.swap_pass.push_back(pass);
      if (spans) spans->add("bank.swap_plan", c, pass, t0, t1);
    }
    bank.reset();
    for (auto& o : out) o.clear();
    std::int64_t pass_ns = 0;
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t off = b * kBankBlock;
      const std::int64_t t0 = now_ns();
      bank.process_block(x.subspan(off, std::min(kBankBlock, x.size() - off)), out);
      const std::int64_t t1 = now_ns();
      pass_ns += t1 - t0;
      run.block_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      run.block_pass.push_back(pass);
      if (spans) spans->add("bank.process_block", pass, b, t0, t1);
      for (std::size_t c = 0; c < kBankChannels; ++c) ends[b * kBankChannels + c] = out[c].size();
    }
    run.pass_msps.push_back(static_cast<double>(x.size() * kBankChannels) /
                            (static_cast<double>(pass_ns) * 1e-9) / 1e6);
    for (std::size_t c = 0; c < kBankChannels; ++c) {
      const ChannelRef& ref = s.ref[s.hops[c] ? variant : 0][c];
      std::size_t prev = 0;
      for (std::size_t b = 0; b < blocks; ++b) {
        const std::size_t end = ends[b * kBankChannels + c];
        const std::size_t rprev = b ? ref.block_end[b - 1] : 0;
        ++run.ledger.attempted;
        if (end - prev != ref.block_end[b] - rprev ||
            !std::equal(out[c].begin() + static_cast<std::ptrdiff_t>(prev),
                        out[c].begin() + static_cast<std::ptrdiff_t>(end),
                        ref.out.begin() + static_cast<std::ptrdiff_t>(rprev)))
          ++run.ledger.mismatched;
        prev = end;
      }
    }
    run.channel_blocks += blocks * kBankChannels;
  }
  const Usage u1 = usage_now();
  run.cpu_s = u1.cpu_s - u0.cpu_s;
  run.ctx_switches = u1.ctx_switches - u0.ctx_switches;
  const auto sched1 = bank.scheduler() ? bank.scheduler()->stats() : twiddc::common::TaskScheduler::Stats{};
  run.sched.executed = sched1.executed - sched0.executed;
  run.sched.stolen = sched1.stolen - sched0.stolen;
  run.sched.wakeups = sched1.wakeups - sched0.wakeups;
  const auto best = best_quarter(run.pass_msps);
  const auto is_best = [&](std::size_t pass) {
    return std::binary_search(best.begin(), best.end(), pass);
  };
  std::vector<double> rates;
  for (const std::size_t p : best) rates.push_back(run.pass_msps[p]);
  run.best_msps = median(rates);
  for (std::size_t i = 0; i < run.block_ms.size(); ++i)
    if (is_best(run.block_pass[i])) run.best_block_ms.push_back(run.block_ms[i]);
  for (std::size_t i = 0; i < run.swap_ms.size(); ++i)
    if (is_best(run.swap_pass[i])) run.best_swap_ms.push_back(run.swap_ms[i]);
  run.steal_share = steal_share(u0, u1);
  return run;
}

/// CPU seconds per second of converter signal per channel.
double cores_per_channel(double cpu_s, double channel_samples) {
  return channel_samples > 0 ? cpu_s / (channel_samples / kAdcRateHz) : 0.0;
}

}  // namespace

Result run_bank64(const RunConfig& rc) {
  Result r;
  add_host_facts(r);
  Rng rng = workload_rng(rc.seed, 0xb64);
  BankSetup s;
  s.scene = make_scene(rng, kBankChannels, kBankCaptureBlocks);
  const auto order = permutation(rng, kBankChannels);
  std::vector<bool> burst(kBankChannels, false);
  s.hops.assign(kBankChannels, false);
  for (std::size_t i = 0; i < kBankBurst; ++i) burst[order[i]] = true;
  for (std::size_t i = kBankBurst; i < kBankBurst + kBankHops; ++i) s.hops[order[i]] = true;
  s.alt.resize(kBankChannels);
  for (std::size_t c = 0; c < kBankChannels; ++c) {
    const double hz = s.scene.channel_hz[c];
    s.plans.push_back(burst[c] ? burst_plan(hz) : drm_plan(hz));
    if (s.hops[c]) {
      const double alt_hz = draw_channel_hz(rng);
      s.alt[c] = burst[c] ? burst_plan(alt_hz) : drm_plan(alt_hz);
    }
  }
  const int threads = hardware_threads();
  s.ref[0].resize(kBankChannels);
  s.ref[1].resize(kBankChannels);
  parallel_for(2 * kBankChannels, threads, [&](std::size_t j) {
    const std::size_t c = j % kBankChannels;
    if (j < kBankChannels)
      s.ref[0][c] = reference_channel(s.plans[c], s.scene.capture);
    else if (s.hops[c])
      s.ref[1][c] = reference_channel(s.alt[c], s.scene.capture);
  });

  r.fact("workload", "bank64");
  r.fact("loop", "closed");
  r.fact("channels", std::to_string(kBankChannels));
  r.fact("burst_channels", std::to_string(kBankBurst));
  r.fact("hop_channels", std::to_string(kBankHops));
  r.fact("packable_share", num(packable_share(s.plans)));
  const int bank_workers = std::max(1, threads - 1);
  r.fact("bank_workers", std::to_string(bank_workers));
  r.fact("block_samples", std::to_string(kBankBlock));
  r.fact("capture_samples", std::to_string(s.scene.capture.size()));

  // Set-up: bank construction, several times, each from scratch.
  std::vector<double> setup;
  std::unique_ptr<ChannelBank> bank;
  for (int rep = 0; rep < 7; ++rep) {
    bank.reset();
    const std::int64_t t0 = now_ns();
    bank = std::make_unique<ChannelBank>(s.plans, bank_workers);
    setup.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  if (!rc.trace) {
    const BankRun run = run_bank(*bank, s, rc.seconds, nullptr);
    const double channel_samples = static_cast<double>(run.pass_msps.size()) *
                                   static_cast<double>(s.scene.capture.size() * kBankChannels);
    add_end_to_end_common(r, median(setup), run.rss_mb);
    r.add("throughput_msps", run.best_msps, "Msample/s");
    r.add("latency_p50_ms", quantile(run.best_block_ms, 0.5), "ms");
    r.add("cores_per_channel", cores_per_channel(run.cpu_s, channel_samples), "cpu_s/ch_s");
    r.add("retune_p50_ms", median(run.best_swap_ms), "ms");
    r.add("delivered_share", 1.0 - run.ledger.fail_share(), "ratio");
    r.add_extra("latency_p99_ms", quantile(run.block_ms, 0.99), "ms");
    r.add_extra("all.throughput_msps", median(run.pass_msps), "Msample/s");
    r.add_extra("all.latency_p50_ms", quantile(run.block_ms, 0.5), "ms");
    r.add_extra("all.retune_p50_ms", median(run.swap_ms), "ms");
    r.fact("host_steal_share", num(run.steal_share));
    r.series.emplace_back("pass_msps", run.pass_msps);
    r.fact("passes", std::to_string(run.pass_msps.size()));
    r.fact("latency_samples", std::to_string(run.block_ms.size()));
    finish_ledger(r, run.ledger, 0, 0);
    return r;
  }

  // Traced: untraced then traced halves of the window, then layer probes.
  const BankRun plain = run_bank(*bank, s, rc.seconds / 2, nullptr);
  SpanLog spans(60000);
  const BankRun traced = run_bank(*bank, s, rc.seconds / 2, &spans);
  FailLedger ledger = plain.ledger;
  ledger.merge(traced.ledger);
  const double channel_samples = static_cast<double>(traced.pass_msps.size()) *
                                 static_cast<double>(s.scene.capture.size() * kBankChannels);
  const double cpc = cores_per_channel(traced.cpu_s, channel_samples);

  const std::size_t major = std::find(burst.begin(), burst.end(), false) - burst.begin();
  const LayerTimes lt = probe_layers(s.plans[major], s.scene.capture, kBankBlock, 5);
  add_layer_times(r, lt);
  std::vector<ChainPlan> compile_set = s.plans;
  for (std::size_t c = 0; c < kBankChannels; ++c)
    if (s.hops[c]) compile_set.push_back(s.alt[c]);
  const auto [compile_s, hit_ratio] = compile_probe(compile_set);
  r.add("core.plan_compile_s", compile_s, "s");
  r.add("core.plan_cache_hit_ratio", hit_ratio, "ratio");
  const std::size_t hop = std::find(s.hops.begin(), s.hops.end(), true) - s.hops.begin();
  r.add("backends.swap_ms", swap_probe(s.plans[hop], s.alt[hop], 101), "ms");
  const double blocks = static_cast<double>(traced.channel_blocks);
  r.add("common.sched.passes_per_block", static_cast<double>(traced.sched.executed) / blocks, "count");
  r.add("common.sched.wakeups_per_block", static_cast<double>(traced.sched.wakeups) / blocks, "count");
  r.add("common.sched.steals_per_block", static_cast<double>(traced.sched.stolen) / blocks, "count");
  r.add("proc.ctx_switches_per_block", static_cast<double>(traced.ctx_switches) / blocks, "count");
  r.add("overhead_ratio", cpc / (lt.native_ns * kAdcRateHz * 1e-9), "ratio");
  r.add("latency_p99_ms", quantile(traced.block_ms, 0.99), "ms");
  r.add("trace_overhead", 1.0 - traced.best_msps / plain.best_msps, "ratio");
  r.fact("host_steal_share", num(traced.steal_share));
  r.fact("trace_overhead_base", "throughput_msps untraced " + num(plain.best_msps));
  if (!rc.trace_out.empty() && !spans.write(rc.trace_out))
    r.notes.push_back("could not write " + rc.trace_out);
  finish_ledger(r, ledger, 0, 0);
  return r;
}

// ============================================================ stream workloads

namespace {

int engine_workers() {
  // Engine workers + the pump + the client thread stay within the host.
  return std::max(1, hardware_threads() - 2);
}

/// Serving-path extras from a traced run, joined per session-block: the
/// k-th chunk of an incarnation came from its backend's k-th process_block
/// call (kBlock sessions drop nothing; a lost block fails the run anyway).
void add_stream_layers(Result& r, const StreamSpec& spec, const StreamOutcome& o,
                       SpanLog& spans) {
  std::vector<double> lag_ms, pump_us, ring_us, backend_us, out_us, lat_ms, swaps_ms;
  double backend_busy_s = 0.0;
  for (std::size_t i = 0; i < o.incarnations.size(); ++i) {
    const SessionTape& tape = o.incarnations[i].tape;
    const BackendLog& log = *o.logs[i];
    for (const CallSpan& sw : log.swaps) swaps_ms.push_back(sw.ms());
    const std::size_t n = std::min(tape.chunks(), log.blocks.size());
    for (std::size_t k = 0; k < n; ++k) {
      const std::int64_t poll = tape.poll_ns[k];
      if (poll < o.window_start_ns || poll >= o.window_end_ns) continue;
      const std::uint64_t seq = tape.seq[k];
      const CallSpan& call = log.blocks[k];
      const std::int64_t read_end = o.feed->read_end_ns(seq);
      const std::int64_t origin = spec.rate_hz > 0.0 ? o.clock.due_ns(seq) : read_end;
      lag_ms.push_back(static_cast<double>(read_end - origin) * 1e-6);
      ring_us.push_back(static_cast<double>(call.start_ns - read_end) * 1e-3);
      backend_us.push_back(static_cast<double>(call.end_ns - call.start_ns) * 1e-3);
      out_us.push_back(static_cast<double>(poll - call.end_ns) * 1e-3);
      lat_ms.push_back(static_cast<double>(poll - origin) * 1e-6);
      backend_busy_s += static_cast<double>(call.end_ns - call.start_ns) * 1e-9;
      if (spec.rate_hz > 0.0) spans.add("stream.source_lag", i, seq, origin, read_end);
      spans.add("stream.ring_wait", i, seq, read_end, call.start_ns);
      spans.add("backends.process_block", i, seq, call.start_ns, call.end_ns);
      spans.add("stream.output_wait", i, seq, call.end_ns, poll);
    }
  }
  for (std::uint64_t seq = 1; seq < o.feed->capacity(); ++seq) {
    const std::int64_t a = o.feed->read_end_ns(seq - 1), b = o.feed->read_end_ns(seq);
    if (b == 0) break;
    if (a >= o.window_start_ns && b < o.window_end_ns) pump_us.push_back(static_cast<double>(b - a) * 1e-3);
  }
  const double lat_p50 = quantile(lat_ms, 0.5);
  const double sum_p50 = quantile(lag_ms, 0.5) + 1e-3 * (quantile(ring_us, 0.5) + quantile(backend_us, 0.5) +
                                                        quantile(out_us, 0.5));
  const double layer_ratio = lat_p50 > 0 ? sum_p50 / lat_p50 : 0.0;
  const double window = o.window_s;
  r.add_extra("stream.source_lag_p50_ms", quantile(lag_ms, 0.5), "ms");
  r.add_extra("stream.source_lag_p99_ms", quantile(lag_ms, 0.99), "ms");
  r.add_extra("stream.pump_block_us", median(pump_us), "us");
  r.add_extra("stream.ring_wait_p50_us", quantile(ring_us, 0.5), "us");
  r.add_extra("stream.ring_wait_p99_us", quantile(ring_us, 0.99), "us");
  r.add_extra("stream.output_wait_p50_us", quantile(out_us, 0.5), "us");
  r.add_extra("stream.output_wait_p99_us", quantile(out_us, 0.99), "us");
  r.add_extra("stream.backend_p50_us", quantile(backend_us, 0.5), "us");
  r.add_extra("stream.drain_busy_share", window > 0 ? 1.0 - o.client_wait_s / window : 0.0, "ratio");
  r.add_extra("stream.open_p50_ms", median(o.open_ms), "ms");
  r.add_extra("stream.max_queue_depth", static_cast<double>(o.max_queue_depth), "count");
  r.add_extra("stream.lost_blocks", static_cast<double>(o.lost_blocks), "count");
  r.add_extra("stream.retune_p95_ms", quantile(o.retune_ms, 0.95), "ms");
  r.add_extra("stream.latency_p50_ms", lat_p50, "ms");
  r.add_extra("stream.layer_sum_ratio", layer_ratio, "ratio");
  r.add_extra("backends.busy_share",
              window > 0 ? backend_busy_s / (static_cast<double>(spec.workers) * window) : 0.0, "ratio");
  r.fact("layer_sum_base_ms", num(lat_p50));
  r.fact("layer_sum_tolerance", "0.67..1.5");
  r.fact("layer_sum_ok", layer_ratio >= 0.67 && layer_ratio <= 1.5 ? "true" : "false");
  r.fact("host_steal_share", num(o.steal_share));
  r.add("backends.swap_ms", median(swaps_ms), "ms");
}

/// Retune latency over the best quarter, or over the whole window when the
/// best quarter caught fewer than five retunes.
double best_retune_p50(const StreamOutcome& o) {
  return median(o.best_retune_ms.size() >= 5 ? o.best_retune_ms : o.retune_ms);
}

/// The result-line end-to-end set of a stream run.
void add_stream_end_to_end(Result& r, const StreamSpec& spec, const StreamOutcome& o,
                           double setup_s) {
  add_end_to_end_common(r, setup_s, o.rss_mb);
  r.add("throughput_msps", o.best_msps, "Msample/s");
  r.add("latency_p50_ms", quantile(o.best_latency_ms, 0.5), "ms");
  r.add("cores_per_channel",
        cores_per_channel(o.cpu_s, static_cast<double>(o.window_chunks * spec.block_samples)),
        "cpu_s/ch_s");
  r.add("retune_p50_ms", best_retune_p50(o), "ms");
  r.add_extra("latency_p99_ms", quantile(o.latency_ms, 0.99), "ms");
  r.add_extra("all.throughput_msps", median(o.subwindow_msps), "Msample/s");
  r.add_extra("all.latency_p50_ms", quantile(o.latency_ms, 0.5), "ms");
  r.add_extra("all.retune_p50_ms", median(o.retune_ms), "ms");
  r.fact("latency_samples", std::to_string(o.latency_ms.size()));
  r.fact("retune_samples", std::to_string(o.retune_ms.size()));
  r.fact("host_steal_share", num(o.steal_share));
  r.series.emplace_back("subwindow_msps", o.subwindow_msps);
  r.series.emplace_back("subwindow_latency_ms", o.subwindow_latency_ms);
}

/// Shared trace-off / trace-on runner of the two stream workloads.
/// `primary_is_latency` picks the metric trace_overhead compares.
Result run_stream_workload(const RunConfig& rc, Result r, StreamSpec spec,
                           bool primary_is_latency) {
  const int threads = hardware_threads();
  if (!rc.trace) {
    spec.traced = false;
    std::vector<double> setup = time_setup(spec, 6);
    const StreamOutcome o = run_stream(spec);
    setup.push_back(o.setup_s);
    const FailLedger ledger =
        check_incarnations(o.incarnations, *spec.capture, spec.block_samples, threads);
    add_stream_end_to_end(r, spec, o, median(setup));
    r.add("delivered_share", 1.0 - ledger.fail_share(), "ratio");
    finish_ledger(r, ledger, o.control_ops, o.control_failures);
    return r;
  }
  TimedNative::install();
  const double full = spec.window_s;
  spec.window_s = full / 2;
  spec.traced = false;
  const StreamOutcome plain = run_stream(spec);
  spec.traced = true;
  const StreamOutcome traced = run_stream(spec);
  FailLedger ledger =
      check_incarnations(plain.incarnations, *spec.capture, spec.block_samples, threads);
  ledger.merge(check_incarnations(traced.incarnations, *spec.capture, spec.block_samples, threads));

  const LayerTimes lt = probe_layers(spec.initial.front(), *spec.capture, spec.block_samples, 5);
  add_layer_times(r, lt);
  r.add("core.plan_compile_s",
        traced.cache_misses ? traced.compile_s / static_cast<double>(traced.cache_misses) : 0.0, "s");
  r.add("core.plan_cache_hit_ratio",
        traced.cache_lookups ? static_cast<double>(traced.cache_hits) / static_cast<double>(traced.cache_lookups)
                             : 0.0,
        "ratio");
  SpanLog spans(60000);
  add_stream_layers(r, spec, traced, spans);
  const double blocks = static_cast<double>(std::max<std::uint64_t>(1, traced.window_chunks));
  r.add("common.sched.passes_per_block", traced.tasks_executed / blocks, "count");
  r.add("common.sched.wakeups_per_block", traced.wakeups / blocks, "count");
  r.add("common.sched.steals_per_block", traced.tasks_stolen / blocks, "count");
  r.add("proc.ctx_switches_per_block", static_cast<double>(traced.ctx_switches) / blocks, "count");
  const double cpc = cores_per_channel(
      traced.cpu_s, static_cast<double>(traced.window_chunks * spec.block_samples));
  r.add("overhead_ratio", cpc / (lt.native_ns * kAdcRateHz * 1e-9), "ratio");
  r.add("latency_p99_ms", quantile(traced.latency_ms, 0.99), "ms");
  if (primary_is_latency) {
    const double a = quantile(plain.best_latency_ms, 0.5), b = quantile(traced.best_latency_ms, 0.5);
    r.add("trace_overhead", b > 0 ? 1.0 - a / b : 0.0, "ratio");
    r.fact("trace_overhead_base", "latency_p50_ms untraced " + num(a));
  } else {
    const double a = plain.best_msps, b = traced.best_msps;
    r.add("trace_overhead", a > 0 ? 1.0 - b / a : 0.0, "ratio");
    r.fact("trace_overhead_base", "throughput_msps untraced " + num(a));
  }
  if (!rc.trace_out.empty() && !spans.write(rc.trace_out))
    r.notes.push_back("could not write " + rc.trace_out);
  finish_ledger(r, ledger, plain.control_ops + traced.control_ops,
                plain.control_failures + traced.control_failures);
  return r;
}

}  // namespace

// ============================================================== adc_realtime

namespace {
constexpr std::size_t kAdcSessions = 2;
constexpr std::size_t kAdcBlockSamples = 8 * kBlockSamples;
constexpr double kAdcControlPeriodS = 0.05;
}  // namespace

Result run_adc_realtime(const RunConfig& rc) {
  Result r;
  add_host_facts(r);
  Rng rng = workload_rng(rc.seed, 0xadc);
  Scene scene = make_scene(rng, kAdcSessions, 256);
  StreamSpec spec;
  spec.capture = std::make_shared<const std::vector<std::int64_t>>(std::move(scene.capture));
  spec.rate_hz = kAdcRateHz;
  spec.block_samples = kAdcBlockSamples;
  spec.workers = engine_workers();
  spec.warmup_s = 0.5;
  spec.window_s = rc.seconds;
  // Even slots start on the DRM plan, odd slots on the burst plan.
  std::vector<bool> is_drm(kAdcSessions);
  for (std::size_t k = 0; k < kAdcSessions; ++k) {
    is_drm[k] = k % 2 == 0;
    spec.initial.push_back(is_drm[k] ? drm_plan(scene.channel_hz[k]) : burst_plan(scene.channel_hz[k]));
  }
  // Control schedule over warm-up + window: NCO hops (kSplice, same
  // geometry), DRM <-> burst swaps (kFlush) and close-and-reopen, 60/25/15.
  std::size_t hops = 0, swaps = 0, reopens = 0;
  for (double t = 0.2; t < spec.warmup_s + spec.window_s; t += kAdcControlPeriodS) {
    ControlEvent ev;
    ev.at_s = t;
    ev.slot = static_cast<std::size_t>(rng.uniform_int(0, kAdcSessions - 1));
    const double u = rng.uniform();
    const double hz = draw_channel_hz(rng);
    if (u < 0.60) {
      ev.kind = ControlKind::kSplice;
      ++hops;
    } else if (u < 0.85) {
      ev.kind = ControlKind::kFlush;
      is_drm[ev.slot] = !is_drm[ev.slot];
      ++swaps;
    } else {
      ev.kind = ControlKind::kReopen;
      ++reopens;
    }
    ev.plan = is_drm[ev.slot] ? drm_plan(hz) : burst_plan(hz);
    spec.schedule.push_back(std::move(ev));
  }
  r.fact("workload", "adc_realtime");
  r.fact("loop", "open");
  r.fact("paced_rate_hz", num(kAdcRateHz));
  r.fact("channels", std::to_string(kAdcSessions));
  r.fact("engine_workers", std::to_string(spec.workers));
  r.fact("block_samples", std::to_string(spec.block_samples));
  r.fact("schedule", std::to_string(hops) + " hops, " + std::to_string(swaps) + " swaps, " +
                         std::to_string(reopens) + " reopens");
  return run_stream_workload(rc, std::move(r), std::move(spec), true);
}

// ================================================================= fanout256

namespace {
constexpr std::size_t kFanoutSessions = 256;
constexpr std::size_t kFanoutPlans = 16;
constexpr std::size_t kFanoutRetuned = 8;
constexpr double kFanoutRetunePeriodS = 0.025;
}  // namespace

Result run_fanout256(const RunConfig& rc) {
  Result r;
  add_host_facts(r);
  Rng rng = workload_rng(rc.seed, 0xf256);
  Scene scene = make_scene(rng, kFanoutPlans, 256);
  StreamSpec spec;
  spec.capture = std::make_shared<const std::vector<std::int64_t>>(std::move(scene.capture));
  spec.rate_hz = 0.0;
  spec.workers = engine_workers();
  spec.warmup_s = 1.0;
  spec.window_s = rc.seconds;
  std::vector<ChainPlan> plans;
  for (std::size_t p = 0; p < kFanoutPlans; ++p) plans.push_back(drm_plan(scene.channel_hz[p]));
  std::vector<std::size_t> current(kFanoutSessions);
  for (std::size_t k = 0; k < kFanoutSessions; ++k) {
    current[k] = k % kFanoutPlans;
    spec.initial.push_back(plans[current[k]]);
  }
  // A few sessions walk the 16-plan cycle by kSplice retunes (all cache
  // hits once the 16 plans are compiled at open time).
  const auto order = permutation(rng, kFanoutSessions);
  std::size_t n = 0;
  for (double t = 0.1; t < spec.warmup_s + spec.window_s; t += kFanoutRetunePeriodS, ++n) {
    ControlEvent ev;
    ev.at_s = t;
    ev.kind = ControlKind::kSplice;
    ev.slot = order[n % kFanoutRetuned];
    current[ev.slot] = (current[ev.slot] + 1) % kFanoutPlans;
    ev.plan = plans[current[ev.slot]];
    spec.schedule.push_back(std::move(ev));
  }
  r.fact("workload", "fanout256");
  r.fact("loop", "closed");
  r.fact("sessions", std::to_string(kFanoutSessions));
  r.fact("distinct_plans", std::to_string(kFanoutPlans));
  r.fact("retuned_sessions", std::to_string(kFanoutRetuned));
  r.fact("engine_workers", std::to_string(spec.workers));
  r.fact("block_samples", std::to_string(spec.block_samples));
  r.fact("warmup_s", num(spec.warmup_s));
  return run_stream_workload(rc, std::move(r), std::move(spec), false);
}

}  // namespace perfbench
