// perfbench ddc_bench_selftest -- checks the benchmark's own harness:
//   * the paced source's due-time accounting (block_seq -> due time),
//     including a session reopened mid-stream;
//   * the timing decorator passes samples and swap_plan through bit-exact;
//   * the failure ledger counts an injected drop and an injected mismatch.
// Run with `python3 perfbench/run.py --selftest`; exit status 0 = all pass.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/bench.hpp"
#include "perfbench/src/harness.hpp"
#include "perfbench/src/scene.hpp"
#include "perfbench/src/stream_run.hpp"
#include "src/backends/builtin.hpp"
#include "src/common/rng.hpp"

namespace {

using namespace perfbench;
using twiddc::core::ChainPlan;
using twiddc::core::IqSample;
using twiddc::core::SwapMode;

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::shared_ptr<const std::vector<std::int64_t>> small_capture(std::uint64_t seed) {
  twiddc::Rng rng(seed);
  Scene scene = make_scene(rng, 2, 16);
  return std::make_shared<const std::vector<std::int64_t>>(std::move(scene.capture));
}

void due_clock_maps_seq_to_converter_time() {
  const DueClock clock{1000, kAdcRateHz, kBlockSamples};
  const std::int64_t period = static_cast<std::int64_t>(4096 / kAdcRateHz * 1e9);
  check(clock.due_ns(0) == 1000 + period, "block 0 is due when its last sample leaves");
  check(clock.due_ns(999) - clock.due_ns(998) >= period - 1 &&
            clock.due_ns(999) - clock.due_ns(998) <= period + 1,
        "consecutive blocks are one block period apart");
  const double exact_ns = 1e6 * 4096 / kAdcRateHz * 1e9;
  const double got_ns = static_cast<double>(clock.due_ns(1000000) - clock.due_ns(0));
  check(got_ns >= exact_ns - 1 && got_ns <= exact_ns + 1,
        "due times do not drift over a million blocks");
}

void paced_run_charges_reopened_sessions_by_feed_seq() {
  // A slow converter (1 ms blocks) so the run is short and the lags are
  // far below the period; one session is closed and reopened mid-stream.
  StreamSpec spec;
  spec.capture = small_capture(7);
  spec.rate_hz = static_cast<double>(kBlockSamples) / 1e-3;
  spec.workers = 1;
  spec.warmup_s = 0.0;
  spec.window_s = 0.08;
  spec.initial = {drm_plan(5e6)};
  ControlEvent reopen;
  reopen.at_s = 0.04;
  reopen.kind = ControlKind::kReopen;
  reopen.slot = 0;
  reopen.plan = burst_plan(7e6);
  spec.schedule.push_back(reopen);
  const StreamOutcome o = run_stream(spec);

  bool never_early = true;
  for (std::uint64_t seq = 0; seq < o.feed->capacity() && o.feed->read_end_ns(seq) != 0; ++seq)
    never_early = never_early && o.feed->read_end_ns(seq) >= o.clock.due_ns(seq);
  check(never_early, "the paced source never releases a block before it is due");

  check(o.incarnations.size() == 2, "the reopen made a second incarnation");
  if (o.incarnations.size() != 2) return;
  const Incarnation& second = o.incarnations[1];
  check(second.first_seq > 20 && second.tape.chunks() > 0 &&
            second.tape.seq.front() == second.first_seq,
        "the reopened session starts at the feed position, not at block 0");
  bool bounded = !second.tape.seq.empty();
  for (std::size_t k = 0; k < second.tape.chunks(); ++k) {
    const std::int64_t late = second.tape.poll_ns[k] - o.clock.due_ns(second.tape.seq[k]);
    bounded = bounded && late >= 0 && late < 50'000'000;
  }
  check(bounded, "reopened chunks are timed from their own block's due time");
  const FailLedger ledger = check_incarnations(o.incarnations, *spec.capture, kBlockSamples, 2);
  check(ledger.attempted > 60 && ledger.failed() == 0, "both incarnations replay bit-exact");
}

void timing_decorator_is_transparent() {
  auto& timed = TimedNative::install();
  auto& registry = twiddc::core::BackendRegistry::instance();
  auto plain = registry.create(twiddc::backends::kNative);
  auto wrapped = registry.create(TimedNative::kName);
  const auto log = timed.take_last();
  const auto capture = small_capture(11);
  const ChainPlan a = drm_plan(3e6), b = drm_plan(4.5e6), c = burst_plan(9e6);
  plain->configure(a);
  wrapped->configure(a);
  std::vector<IqSample> out_plain, out_wrapped;
  for (std::uint64_t seq = 0; seq < 48; ++seq) {
    if (seq == 16) {
      plain->swap_plan(b, SwapMode::kSplice);
      wrapped->swap_plan(b, SwapMode::kSplice);
    }
    if (seq == 32) {
      plain->swap_plan(c, SwapMode::kFlush);
      wrapped->swap_plan(c, SwapMode::kFlush);
    }
    plain->process_block(feed_block(*capture, kBlockSamples, seq), out_plain);
    wrapped->process_block(feed_block(*capture, kBlockSamples, seq), out_wrapped);
  }
  check(!out_plain.empty() && out_plain == out_wrapped,
        "decorated native backend output is bit-exact across splice and flush swaps");
  check(log && log->blocks.size() == 48 && log->swaps.size() == 2,
        "the decorator logged every process_block and swap_plan call");
  check(wrapped->plan().name == c.name && wrapped->name() == plain->name(),
        "plan and name pass through");
}

/// A tape that exactly reproduces `plan` over blocks [first, first + n),
/// with a kFlush retune to `next` before local block `flush_at`.
Incarnation reference_incarnation(const std::vector<std::int64_t>& capture, const ChainPlan& plan,
                                  const ChainPlan& next, std::uint64_t first, std::uint64_t n,
                                  std::uint64_t flush_at) {
  Incarnation inc;
  inc.plan = plan;
  inc.first_seq = first;
  inc.end_seq = first + n;
  inc.retunes.push_back({flush_at, next, SwapMode::kFlush});
  twiddc::core::DdcPipeline pipe(plan);
  for (std::uint64_t k = 0; k < n; ++k) {
    twiddc::stream::StreamChunk chunk;
    chunk.block_seq = first + k;
    if (k == flush_at) {
      pipe.swap_plan(next, SwapMode::kFlush);
      chunk.gap_before = twiddc::stream::GapCause::kRetuneFlush;
    }
    pipe.process_block(feed_block(capture, kBlockSamples, first + k), chunk.iq);
    inc.tape.add(chunk, 0);
  }
  return inc;
}

/// Rebuilds `inc`'s tape without chunk `drop` and with one sample of chunk
/// `corrupt` flipped (either index may be out of range: no edit).
Incarnation edited(const Incarnation& inc, std::size_t drop, std::size_t corrupt) {
  Incarnation out = inc;
  out.tape = SessionTape{};
  for (std::size_t k = 0; k < inc.tape.chunks(); ++k) {
    if (k == drop) continue;
    twiddc::stream::StreamChunk chunk;
    chunk.block_seq = inc.tape.seq[k];
    chunk.gap_before = inc.tape.gap[k];
    const auto iq = inc.tape.chunk_iq(k);
    chunk.iq.assign(iq.begin(), iq.end());
    if (k == corrupt && !chunk.iq.empty()) chunk.iq.front().i ^= 1;
    out.tape.add(chunk, 0);
  }
  return out;
}

void ledger_counts_injected_failures() {
  const auto capture = small_capture(13);
  const Incarnation clean =
      reference_incarnation(*capture, drm_plan(2e6), burst_plan(6e6), 5, 20, 10);
  constexpr std::size_t kNone = ~std::size_t{0};

  FailLedger l = check_incarnations({clean}, *capture, kBlockSamples, 1);
  check(l.attempted == 20 && l.failed() == 0, "a faithful tape with a designed kFlush gap passes");

  l = check_incarnations({edited(clean, 4, kNone)}, *capture, kBlockSamples, 1);
  check(l.lost == 1 && l.mismatched == 0 && l.fail_share() == 1.0 / 20,
        "an injected drop counts as one lost block");

  l = check_incarnations({edited(clean, kNone, 12)}, *capture, kBlockSamples, 1);
  check(l.lost == 0 && l.mismatched == 1, "an injected sample error counts as one mismatch");

  l = check_incarnations({edited(clean, 4, 12)}, *capture, kBlockSamples, 1);
  check(l.failed() == 2 && l.fail_share() == 2.0 / 20, "fail_share counts both");

  Incarnation no_marker = edited(clean, kNone, kNone);
  no_marker.tape.gap[10] = twiddc::stream::GapCause::kNone;
  l = check_incarnations({no_marker}, *capture, kBlockSamples, 1);
  check(l.mismatched == 1, "a missing kRetuneFlush marker is a mismatch");

  Incarnation shed = edited(clean, kNone, kNone);
  shed.tape.gap[3] = twiddc::stream::GapCause::kShed;
  l = check_incarnations({shed}, *capture, kBlockSamples, 1);
  check(l.mismatched == 1, "an undesigned gap marker is a failure");
}

}  // namespace

int main() {
  twiddc::backends::register_builtin();
  due_clock_maps_seq_to_converter_time();
  paced_run_charges_reopened_sessions_by_feed_seq();
  timing_decorator_is_transparent();
  ledger_counts_injected_failures();
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "OK", failures);
  return failures ? 1 : 0;
}
