#include "perfbench/src/stream_run.hpp"

#include <algorithm>
#include <cmath>

#include "perfbench/src/bench.hpp"
#include "perfbench/src/scene.hpp"
#include "src/backends/builtin.hpp"
#include "src/core/plan_compiler.hpp"
#include "src/stream/engine.hpp"

namespace perfbench {

using twiddc::core::CompiledPlanCache;
using twiddc::stream::Session;
using twiddc::stream::StreamEngine;

namespace {

twiddc::stream::EngineOptions engine_options(const StreamSpec& spec) {
  twiddc::stream::EngineOptions opts;
  opts.workers = spec.workers;
  opts.block_samples = spec.block_samples;
  return opts;
}

std::size_t feed_capacity(const StreamSpec& spec) {
  // Unpaced feeds are bounded by what the sessions consume; four converter
  // rates is far above any workload here, and running out only ends the
  // feed early (reported as a short window).
  const double rate = spec.rate_hz > 0.0 ? spec.rate_hz : 4.0 * kAdcRateHz;
  return static_cast<std::size_t>((spec.warmup_s + spec.window_s + 10.0) * rate /
                                  static_cast<double>(spec.block_samples));
}

const char* backend_for(const StreamSpec& spec) {
  return spec.traced ? TimedNative::kName : twiddc::backends::kNative;
}

}  // namespace

std::vector<double> time_setup(const StreamSpec& spec, int reps) {
  std::vector<double> out;
  for (int rep = 0; rep < reps; ++rep) {
    CompiledPlanCache::instance().clear();
    auto log = std::make_shared<FeedLog>(1);
    const std::int64_t t0 = now_ns();
    {
      StreamEngine engine(
          std::make_unique<FeedSource>(spec.capture, spec.rate_hz, spec.block_samples, log),
          engine_options(spec));
      for (const auto& plan : spec.initial) (void)engine.open(plan, backend_for(spec));
      out.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
  }
  return out;
}

StreamOutcome run_stream(const StreamSpec& spec) {
  StreamOutcome o;
  o.feed = std::make_shared<FeedLog>(feed_capacity(spec));
  CompiledPlanCache::instance().clear();
  const auto cache0 = CompiledPlanCache::instance().stats();

  struct Slot {
    std::shared_ptr<Session> session;
    std::size_t inc = 0;  // index into o.incarnations
    std::uint64_t pumped_before = 0, pumped_after = 0;
  };
  std::vector<Slot> slots(spec.initial.size());
  std::vector<std::shared_ptr<Session>> all_sessions;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> open_bounds;  // per incarnation

  const std::int64_t setup0 = now_ns();
  auto source_owner =
      std::make_unique<FeedSource>(spec.capture, spec.rate_hz, spec.block_samples, o.feed);
  FeedSource* source = source_owner.get();
  StreamEngine engine(std::move(source_owner), engine_options(spec));
  auto open_slot = [&](std::size_t k, const twiddc::core::ChainPlan& plan) {
    Slot& slot = slots[k];
    slot.pumped_before = engine.blocks_pumped();
    const std::int64_t t0 = now_ns();
    slot.session = engine.open(plan, backend_for(spec));
    o.open_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    slot.pumped_after = engine.blocks_pumped();
    slot.inc = o.incarnations.size();
    o.incarnations.emplace_back();
    o.incarnations.back().plan = plan;
    open_bounds.emplace_back(slot.pumped_before, slot.pumped_after);
    o.logs.push_back(spec.traced ? TimedNative::install().take_last() : nullptr);
    all_sessions.push_back(slot.session);
  };
  for (std::size_t k = 0; k < slots.size(); ++k) open_slot(k, spec.initial[k]);
  o.setup_s = static_cast<double>(now_ns() - setup0) * 1e-9;

  auto poll_slot = [&](Slot& slot) {
    bool any = false;
    for (auto& chunk : slot.session->poll()) {
      o.incarnations[slot.inc].tape.add(chunk, now_ns());
      any = true;
    }
    return any;
  };

  engine.start();
  const std::int64_t start_ns = now_ns();
  o.window_start_ns = start_ns + static_cast<std::int64_t>(spec.warmup_s * 1e9);
  o.window_end_ns = o.window_start_ns + static_cast<std::int64_t>(spec.window_s * 1e9);
  bool in_window = false, finishing = false;
  const std::size_t subs =
      std::max<std::size_t>(4, static_cast<std::size_t>(std::lround(spec.window_s / kSubwindowS)));
  const double sub_ns = spec.window_s * 1e9 / static_cast<double>(subs);
  std::vector<std::int64_t> retune_at_ns;
  Usage u0;
  std::string stats0;
  std::size_t next_event = 0;
  for (;;) {
    const auto token = engine.output_token();
    bool any = false;
    for (Slot& slot : slots) any = poll_slot(slot) || any;
    const std::int64_t now = now_ns();
    if (!finishing) {
      if (!in_window && now >= o.window_start_ns) {
        in_window = true;
        o.window_start_ns = now;
        u0 = usage_now();
        o.rss_mb = u0.max_rss_mb;
        stats0 = engine.stats_json();
      }
      while (next_event < spec.schedule.size() &&
             now >= start_ns + static_cast<std::int64_t>(spec.schedule[next_event].at_s * 1e9)) {
        const ControlEvent& ev = spec.schedule[next_event++];
        Slot& slot = slots.at(ev.slot);
        ++o.control_ops;
        if (ev.kind == ControlKind::kReopen) {
          slot.session->close();
          poll_slot(slot);  // queued output stays pollable after close
          open_slot(ev.slot, ev.plan);
          continue;
        }
        const auto mode = ev.kind == ControlKind::kFlush ? twiddc::core::SwapMode::kFlush
                                                         : twiddc::core::SwapMode::kSplice;
        const std::int64_t t0 = now_ns();
        const bool ok = slot.session->retune(ev.plan, mode);
        const std::int64_t t1 = now_ns();
        if (!ok) {
          ++o.control_failures;
          continue;
        }
        if (in_window) {
          o.retune_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
          retune_at_ns.push_back(t0);
        }
        o.incarnations[slot.inc].retunes.push_back(
            {slot.session->stats().last_retune_block, ev.plan, mode});
      }
      if (in_window && now >= o.window_end_ns) {
        const Usage u1 = usage_now();
        o.window_end_ns = now;
        o.cpu_s = u1.cpu_s - u0.cpu_s;
        o.ctx_switches = u1.ctx_switches - u0.ctx_switches;
        o.steal_share = steal_share(u0, u1);
        const std::string stats1 = engine.stats_json();
        const auto delta = [&](const char* key) {
          return json_number(stats1, key) - json_number(stats0, key);
        };
        o.tasks_executed = delta("tasks_executed");
        o.tasks_stolen = delta("tasks_stolen");
        o.wakeups = delta("targeted_wakeups");
        source->finish();
        finishing = true;
      }
    }
    if (any) continue;
    if (finishing) {
      bool done = true;
      for (const Slot& slot : slots) done = done && engine.finished(*slot.session);
      if (done) break;
    }
    const std::int64_t w0 = now_ns();
    engine.wait_output(token);
    if (in_window && !finishing) o.client_wait_s += static_cast<double>(now_ns() - w0) * 1e-9;
  }
  engine.stop();
  o.clock = source->clock();
  o.window_s = static_cast<double>(o.window_end_ns - o.window_start_ns) * 1e-9;

  // Expected block ranges.  A session opened mid-stream starts at the pump
  // position around its open(): the block in flight may or may not include
  // it, so its first chunk must fall in [before, after + 1].
  const std::uint64_t pumped = engine.blocks_pumped();
  for (std::size_t i = 0; i < o.incarnations.size(); ++i) {
    Incarnation& inc = o.incarnations[i];
    const auto [before, after] = open_bounds[i];
    inc.first_seq = before;
    if (inc.tape.chunks() > 0 && inc.tape.seq[0] >= before && inc.tape.seq[0] <= after + 1)
      inc.first_seq = inc.tape.seq[0];
    if (all_sessions[i]->closed())
      inc.end_seq = inc.tape.chunks() > 0 ? std::max(inc.first_seq, inc.tape.seq.back() + 1)
                                          : inc.first_seq;
    else
      inc.end_seq = pumped;
  }
  for (const auto& s : all_sessions) {
    const auto st = s->stats();
    o.max_queue_depth = std::max(o.max_queue_depth, st.max_queue_depth);
    o.lost_blocks += st.input_drop_blocks + st.output_drop_chunks + st.shed_events + st.faults;
  }

  // Window accounting from the tapes, also per sub-window.
  const auto sub_of = [&](std::int64_t t) {
    return std::min<std::size_t>(
        subs - 1, static_cast<std::size_t>(static_cast<double>(t - o.window_start_ns) / sub_ns));
  };
  std::vector<std::uint64_t> per_sub(subs, 0);
  std::vector<std::vector<double>> sub_latency(subs);
  for (const Incarnation& inc : o.incarnations) {
    const SessionTape& tape = inc.tape;
    for (std::size_t k = 0; k < tape.chunks(); ++k) {
      const std::int64_t t = tape.poll_ns[k];
      if (t < o.window_start_ns || t >= o.window_end_ns) continue;
      ++o.window_chunks;
      const std::int64_t ref = spec.rate_hz > 0.0 ? o.clock.due_ns(tape.seq[k])
                                                  : o.feed->read_end_ns(tape.seq[k]);
      o.latency_ms.push_back(static_cast<double>(t - ref) * 1e-6);
      ++per_sub[sub_of(t)];
      sub_latency[sub_of(t)].push_back(o.latency_ms.back());
    }
  }
  // The last sub-window absorbs the few microseconds the window overran.
  for (std::size_t j = 0; j < subs; ++j) {
    const double len_ns = j + 1 < subs ? sub_ns
                                              : static_cast<double>(o.window_end_ns - o.window_start_ns) -
                                                    sub_ns * static_cast<double>(subs - 1);
    o.subwindow_msps.push_back(static_cast<double>(per_sub[j] * spec.block_samples) /
                               (len_ns * 1e-9) / 1e6);
    o.subwindow_latency_ms.push_back(median(sub_latency[j]));
  }
  std::vector<double> score = o.subwindow_msps;
  if (spec.rate_hz > 0.0)
    for (std::size_t j = 0; j < subs; ++j) score[j] = -o.subwindow_latency_ms[j];
  const std::vector<std::size_t> best = best_quarter(score);
  std::vector<double> rates;
  for (const std::size_t j : best) {
    rates.push_back(o.subwindow_msps[j]);
    o.best_latency_ms.insert(o.best_latency_ms.end(), sub_latency[j].begin(), sub_latency[j].end());
  }
  o.best_msps = median(rates);
  for (std::size_t i = 0; i < o.retune_ms.size(); ++i)
    if (std::binary_search(best.begin(), best.end(), sub_of(retune_at_ns[i])))
      o.best_retune_ms.push_back(o.retune_ms[i]);

  const auto cache1 = CompiledPlanCache::instance().stats();
  o.compile_s = cache1.compile_seconds - cache0.compile_seconds;
  o.cache_lookups = cache1.lookups - cache0.lookups;
  o.cache_hits = cache1.hits - cache0.hits;
  o.cache_misses = cache1.misses - cache0.misses;
  return o;
}

}  // namespace perfbench
