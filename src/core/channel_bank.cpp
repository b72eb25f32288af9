#include "src/core/channel_bank.hpp"

#include <algorithm>
#include <exception>
#include <map>
#include <string>

#include "src/common/error.hpp"
#include "src/common/simd.hpp"

namespace twiddc::core {
namespace {
// Units are advanced tile by tile so the shared input stays cache-resident
// while every unit walks it, and a tile is also the stealable unit: between
// tiles a unit's continuation sits in a scheduler run queue where an idle
// worker can claim it.  Executors are streaming-composable, so tiling is
// bit-exact with one monolithic call.
constexpr std::size_t kTileSamples = 8192;
}  // namespace

ChannelBank::ChannelBank(const std::vector<ChainPlan>& plans, int workers) {
  if (plans.empty()) throw ConfigError("ChannelBank: needs at least one plan");
  channels_.reserve(plans.size());
  for (const auto& plan : plans)
    channels_.emplace_back(CompiledPlanCache::instance().get_or_compile(plan));
  workers_ = std::clamp(workers, 1, static_cast<int>(channels_.size()));
  // The scheduler holds workers_-1 threads; the calling thread participates
  // in every process_block via the fork-join steal loop.
  if (workers_ > 1) sched_ = std::make_unique<common::TaskScheduler>(workers_ - 1);
}

ChannelBank::~ChannelBank() = default;
ChannelBank::ChannelBank(ChannelBank&&) noexcept = default;
ChannelBank& ChannelBank::operator=(ChannelBank&&) noexcept = default;

std::vector<ChannelBank::Unit> ChannelBank::make_units() const {
  std::vector<Unit> units;
  if (!packing_) {
    for (std::size_t c = 0; c < channels_.size(); ++c) units.push_back(Unit{{c}, 1});
    return units;
  }
  // Lane groups share a structure, so they advance stage by stage in
  // lockstep; whether each stage actually packs is up to the kernels.
  std::map<std::string, std::vector<std::size_t>> groups;
  for (std::size_t c = 0; c < channels_.size(); ++c)
    groups[channels_[c].compiled().structural_key()].push_back(c);
  // Octets only when the AVX-512 tier is actually up right now; an octet on
  // an AVX2-only box would split into quad halves, which quads already
  // express directly.
  const int widest = simd::avx512_active() ? 8 : 4;
  for (const auto& [key, chs] : groups) {
    std::size_t i = 0;
    for (int width = widest; width >= 4; width /= 2) {
      for (; i + static_cast<std::size_t>(width) <= chs.size();
           i += static_cast<std::size_t>(width)) {
        Unit u;
        u.lanes = width;
        std::copy_n(chs.begin() + static_cast<std::ptrdiff_t>(i), width, u.ch);
        units.push_back(u);
      }
    }
    for (; i < chs.size(); ++i) units.push_back(Unit{{chs[i]}, 1});
  }
  // Submit in channel order, not group-key order: scheduling (and therefore
  // the work-stealing interleave the bank's tests pin down) stays identical
  // to the per-channel path whenever no group forms.
  std::sort(units.begin(), units.end(),
            [](const Unit& a, const Unit& b) { return a.ch[0] < b.ch[0]; });
  return units;
}

void ChannelBank::run_tile(const Unit& unit, std::span<const std::int64_t> tile,
                           std::vector<std::vector<IqSample>>& out) {
  FusedChainExec* lanes[FusedChainExec::kMaxLanes];
  std::vector<IqSample>* outs[FusedChainExec::kMaxLanes];
  for (int l = 0; l < unit.lanes; ++l) {
    lanes[l] = &channels_[unit.ch[l]];
    outs[l] = &out[unit.ch[l]];
  }
  FusedChainExec::process_lanes(lanes, unit.lanes, tile, outs);
}

void ChannelBank::run_tile_chain(std::span<const std::int64_t> in,
                                 std::vector<std::vector<IqSample>>& out,
                                 common::TaskScheduler::Group group, Unit unit,
                                 std::size_t offset) {
  try {
    for (;;) {
      const std::span<const std::int64_t> tile =
          in.subspan(offset, std::min(kTileSamples, in.size() - offset));
      run_tile(unit, tile, out);
      offset += tile.size();
      if (offset >= in.size()) {
        group.complete();
        return;
      }
      if (sched_ && sched_->current_worker_index() >= 0) {
        // Publish the continuation instead of looping: the usual pop takes
        // it right back (cache-hot LIFO), but while this worker is busy
        // elsewhere an idle worker can steal the chain -- that migration is
        // what keeps skewed decimations from stalling the block barrier.
        sched_->submit_local([this, in, &out, group, unit, offset] {
          run_tile_chain(in, out, group, unit, offset);
        });
        return;
      }
      // The fork-join caller has no queue; it keeps the chain inline.
    }
  } catch (...) {
    group.fail(std::current_exception());
  }
}

void ChannelBank::process_block(std::span<const std::int64_t> in,
                                std::vector<std::vector<IqSample>>& out) {
  out.resize(channels_.size());
  if (in.empty()) return;
  const std::vector<Unit> units = make_units();

  const auto n_workers =
      static_cast<std::size_t>(std::min<int>(workers_, static_cast<int>(units.size())));
  if (n_workers <= 1 || !sched_) {
    // Serial mode: tile-outer, unit-inner -- every unit advances through
    // tile t before any unit starts tile t+1.
    for (std::size_t off = 0; off < in.size(); off += kTileSamples) {
      const std::span<const std::int64_t> tile =
          in.subspan(off, std::min(kTileSamples, in.size() - off));
      for (const Unit& u : units) run_tile(u, tile, out);
    }
    return;
  }

  // One tile chain per unit, spread round-robin over the worker queues;
  // the caller joins through wait(), taking and executing chains
  // alongside the pool.  Units touch disjoint channels and output vectors,
  // so any steal-driven interleaving is bit-exact with serial execution;
  // the only shared read is `in`.
  common::TaskScheduler::Group group;
  group.expect(units.size());
  for (std::size_t k = 0; k < units.size(); ++k) {
    sched_->submit_to(static_cast<int>(k), [this, in, &out, group, u = units[k]] {
      run_tile_chain(in, out, group, u, 0);
    });
  }
  sched_->wait(group);
  group.rethrow_if_error();
}

std::vector<std::vector<IqSample>> ChannelBank::process(
    const std::vector<std::int64_t>& in) {
  std::vector<std::vector<IqSample>> out;
  process_block(in, out);
  return out;
}

void ChannelBank::reset() {
  for (auto& ch : channels_) ch.reset();
}

}  // namespace twiddc::core
