#include "src/core/channel_bank.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <string>

#include "src/common/error.hpp"
#include "src/common/simd.hpp"

namespace twiddc::core {
namespace {
// A unit walks the block one tile at a time, which bounds the executor's
// per-call intermediates (the first stage's decimated rails, which the later
// stages run over once per call).  Executors are streaming-composable, so
// tiling is bit-exact with one monolithic call.
constexpr std::size_t kTileSamples = 8192;
}  // namespace

ChannelBank::ChannelBank(const std::vector<ChainPlan>& plans, int workers) {
  if (plans.empty()) throw ConfigError("ChannelBank: needs at least one plan");
  channels_.reserve(plans.size());
  for (const auto& plan : plans)
    channels_.emplace_back(CompiledPlanCache::instance().get_or_compile(plan));
  workers_ = std::clamp(workers, 1, static_cast<int>(channels_.size()));
  // The scheduler holds workers_-1 threads; the calling thread drains beside
  // them in every process_block.
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
  // Claim in channel order, not group-key order, so the drain order matches
  // the per-channel path whenever no group forms.
  std::sort(units.begin(), units.end(),
            [](const Unit& a, const Unit& b) { return a.ch[0] < b.ch[0]; });
  return units;
}

void ChannelBank::run_unit(const Unit& unit, std::span<const std::int64_t> in,
                           std::vector<std::vector<IqSample>>& out) {
  FusedChainExec* lanes[FusedChainExec::kMaxLanes];
  std::vector<IqSample>* outs[FusedChainExec::kMaxLanes];
  for (int l = 0; l < unit.lanes; ++l) {
    lanes[l] = &channels_[unit.ch[l]];
    outs[l] = &out[unit.ch[l]];
  }
  for (std::size_t off = 0; off < in.size(); off += kTileSamples)
    FusedChainExec::process_lanes(
        lanes, unit.lanes, in.subspan(off, std::min(kTileSamples, in.size() - off)),
        outs);
}

void ChannelBank::process_block(std::span<const std::int64_t> in,
                                std::vector<std::vector<IqSample>>& out) {
  out.resize(channels_.size());
  if (in.empty()) return;
  const std::vector<Unit> units = make_units();

  // Every draining thread claims the next unit until none is left.  A
  // drain touches `units`, `next`, `in` and `out` only before its
  // complete()/fail(), and the wait below outlasts every such call, so they
  // may live on this frame; the Group itself is captured by value.
  std::atomic<std::size_t> next{0};
  common::TaskScheduler::Group group;
  const auto drain = [this, in, &out, &units, &next, group] {
    try {
      for (std::size_t k; (k = next.fetch_add(1, std::memory_order_relaxed)) < units.size();)
        run_unit(units[k], in, out);
      group.complete();
    } catch (...) {
      group.fail(std::current_exception());
    }
  };
  const int helpers = std::min<int>(workers_, static_cast<int>(units.size())) - 1;
  group.expect(static_cast<std::size_t>(helpers) + 1);
  for (int h = 0; h < helpers; ++h) sched_->submit_to(h, drain);
  drain();
  group.wait();
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
