#include "perfbench/src/harness.hpp"

#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "perfbench/src/bench.hpp"
#include "src/backends/builtin.hpp"
#include "src/common/error.hpp"
#include "src/core/plan_compiler.hpp"

namespace perfbench {

using twiddc::core::ChainPlan;
using twiddc::core::IqSample;
using twiddc::stream::GapCause;

// ------------------------------------------------------------------ feed

FeedSource::FeedSource(std::shared_ptr<const std::vector<std::int64_t>> capture,
                       double rate_hz, std::size_t block_samples,
                       std::shared_ptr<FeedLog> log)
    : capture_(std::move(capture)),
      rate_hz_(rate_hz),
      block_(block_samples),
      log_(std::move(log)) {
  if (!capture_ || capture_->empty() || block_ == 0 || capture_->size() % block_ != 0)
    throw twiddc::ConfigError("FeedSource: capture must be whole blocks");
}

std::span<const std::int64_t> feed_block(const std::vector<std::int64_t>& capture,
                                         std::size_t block_samples, std::uint64_t seq) {
  const std::size_t blocks = capture.size() / block_samples;
  const std::size_t start = static_cast<std::size_t>(seq % blocks) * block_samples;
  return {capture.data() + start, block_samples};
}

std::size_t FeedSource::read(std::span<std::int64_t> out) {
  if (finish_.load(std::memory_order_acquire) || seq_ >= log_->capacity()) return 0;
  if (out.size() != block_) throw twiddc::ConfigError("FeedSource: engine block size mismatch");
  if (seq_ == 0) {
    // The pump thread is the load generator's clock: ask for 1 ns timer
    // slack so absolute-deadline sleeps wake close to the deadline.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    epoch_ns_.store(now_ns(), std::memory_order_release);
  }
  if (rate_hz_ > 0.0) {
    const std::int64_t due = clock().due_ns(seq_);
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(due / 1000000000);
    ts.tv_nsec = static_cast<long>(due % 1000000000);
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
    }
  }
  const auto block = feed_block(*capture_, block_, seq_);
  std::copy(block.begin(), block.end(), out.begin());
  log_->stamp(seq_, now_ns());
  ++seq_;
  return block_;
}

// ---------------------------------------------------------- timed backend

TimingBackend::TimingBackend(std::unique_ptr<twiddc::core::ArchitectureBackend> inner,
                             std::shared_ptr<BackendLog> log)
    : inner_(std::move(inner)), log_(std::move(log)) {}

void TimingBackend::process_block(std::span<const std::int64_t> in,
                                  std::vector<IqSample>& out) {
  CallSpan span;
  span.start_ns = now_ns();
  inner_->process_block(in, out);
  span.end_ns = now_ns();
  log_->blocks.push_back(span);
}

void TimingBackend::swap_plan(const ChainPlan& plan, twiddc::core::SwapMode mode) {
  CallSpan span;
  span.start_ns = now_ns();
  inner_->swap_plan(plan, mode);
  span.end_ns = now_ns();
  log_->swaps.push_back(span);
}

TimedNative& TimedNative::install() {
  static TimedNative* registry = [] {
    auto* r = new TimedNative();
    twiddc::backends::register_decorated(
        kName, twiddc::backends::kNative,
        [r](std::unique_ptr<twiddc::core::ArchitectureBackend> inner)
            -> std::unique_ptr<twiddc::core::ArchitectureBackend> {
          auto log = std::make_shared<BackendLog>();
          log->blocks.reserve(1 << 14);
          {
            std::lock_guard<std::mutex> lock(r->mu_);
            r->last_ = log;
          }
          return std::make_unique<TimingBackend>(std::move(inner), std::move(log));
        });
    return r;
  }();
  return *registry;
}

std::shared_ptr<BackendLog> TimedNative::take_last() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(last_);
}

// ------------------------------------------------------------ client tape

void SessionTape::add(const twiddc::stream::StreamChunk& chunk, std::int64_t t_ns) {
  seq.push_back(chunk.block_seq);
  gap.push_back(chunk.gap_before);
  iq.insert(iq.end(), chunk.iq.begin(), chunk.iq.end());
  offset.push_back(iq.size());
  poll_ns.push_back(t_ns);
}

// ------------------------------------------------------- replay checking

namespace {

std::string script_key(const Incarnation& inc) {
  std::string key = twiddc::core::canonical_plan_key(inc.plan);
  key += "|" + std::to_string(inc.first_seq) + "|" + std::to_string(inc.end_seq);
  for (const AppliedRetune& r : inc.retunes) {
    key += "|" + std::to_string(r.at_block) + (r.mode == twiddc::core::SwapMode::kFlush ? "F" : "S");
    key += twiddc::core::canonical_plan_key(r.plan);
  }
  return key;
}

/// Replays one script once and checks every member incarnation against it.
FailLedger check_group(const std::vector<const Incarnation*>& members,
                       const std::vector<std::int64_t>& capture,
                       std::size_t block_samples) {
  const Incarnation& script = *members.front();
  FailLedger ledger;
  twiddc::core::DdcPipeline ref(script.plan);
  std::vector<std::size_t> cursor(members.size(), 0);
  std::vector<IqSample> out;
  std::size_t next_retune = 0;
  for (std::uint64_t seq = script.first_seq; seq < script.end_seq; ++seq) {
    const std::uint64_t k = seq - script.first_seq;
    bool flushed = false;
    while (next_retune < script.retunes.size() &&
           script.retunes[next_retune].at_block == k) {
      const AppliedRetune& r = script.retunes[next_retune++];
      ref.swap_plan(r.plan, r.mode);
      flushed = flushed || r.mode == twiddc::core::SwapMode::kFlush;
    }
    out.clear();
    ref.process_block(feed_block(capture, block_samples, seq), out);
    const GapCause expected_gap = flushed ? GapCause::kRetuneFlush : GapCause::kNone;
    for (std::size_t m = 0; m < members.size(); ++m) {
      const SessionTape& tape = members[m]->tape;
      ++ledger.attempted;
      std::size_t& c = cursor[m];
      if (c >= tape.chunks() || tape.seq[c] != seq) {
        ++ledger.lost;
        continue;
      }
      const auto got = tape.chunk_iq(c);
      if (tape.gap[c] != expected_gap || got.size() != out.size() ||
          !std::equal(got.begin(), got.end(), out.begin()))
        ++ledger.mismatched;
      ++c;
    }
  }
  // Chunks outside the expected range (or out of order) are wrong output.
  for (std::size_t m = 0; m < members.size(); ++m)
    ledger.mismatched += members[m]->tape.chunks() - cursor[m];
  return ledger;
}

}  // namespace

FailLedger check_incarnations(const std::vector<Incarnation>& incarnations,
                              const std::vector<std::int64_t>& capture,
                              std::size_t block_samples, int threads) {
  std::map<std::string, std::vector<const Incarnation*>> by_script;
  for (const Incarnation& inc : incarnations) by_script[script_key(inc)].push_back(&inc);
  std::vector<std::vector<const Incarnation*>> groups;
  groups.reserve(by_script.size());
  for (auto& [key, members] : by_script) groups.push_back(std::move(members));

  std::vector<FailLedger> ledgers(groups.size());
  parallel_for(groups.size(), threads, [&](std::size_t g) {
    ledgers[g] = check_group(groups[g], capture, block_samples);
  });
  FailLedger total;
  for (const FailLedger& l : ledgers) total.merge(l);
  return total;
}

void SpanLog::add(const char* name, std::uint64_t session, std::uint64_t seq,
                  std::int64_t start_ns, std::int64_t end_ns) {
  if (spans_.size() >= cap_) {
    ++dropped_;
    return;
  }
  spans_.push_back({name, session, seq, start_ns, end_ns});
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) t0 = std::min(t0, s.start_ns);
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %llu, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"session\": %llu, \"seq\": %llu}}",
                 i ? ",\n" : "", s.name, static_cast<unsigned long long>(s.session),
                 static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.session),
                 static_cast<unsigned long long>(s.seq));
  }
  std::fprintf(f, "\n], \"dropped_spans\": %zu}\n", dropped_);
  return std::fclose(f) == 0;
}

double json_number(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

}  // namespace perfbench
