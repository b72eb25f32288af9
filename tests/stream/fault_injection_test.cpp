// Fault containment & graceful degradation: deterministic fault injection
// against the StreamEngine supervision machinery.  Every failure path the
// session boundary claims to contain is driven on demand here -- backend
// throws at process/configure/swap, stuck backends, broken and short-reading
// sources, corrupt blocks -- across the registered architectures, with the
// invariant under test always the same: one component's failure never
// perturbs another session's stream.
#include "src/stream/fault_injector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/backends/builtin.hpp"
#include "src/common/error.hpp"
#include "src/common/trace.hpp"
#include "src/core/backend.hpp"
#include "src/core/datapath_spec.hpp"
#include "src/core/ddc_config.hpp"
#include "src/dsp/signal.hpp"
#include "src/stream/engine.hpp"
#include "src/stream/sink.hpp"
#include "src/stream/source.hpp"

namespace twiddc::stream {
namespace {

using core::ChainPlan;
using core::DatapathSpec;
using core::DdcConfig;
using core::IqSample;
using core::SwapMode;

DdcConfig reference_config() { return DdcConfig::reference(10.0e6); }

ChainPlan figure1_plan(double nco_offset_hz = 0.0) {
  auto cfg = reference_config();
  cfg.nco_freq_hz += nco_offset_hz;
  return ChainPlan::figure1(cfg, DatapathSpec::wide16());
}

std::vector<std::int64_t> make_feed(std::size_t n) {
  const auto cfg = reference_config();
  return dsp::quantize_signal(dsp::make_tone(10.0025e6, cfg.input_rate_hz, n, 0.7), 12);
}

/// The injection seed: overridable from the environment so CI can sweep
/// several schedules through the same binary (TWIDDC_FAULT_SEED=n).
std::uint64_t fault_seed() {
  if (const char* env = std::getenv("TWIDDC_FAULT_SEED"))
    return static_cast<std::uint64_t>(std::strtoull(env, nullptr, 10));
  return 0x5eedf417u;
}

std::vector<IqSample> one_shot(const std::string& backend_name, const ChainPlan& plan,
                               const std::vector<std::int64_t>& feed) {
  auto backend = core::BackendRegistry::instance().create(backend_name);
  backend->configure(plan);
  std::vector<IqSample> out;
  backend->process_block(feed, out);
  return out;
}

/// Block-by-block reference twin: exactly the call sequence the streamed
/// session makes.  `faulted` seqs are skipped (the injector threw before the
/// inner backend saw the block) and followed by a re-configure -- the
/// kRestartWithBackoff recovery the supervised session performs.
std::vector<IqSample> replay(const std::string& backend_name, const ChainPlan& plan,
                             const std::vector<std::int64_t>& feed,
                             std::size_t block_samples,
                             const std::set<std::uint64_t>& faulted = {}) {
  auto backend = core::BackendRegistry::instance().create(backend_name);
  backend->configure(plan);
  std::vector<IqSample> out;
  std::uint64_t seq = 0;
  for (std::size_t pos = 0; pos < feed.size(); pos += block_samples, ++seq) {
    if (faulted.count(seq) > 0) {
      backend->configure(plan);  // the restart re-lowers; the block is lost
      continue;
    }
    const std::size_t n = std::min(block_samples, feed.size() - pos);
    backend->process_block(std::span<const std::int64_t>(feed.data() + pos, n), out);
  }
  return out;
}

void expect_equal(const std::vector<IqSample>& got, const std::vector<IqSample>& want,
                  const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(got[k].i, want[k].i) << label << " sample " << k;
    ASSERT_EQ(got[k].q, want[k].q) << label << " sample " << k;
  }
}

template <typename Pred>
bool wait_until(Pred pred, std::chrono::seconds timeout = std::chrono::seconds(30)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// wait_until without sleeping: yields between polls.  For waits on
/// engine-side progress (watchdog ticks, ring fill), not on elapsed time.
template <typename Pred>
bool spin_until(Pred pred, std::chrono::seconds timeout = std::chrono::seconds(30)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// The engine's watchdog tick count, as stats_json() reports it.
std::uint64_t watchdog_ticks(const StreamEngine& engine) {
  const std::string json = engine.stats_json();
  const std::string key = "\"watchdog_ticks\": ";
  const std::size_t at = json.find(key);
  return at == std::string::npos
             ? 0
             : std::strtoull(json.c_str() + at + key.size(), nullptr, 10);
}

/// Hands out a VectorSource feed, but never more than two blocks ahead of
/// `pace`'s processed count, so `pace`'s input ring (>= 4 blocks) never
/// fills and the pump cannot park on it, however the OS schedules its
/// worker.  Set `pace` before start(); the pump is its only reader.
class PacedSource final : public Source {
 public:
  explicit PacedSource(std::vector<std::int64_t> feed) : inner_(std::move(feed)) {}

  std::size_t read(std::span<std::int64_t> out) override {
    if (pace)
      wait_until([this] { return pace->stats().blocks_processed + 2 >= reads_; });
    ++reads_;
    return inner_.read(out);
  }

  std::shared_ptr<Session> pace;

 private:
  VectorSource inner_;
  std::uint64_t reads_ = 0;
};

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { backends::register_builtin(); }
};

const std::vector<std::string>& all_backends() {
  static const std::vector<std::string> names = {
      backends::kNative, backends::kFixedDdc, backends::kFloatDdc,
      backends::kGc4016, backends::kFpga,     backends::kGpp,
      backends::kMontium};
  return names;
}

// ------------------------------------------------- containment (kFail)

TEST_F(FaultInjectionTest, ProcessThrowIsContainedForEveryBackend) {
  // For each registered architecture: a faulty twin throws on its third
  // process call under the default kFail policy.  The victim must land in
  // kFaulted with a typed FaultInfo, its pre-fault output intact -- and the
  // co-resident native session must stay bit-exact, every time.
  const auto cfg = reference_config();
  const auto feed = make_feed(2688 * 4);
  for (const auto& name : all_backends()) {
    FaultInjector injector(fault_seed());
    FaultSpec spec;
    spec.kind = FaultKind::kThrow;
    spec.site = FaultSite::kProcess;
    spec.first = 2;
    const std::string faulty = injector.register_faulty_backend(name, spec);

    EngineOptions opts;
    opts.workers = 2;
    opts.block_samples = 2688;
    StreamEngine engine(std::make_unique<VectorSource>(feed), opts);
    auto keeper = engine.open(figure1_plan(), backends::kNative);
    auto probe = core::BackendRegistry::instance().create(name);
    const auto plan = probe->plan_for(cfg);
    auto victim = engine.open(plan, faulty);
    engine.start();
    auto chunks = drain_all(engine, {keeper, victim});
    engine.stop();

    expect_equal(flatten(chunks[0]), one_shot(backends::kNative, figure1_plan(), feed),
                 "keeper beside faulty " + name);
    EXPECT_EQ(victim->health(), SessionHealth::kFaulted) << name;
    EXPECT_TRUE(victim->closed()) << name;  // kFail closes the session
    const FaultInfo fault = victim->last_fault();
    EXPECT_EQ(fault.cause, FaultCause::kBackendProcess) << name;
    EXPECT_EQ(fault.block_index, 2u) << name;
    EXPECT_NE(fault.what.find("injected fault"), std::string::npos) << name;
    EXPECT_EQ(victim->stats().faults, 1u) << name;
    EXPECT_EQ(victim->stats().blocks_processed, 2u) << name;
    // The polled prefix (blocks 0..1) is exactly what the inner backend
    // produced before the injected throw.
    expect_equal(flatten(chunks[1]),
                 replay(name, plan, std::vector<std::int64_t>(
                                        feed.begin(), feed.begin() + 2 * 2688),
                        2688),
                 "pre-fault prefix of " + name);
  }
  EXPECT_EQ(error_code(FaultCause::kBackendProcess), 2);  // stable wire code
}

// ------------------------------------------- restart with backoff (tentpole)

TEST_F(FaultInjectionTest, RestartWithBackoffRecoversAndKeeperStaysBitExact) {
  // THE acceptance scenario: the injector forces one session's backend to
  // throw every 3rd block; under kRestartWithBackoff the victim re-lowers
  // its plan and resumes at the block boundary, the losses surface as
  // in-stream kFault gaps, and the other session never notices.
  const auto feed = make_feed(2048 * 12);
  FaultInjector injector(fault_seed());
  FaultSpec spec;
  spec.kind = FaultKind::kThrow;
  spec.site = FaultSite::kProcess;
  spec.first = 3;
  spec.period = 3;
  spec.max_fires = 2;  // faults at process calls 3 and 6
  const std::string faulty = injector.register_faulty_backend(backends::kNative, spec);

  EngineOptions opts;
  opts.workers = 2;
  opts.block_samples = 2048;
  opts.watchdog_interval_us = 500;
  opts.default_restart.policy = RestartPolicy::kRestartWithBackoff;
  opts.default_restart.initial_backoff = std::chrono::milliseconds(1);
  StreamEngine engine(std::make_unique<VectorSource>(feed), opts);
  auto keeper = engine.open(figure1_plan(), backends::kNative);
  auto victim = engine.open(figure1_plan(25.0e3), faulty);
  engine.start();
  auto chunks = drain_all(engine, {keeper, victim});
  engine.stop();

  expect_equal(flatten(chunks[0]), one_shot(backends::kNative, figure1_plan(), feed),
               "keeper beside restarting victim");
  EXPECT_EQ(victim->health(), SessionHealth::kHealthy);
  const auto stats = victim->stats();
  EXPECT_EQ(stats.faults, 2u);
  EXPECT_EQ(stats.restarts, 2u);  // every fault recovered
  EXPECT_EQ(stats.blocks_processed, 10u);  // 12 pumped, 2 consumed by faults
  EXPECT_EQ(injector.counters().throws_fired, 2u);

  // The stream resumes at the block boundary: blocks 3 and 6 are gone, the
  // chunks for blocks 4 and 7 carry the kFault marker with the loss, and
  // the payload is bit-exact with a twin that re-configures at the same
  // points.
  std::size_t fault_gaps = 0;
  for (const auto& chunk : chunks[1]) {
    if (chunk.gap_before == GapCause::kFault) {
      ++fault_gaps;
      EXPECT_TRUE(chunk.block_seq == 4 || chunk.block_seq == 7)
          << "kFault marker on block " << chunk.block_seq;
      EXPECT_EQ(chunk.dropped_feed_samples, 2048u);
    }
  }
  EXPECT_EQ(fault_gaps, 2u);
  expect_equal(flatten(chunks[1]),
               replay(backends::kNative, figure1_plan(25.0e3), feed, 2048, {3, 6}),
               "restarted victim stream");

  // The supervision surface is in stats_json for operators.
  const std::string json = engine.stats_json();
  EXPECT_NE(json.find("\"health\": \"healthy\""), std::string::npos);
  EXPECT_NE(json.find("\"last_fault_cause\": \"backend_process\""), std::string::npos);
  EXPECT_NE(json.find("\"restarts\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"watchdog_ticks\""), std::string::npos);
  EXPECT_NE(json.find("\"stall_quarantines\": 0"), std::string::npos);
}

TEST_F(FaultInjectionTest, ExhaustedRestartBudgetQuarantines) {
  // A deterministically-broken backend (throws on every process call) burns
  // through max_restarts and must park in kQuarantined, not spin forever.
  const auto feed = make_feed(2048 * 8);
  FaultInjector injector(fault_seed());
  FaultSpec spec;
  spec.kind = FaultKind::kThrow;
  spec.site = FaultSite::kProcess;
  spec.first = 0;
  spec.period = 1;
  const std::string faulty = injector.register_faulty_backend(backends::kNative, spec);

  EngineOptions opts;
  opts.block_samples = 2048;
  opts.watchdog_interval_us = 500;
  StreamEngine engine(std::make_unique<VectorSource>(feed), opts);
  auto keeper = engine.open(figure1_plan(), backends::kNative);
  auto victim = engine.open(figure1_plan(25.0e3), faulty);
  RestartOptions budget;
  budget.policy = RestartPolicy::kRestartWithBackoff;
  budget.max_restarts = 2;
  budget.initial_backoff = std::chrono::milliseconds(1);
  budget.max_backoff = std::chrono::milliseconds(2);
  victim->set_restart_policy(budget);
  engine.start();
  auto chunks = drain_all(engine, {keeper, victim});
  engine.stop();

  EXPECT_EQ(victim->health(), SessionHealth::kQuarantined);
  EXPECT_FALSE(victim->closed());  // quarantined, not dead: restart() exists
  const auto stats = victim->stats();
  EXPECT_EQ(stats.restarts, 2u);       // the whole budget was spent
  EXPECT_EQ(stats.faults, 3u);         // initial + one per exhausted retry
  EXPECT_EQ(stats.blocks_processed, 0u);
  EXPECT_TRUE(flatten(chunks[1]).empty());
  expect_equal(flatten(chunks[0]), one_shot(backends::kNative, figure1_plan(), feed),
               "keeper beside quarantined victim");
}

// ------------------------------------------------------- swap-site faults

TEST_F(FaultInjectionTest, SwapThrowFaultsTypedAndRestartsOnOldPlan) {
  // swap_plan throwing something that is NOT a lowering rejection is a
  // backend fault (kBackendSwap): the retune reports failure, the session
  // walks the restart path, and recovery re-lowers the OLD plan -- the
  // injected throw fired before the inner backend was touched.
  const auto feed = make_feed(2048 * 10);
  FaultInjector injector(fault_seed());
  FaultSpec spec;
  spec.kind = FaultKind::kThrow;
  spec.site = FaultSite::kSwap;
  spec.first = 0;
  const std::string faulty = injector.register_faulty_backend(backends::kNative, spec);

  EngineOptions opts;
  opts.block_samples = 2048;
  opts.session_queue_blocks = 4;
  // A 2-chunk output ring parks the worker mid-stream until this thread
  // polls, so the swap fault deterministically lands with feed blocks still
  // queued behind it -- the restart and its kFault marker must then play
  // out in-stream, not after the feed already drained.
  opts.session_output_chunks = 2;
  opts.watchdog_interval_us = 500;
  opts.default_restart.policy = RestartPolicy::kRestartWithBackoff;
  opts.default_restart.initial_backoff = std::chrono::milliseconds(1);
  StreamEngine engine(std::make_unique<VectorSource>(feed), opts);
  auto victim = engine.open(figure1_plan(), faulty);
  engine.start();
  ASSERT_TRUE(wait_until([&] { return victim->queued_output_chunks() >= 2; }));
  EXPECT_FALSE(victim->retune(figure1_plan(40.0e3), SwapMode::kSplice));
  auto chunks = drain_all(engine, {victim});
  engine.stop();

  const auto stats = victim->stats();
  EXPECT_EQ(victim->health(), SessionHealth::kHealthy);
  EXPECT_EQ(victim->last_fault().cause, FaultCause::kBackendSwap);
  EXPECT_EQ(stats.faults, 1u);
  EXPECT_EQ(stats.restarts, 1u);
  EXPECT_EQ(stats.retunes_applied, 0u);
  EXPECT_EQ(stats.retunes_rejected, 0u);  // a fault, not a rejection
  EXPECT_EQ(stats.blocks_processed, 10u);  // no feed block was consumed

  // The restart re-configured the old plan mid-stream; the first chunk
  // after it marks the discontinuity (zero samples lost -- the fault was
  // between blocks, not inside one).
  std::uint64_t resume_seq = 0;
  std::size_t fault_gaps = 0;
  for (const auto& chunk : chunks[0]) {
    if (chunk.gap_before == GapCause::kFault) {
      ++fault_gaps;
      resume_seq = chunk.block_seq;
      EXPECT_EQ(chunk.dropped_feed_samples, 0u);
    }
  }
  ASSERT_EQ(fault_gaps, 1u);
  auto backend = core::BackendRegistry::instance().create(backends::kNative);
  backend->configure(figure1_plan());
  std::vector<IqSample> want;
  const std::size_t boundary = static_cast<std::size_t>(resume_seq) * 2048;
  backend->process_block(std::span<const std::int64_t>(feed.data(), boundary), want);
  backend->configure(figure1_plan());  // the restart's re-lowering, old plan
  backend->process_block(
      std::span<const std::int64_t>(feed.data() + boundary, feed.size() - boundary),
      want);
  expect_equal(flatten(chunks[0]), want, "old-plan stream around swap fault");
}

TEST_F(FaultInjectionTest, LoweringRejectionMidStreamIsBitExactForEveryBackend) {
  // The other half of the swap taxonomy: a LoweringError from swap_plan is
  // a REJECTED RETUNE, not a fault -- for every backend in the registry the
  // old plan must keep streaming bit-exact, health untouched.  A decorated
  // twin makes the rejection injectable even for the backends whose real
  // configure accepts any topology.
  const auto cfg = reference_config();
  const auto feed = make_feed(2688 * 4);
  for (const auto& name : all_backends()) {
    const std::string twin = name + "+rejectswap";
    backends::register_decorated(
        twin, name, [](std::unique_ptr<core::ArchitectureBackend> inner) {
          class RejectSwap final : public core::ArchitectureBackend {
           public:
            explicit RejectSwap(std::unique_ptr<core::ArchitectureBackend> inner)
                : inner_(std::move(inner)) {}
            [[nodiscard]] const std::string& name() const override {
              return inner_->name();
            }
            [[nodiscard]] core::BackendCapabilities capabilities() const override {
              return inner_->capabilities();
            }
            [[nodiscard]] core::DatapathSpec datapath() const override {
              return inner_->datapath();
            }
            [[nodiscard]] core::ChainPlan plan_for(
                const core::DdcConfig& config) const override {
              return inner_->plan_for(config);
            }
            void configure(const core::ChainPlan& plan) override {
              inner_->configure(plan);
            }
            [[nodiscard]] bool is_configured() const override {
              return inner_->is_configured();
            }
            [[nodiscard]] const core::ChainPlan& plan() const override {
              return inner_->plan();
            }
            void process_block(std::span<const std::int64_t> in,
                               std::vector<core::IqSample>& out) override {
              inner_->process_block(in, out);
            }
            void reset() override { inner_->reset(); }
            [[nodiscard]] double output_scale() const override {
              return inner_->output_scale();
            }
            void swap_plan(const core::ChainPlan&, core::SwapMode) override {
              throw core::LoweringError(inner_->name(), "injected swap rejection");
            }

           private:
            std::unique_ptr<core::ArchitectureBackend> inner_;
          };
          return std::unique_ptr<core::ArchitectureBackend>(
              std::make_unique<RejectSwap>(std::move(inner)));
        });

    EngineOptions opts;
    opts.block_samples = 2688;
    StreamEngine engine(std::make_unique<VectorSource>(feed), opts);
    auto probe = core::BackendRegistry::instance().create(name);
    const auto plan = probe->plan_for(cfg);
    auto session = engine.open(plan, twin);
    engine.start();
    ASSERT_TRUE(wait_until([&] { return session->stats().blocks_processed >= 1; }))
        << name;
    EXPECT_FALSE(session->retune(plan, SwapMode::kFlush)) << name;
    EXPECT_NE(session->last_error().find("injected swap rejection"),
              std::string::npos)
        << name;
    auto chunks = drain_all(engine, {session});
    engine.stop();

    const auto stats = session->stats();
    EXPECT_EQ(session->health(), SessionHealth::kHealthy) << name;
    EXPECT_EQ(stats.retunes_rejected, 1u) << name;
    EXPECT_EQ(stats.retunes_applied, 0u) << name;
    EXPECT_EQ(stats.faults, 0u) << name;
    EXPECT_EQ(stats.gaps, 0u) << name;
    expect_equal(flatten(chunks[0]), replay(name, plan, feed, 2688),
                 "post-rejection stream of " + name);
  }
}

// ----------------------------------------------------- watchdog: stalls

TEST_F(FaultInjectionTest, StuckBackendIsQuarantinedAndOthersKeepStreaming) {
  // A backend that sleeps 300 ms inside every process call freezes its
  // session's heartbeat; the watchdog must quarantine it (cause kStall)
  // while the healthy session streams the full feed bit-exact.
  const auto feed = make_feed(2048 * 8);
  FaultInjector injector(fault_seed());
  FaultSpec spec;
  spec.kind = FaultKind::kStall;
  spec.site = FaultSite::kProcess;
  spec.first = 0;
  spec.period = 1;
  spec.stall = std::chrono::milliseconds(300);
  const std::string faulty = injector.register_faulty_backend(backends::kNative, spec);

  EngineOptions opts;
  opts.workers = 2;
  opts.block_samples = 2048;
  opts.watchdog_interval_us = 500;
  opts.stall_timeout_ms = 50;
  StreamEngine engine(std::make_unique<VectorSource>(feed), opts);
  auto keeper = engine.open(figure1_plan(), backends::kNative);
  // kDropOldest so the hostage session cannot park the shared pump.
  auto victim = engine.open(figure1_plan(25.0e3), faulty,
                            BackpressurePolicy::kDropOldest);
  engine.start();
  ASSERT_TRUE(
      wait_until([&] { return victim->health() == SessionHealth::kQuarantined; }));
  auto chunks = drain_all(engine, {keeper});
  engine.stop();  // joins the worker once the stalled call returns

  EXPECT_EQ(victim->last_fault().cause, FaultCause::kStall);
  EXPECT_NE(victim->last_fault().what.find("watchdog"), std::string::npos);
  EXPECT_GE(injector.counters().stalls_fired, 1u);
  expect_equal(flatten(chunks[0]), one_shot(backends::kNative, figure1_plan(), feed),
               "keeper beside stalled victim");
  const std::string json = engine.stats_json();
  EXPECT_NE(json.find("\"stall_quarantines\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"health\": \"quarantined\""), std::string::npos);
}

TEST_F(FaultInjectionTest, ManualRestartRevivesAQuarantinedSession) {
  // kQuarantine policy parks the session on its first fault; an operator
  // restart() must bring it back to streaming on the live feed.
  const auto cfg = reference_config();
  FaultInjector injector(fault_seed());
  FaultSpec spec;
  spec.kind = FaultKind::kThrow;
  spec.site = FaultSite::kProcess;
  spec.first = 1;
  const std::string faulty = injector.register_faulty_backend(backends::kNative, spec);

  EngineOptions opts;
  opts.block_samples = 2048;
  opts.watchdog_interval_us = 500;
  opts.default_restart.policy = RestartPolicy::kQuarantine;
  StreamEngine engine(
      std::make_unique<ToneSource>(10.0025e6, cfg.input_rate_hz, 12, 0.7, 0), opts);
  auto session = engine.open(figure1_plan(), faulty);
  engine.start();
  ASSERT_TRUE(
      wait_until([&] { return session->health() == SessionHealth::kQuarantined; }));
  EXPECT_EQ(session->last_fault().cause, FaultCause::kBackendProcess);
  EXPECT_EQ(session->stats().faults, 1u);
  // Queued pre-fault output stays pollable while quarantined.
  EXPECT_FALSE(session->poll().empty());

  ASSERT_TRUE(session->restart());
  ASSERT_TRUE(wait_until([&] { return session->health() == SessionHealth::kHealthy; }));
  const auto resumed_at = session->stats().blocks_processed;
  ASSERT_TRUE(wait_until(
      [&] { return session->stats().blocks_processed >= resumed_at + 3; }));
  EXPECT_EQ(session->stats().restarts, 1u);
  engine.stop();
  // restart() of a closed or healthy session is refused.
  EXPECT_FALSE(session->restart());
}

// ------------------------------------------------- corrupt-block injection

TEST_F(FaultInjectionTest, CorruptBlocksAreDeterministicPerSeed) {
  // Corruption does not fault anything (garbage in-range is still a valid
  // stream); what matters is reproducibility -- the same seed must corrupt
  // the same samples to the same values, run after run.
  const auto feed = make_feed(2048 * 6);
  const auto run = [&](std::uint64_t seed) {
    FaultInjector injector(seed);
    FaultSpec spec;
    spec.kind = FaultKind::kCorrupt;
    spec.site = FaultSite::kProcess;
    spec.first = 1;
    spec.period = 2;
    const std::string faulty =
        injector.register_faulty_backend(backends::kNative, spec);
    EngineOptions opts;
    opts.block_samples = 2048;
    StreamEngine engine(std::make_unique<VectorSource>(feed), opts);
    auto session = engine.open(figure1_plan(), faulty);
    engine.start();
    auto chunks = drain_all(engine, {session});
    engine.stop();
    EXPECT_EQ(session->health(), SessionHealth::kHealthy);
    EXPECT_EQ(session->stats().faults, 0u);
    EXPECT_GE(injector.counters().corruptions_fired, 1u);
    return flatten(chunks[0]);
  };
  const auto a = run(fault_seed());
  const auto b = run(fault_seed());
  const auto c = run(fault_seed() + 1);
  expect_equal(a, b, "same-seed corruption replays bit-for-bit");
  EXPECT_NE(a, c) << "a different seed must corrupt differently";
  EXPECT_NE(a, one_shot(backends::kNative, figure1_plan(), feed))
      << "corruption must actually corrupt";
}

// --------------------------------------------------- source semantics

TEST_F(FaultInjectionTest, ShortSourceReadsStreamBitExactWithNoGaps) {
  // Short reads are NORMAL: halving every read changes the block sizes the
  // sessions see, never the stream content, and EOF at the end is clean.
  const auto feed = make_feed(2048 * 6);
  FaultInjector injector(fault_seed());
  FaultSpec spec;
  spec.kind = FaultKind::kShortOutput;
  spec.first = 0;
  spec.period = 1;
  EngineOptions opts;
  opts.block_samples = 2048;
  StreamEngine engine(
      injector.wrap_source(std::make_unique<VectorSource>(feed), spec), opts);
  auto session = engine.open(figure1_plan(), backends::kNative);
  engine.start();
  auto chunks = drain_all(engine, {session});
  engine.stop();

  EXPECT_TRUE(engine.feed_exhausted());
  EXPECT_EQ(engine.source_fault().cause, FaultCause::kNone);
  const auto stats = session->stats();
  EXPECT_EQ(session->health(), SessionHealth::kHealthy);
  EXPECT_EQ(stats.samples_processed, feed.size());
  EXPECT_GT(stats.blocks_processed, 6u);  // halved reads -> more, smaller blocks
  EXPECT_EQ(stats.gaps, 0u);
  expect_equal(flatten(chunks[0]), one_shot(backends::kNative, figure1_plan(), feed),
               "short-read stream");
}

TEST_F(FaultInjectionTest, InjectedEofEndsEverySessionCleanly) {
  const auto feed = make_feed(2048 * 8);
  FaultInjector injector(fault_seed());
  FaultSpec spec;
  spec.kind = FaultKind::kEof;
  spec.first = 2;  // reads 0 and 1 serve; read 2 reports end of stream
  EngineOptions opts;
  opts.block_samples = 2048;
  StreamEngine engine(
      injector.wrap_source(std::make_unique<VectorSource>(feed), spec), opts);
  auto session = engine.open(figure1_plan(), backends::kNative);
  engine.start();
  auto chunks = drain_all(engine, {session});
  engine.stop();

  EXPECT_TRUE(engine.feed_exhausted());
  EXPECT_EQ(engine.source_fault().cause, FaultCause::kNone);  // EOF is not an error
  EXPECT_EQ(session->health(), SessionHealth::kHealthy);
  EXPECT_EQ(session->stats().gaps, 0u);
  EXPECT_EQ(injector.counters().eofs_fired, 1u);
  expect_equal(
      flatten(chunks[0]),
      one_shot(backends::kNative, figure1_plan(),
               std::vector<std::int64_t>(feed.begin(), feed.begin() + 2 * 2048)),
      "pre-EOF stream");
}

TEST_F(FaultInjectionTest, SourceThrowBecomesAnEngineFaultNotASessionOne) {
  // A throwing source ends the FEED (typed at the engine), not the
  // sessions: everything already pumped drains bit-exact and healthy.
  const auto feed = make_feed(2048 * 8);
  FaultInjector injector(fault_seed());
  FaultSpec spec;
  spec.kind = FaultKind::kThrow;
  spec.first = 2;
  EngineOptions opts;
  opts.workers = 2;
  opts.block_samples = 2048;
  StreamEngine engine(
      injector.wrap_source(std::make_unique<VectorSource>(feed), spec), opts);
  auto a = engine.open(figure1_plan(), backends::kNative);
  auto b = engine.open(figure1_plan(25.0e3), backends::kFixedDdc);
  engine.start();
  auto chunks = drain_all(engine, {a, b});
  engine.stop();

  EXPECT_TRUE(engine.feed_exhausted());  // the feed ended, fault or not
  const FaultInfo fault = engine.source_fault();
  EXPECT_EQ(fault.cause, FaultCause::kSource);
  EXPECT_EQ(fault.block_index, 2u);
  EXPECT_NE(fault.what.find("injected fault"), std::string::npos);
  const auto prefix = std::vector<std::int64_t>(feed.begin(), feed.begin() + 2 * 2048);
  for (const auto* s : {&a, &b}) {
    EXPECT_EQ((*s)->health(), SessionHealth::kHealthy);
    EXPECT_EQ((*s)->stats().faults, 0u);
    EXPECT_EQ((*s)->stats().gaps, 0u);
  }
  expect_equal(flatten(chunks[0]), one_shot(backends::kNative, figure1_plan(), prefix),
               "session a after source fault");
  expect_equal(flatten(chunks[1]),
               one_shot(backends::kFixedDdc, figure1_plan(25.0e3), prefix),
               "session b after source fault");
  const std::string json = engine.stats_json();
  EXPECT_NE(json.find("\"source_faults\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"source_fault_cause\": \"source\""), std::string::npos);
}

// ------------------------------------------------------ overload shedding

TEST_F(FaultInjectionTest, PumpStallShedFreesTheFeedAndMarksTheStream) {
  // A dead client (paused kBlock session) holds the shared pump hostage;
  // with shedding enabled the watchdog discards ITS backlog -- the feed
  // flows on, the healthy session never gaps, and the victim's loss is an
  // in-stream kShed marker plus counters, not silence.
  const auto feed = make_feed(2048 * 32);
  EngineOptions opts;
  opts.workers = 2;
  opts.block_samples = 2048;
  opts.session_queue_blocks = 4;
  opts.watchdog_interval_us = 500;
  opts.shed_enabled = true;
  opts.shed_pump_stall_ms = 5;
  opts.shed_queue_fraction = 1.0;  // occupancy trigger off: pump-stall only
  // The feed is paced by the keeper, so only the victim can park the pump:
  // a keeper worker descheduled for more than 5 ms on a loaded host would
  // otherwise park it too, and be shed by the same (correct) trigger.
  auto source = std::make_unique<PacedSource>(feed);
  PacedSource& paced = *source;
  StreamEngine engine(std::move(source), opts);
  auto keeper = engine.open(figure1_plan(), backends::kNative);
  auto victim = engine.open(figure1_plan(25.0e3), backends::kNative);
  paced.pace = keeper;
  victim->set_paused(true);
  engine.start();
  ASSERT_TRUE(wait_until([&] { return victim->stats().shed_events >= 1; }));
  victim->set_paused(false);
  auto chunks = drain_all(engine, {keeper, victim});
  engine.stop();

  // The healthy session is untouched -- full stream, no gaps, no sheds.
  const auto keeper_stats = keeper->stats();
  EXPECT_EQ(keeper_stats.shed_events, 0u);
  EXPECT_EQ(keeper_stats.gaps, 0u);
  expect_equal(flatten(chunks[0]), one_shot(backends::kNative, figure1_plan(), feed),
               "keeper beside shed victim");
  EXPECT_TRUE(engine.feed_exhausted());  // shedding kept the feed moving

  const auto victim_stats = victim->stats();
  EXPECT_GE(victim_stats.shed_events, 1u);
  EXPECT_GT(victim_stats.shed_samples, 0u);
  // Conservation: every enqueued sample was either processed or shed.
  EXPECT_EQ(victim_stats.samples_enqueued,
            victim_stats.samples_processed + victim_stats.shed_samples);
  std::size_t shed_gaps = 0;
  std::uint64_t marked_loss = 0;
  for (const auto& chunk : chunks[1]) {
    if (chunk.gap_before == GapCause::kShed) {
      ++shed_gaps;
      marked_loss += chunk.dropped_feed_samples;
    }
  }
  EXPECT_GE(shed_gaps, 1u);
  EXPECT_EQ(marked_loss, victim_stats.shed_samples);  // losses surface in-band
  EXPECT_GE(engine.shed_events(), 1u);
  EXPECT_GT(engine.shed_blocks(), 0u);
  const std::string json = engine.stats_json();
  EXPECT_NE(json.find("\"shed_events\""), std::string::npos);
}

TEST_F(FaultInjectionTest, ShedOffLeavesThePumpParkedBehindADeadClient) {
  // The other half of the overload contract: with shedding off, kBlock
  // means stall-everyone.  A dead client (paused kBlock session) fills its
  // ring and parks the pump; the watchdog keeps ticking but sheds nothing,
  // so the keeper gets no further than the block the pump parked on and
  // the feed stays unfinished.  Nothing is lost: once the client resumes,
  // both streams are complete and bit-exact.
  const auto feed = make_feed(2048 * 32);
  EngineOptions opts;
  opts.workers = 2;
  opts.block_samples = 2048;
  opts.session_queue_blocks = 4;
  opts.watchdog_interval_us = 500;
  opts.shed_enabled = false;
  opts.shed_pump_stall_ms = 5;  // what would fire if shedding were on
  StreamEngine engine(std::make_unique<VectorSource>(feed), opts);
  auto keeper = engine.open(figure1_plan(), backends::kNative);
  auto victim = engine.open(figure1_plan(25.0e3), backends::kNative);
  victim->set_paused(true);
  engine.start();
  ASSERT_TRUE(spin_until([&] {
    return victim->stats().blocks_enqueued >= opts.session_queue_blocks;
  }));
  // The pump parks on the victim's full ring at its next block.  Ticks are
  // at least watchdog_interval_us apart, so 20 more span twice the
  // pump-stall limit.
  const std::uint64_t ticks = watchdog_ticks(engine);
  ASSERT_TRUE(spin_until([&] { return watchdog_ticks(engine) >= ticks + 20; }));

  EXPECT_EQ(engine.shed_events(), 0u);
  EXPECT_EQ(victim->stats().blocks_enqueued, opts.session_queue_blocks);
  EXPECT_LE(keeper->stats().blocks_enqueued, opts.session_queue_blocks + 1);
  EXPECT_LE(engine.blocks_pumped(), opts.session_queue_blocks);
  EXPECT_FALSE(engine.feed_exhausted());

  victim->set_paused(false);
  auto chunks = drain_all(engine, {keeper, victim});
  engine.stop();

  EXPECT_EQ(engine.shed_events(), 0u);
  EXPECT_TRUE(engine.feed_exhausted());
  EXPECT_EQ(keeper->stats().gaps, 0u);
  EXPECT_EQ(victim->stats().gaps, 0u);
  expect_equal(flatten(chunks[0]), one_shot(backends::kNative, figure1_plan(), feed),
               "keeper behind a parked pump");
  expect_equal(flatten(chunks[1]),
               one_shot(backends::kNative, figure1_plan(25.0e3), feed),
               "resumed dead client");
}

TEST_F(FaultInjectionTest, OccupancyShedTakesTheLowestWeightSessionFirst) {
  // Trigger B: aggregate queue occupancy over the threshold sheds by
  // weight, lightest first -- the paying (heavy) session's backlog is the
  // last to go.  The victims are kDropOldest, and the pump-stall trigger
  // is off, so the occupancy trigger is what fires.  All three sessions
  // start paused: the pump then parks on the kBlock keeper's full ring,
  // so the feed cannot end before the first watchdog tick (shedding never
  // happens after feed end).  The keeper holds a full backlog throughout
  // and must still never be shed.
  const auto feed = make_feed(2048 * 40);
  EngineOptions opts;
  opts.workers = 2;
  opts.block_samples = 2048;
  opts.session_queue_blocks = 8;
  opts.watchdog_interval_us = 500;
  opts.shed_enabled = true;
  opts.shed_pump_stall_ms = 1000000;  // pump-stall trigger effectively off
  opts.shed_queue_fraction = 0.5;
  StreamEngine engine(std::make_unique<VectorSource>(feed), opts);
  auto keeper = engine.open(figure1_plan(), backends::kNative);
  keeper->set_weight(8);
  auto heavy = engine.open(figure1_plan(25.0e3), backends::kNative,
                           BackpressurePolicy::kDropOldest);
  heavy->set_weight(4);
  auto light = engine.open(figure1_plan(40.0e3), backends::kNative,
                           BackpressurePolicy::kDropOldest);
  light->set_weight(1);
  keeper->set_paused(true);
  heavy->set_paused(true);
  light->set_paused(true);
  engine.start();
  ASSERT_TRUE(wait_until([&] { return light->stats().shed_events >= 1; }));
  keeper->set_paused(false);
  heavy->set_paused(false);
  light->set_paused(false);
  auto chunks = drain_all(engine, {keeper, heavy, light});
  engine.stop();

  EXPECT_GE(light->stats().shed_events, 1u);
  EXPECT_GE(light->stats().shed_events, heavy->stats().shed_events)
      << "the lighter session must be shed at least as often";
  EXPECT_EQ(keeper->stats().shed_events, 0u);
  EXPECT_EQ(keeper->stats().gaps, 0u);
  expect_equal(flatten(chunks[0]), one_shot(backends::kNative, figure1_plan(), feed),
               "heavy keeper under occupancy shedding");
}

// ------------------------------------------------------- fault tracing

TEST_F(FaultInjectionTest, EveryScheduledFaultAppearsInTheTraceWithItsCause) {
  // The observability contract on the supervision path: each fault the
  // injector fires surfaces as a "fault" trace event carrying the victim's
  // session id (arg0) and the stable error_code of its cause (arg1), and
  // the recovery shows up as matching "restart" / "quarantine" events.
  struct TraceGuard {
    TraceGuard() {
      trace::reset();
      trace::set_enabled(trace::bit(trace::Category::kStream));
    }
    ~TraceGuard() {
      trace::set_enabled(0);
      trace::reset();
    }
  } guard;

  // Scenario 1: two injected process throws, both recovered by backoff
  // restarts.
  const auto feed = make_feed(2048 * 12);
  FaultInjector injector(fault_seed());
  FaultSpec spec;
  spec.kind = FaultKind::kThrow;
  spec.site = FaultSite::kProcess;
  spec.first = 3;
  spec.period = 3;
  spec.max_fires = 2;
  const std::string faulty = injector.register_faulty_backend(backends::kNative, spec);

  EngineOptions opts;
  opts.workers = 2;
  opts.block_samples = 2048;
  opts.watchdog_interval_us = 500;
  opts.default_restart.policy = RestartPolicy::kRestartWithBackoff;
  opts.default_restart.initial_backoff = std::chrono::milliseconds(1);
  StreamEngine engine(std::make_unique<VectorSource>(feed), opts);
  auto keeper = engine.open(figure1_plan(), backends::kNative);
  auto victim = engine.open(figure1_plan(25.0e3), faulty);
  engine.start();
  (void)drain_all(engine, {keeper, victim});
  engine.stop();
  ASSERT_EQ(injector.counters().throws_fired, 2u);

  // Scenario 2: a stuck backend quarantined by the watchdog (kStall).
  FaultInjector stall_injector(fault_seed());
  FaultSpec stall_spec;
  stall_spec.kind = FaultKind::kStall;
  stall_spec.site = FaultSite::kProcess;
  stall_spec.first = 0;
  stall_spec.period = 1;
  stall_spec.stall = std::chrono::milliseconds(300);
  const std::string stuck =
      stall_injector.register_faulty_backend(backends::kNative, stall_spec);
  EngineOptions stall_opts;
  stall_opts.workers = 2;
  stall_opts.block_samples = 2048;
  stall_opts.watchdog_interval_us = 500;
  stall_opts.stall_timeout_ms = 50;
  StreamEngine stall_engine(std::make_unique<VectorSource>(make_feed(2048 * 8)),
                            stall_opts);
  auto stalled = stall_engine.open(figure1_plan(), stuck,
                                   BackpressurePolicy::kDropOldest);
  stall_engine.start();
  ASSERT_TRUE(
      wait_until([&] { return stalled->health() == SessionHealth::kQuarantined; }));
  stall_engine.stop();

  const trace::Snapshot snap = trace::snapshot();
  const auto name_id = [&snap](const std::string& name) {
    for (std::size_t i = 0; i < snap.names.size(); ++i)
      if (snap.names[i] == name) return static_cast<int>(i);
    return -1;
  };
  const int fault_name = name_id("fault");
  const int restart_name = name_id("restart");
  const int quarantine_name = name_id("quarantine");
  ASSERT_GE(fault_name, 0);
  ASSERT_GE(restart_name, 0);
  ASSERT_GE(quarantine_name, 0);

  std::size_t victim_faults = 0;
  std::size_t victim_restarts = 0;
  std::size_t stalled_faults = 0;
  std::size_t stalled_quarantines = 0;
  for (const trace::TraceEvent& e : snap.events) {
    if (e.name == static_cast<std::uint16_t>(fault_name)) {
      if (e.arg0 == victim->id()) {
        ++victim_faults;
        EXPECT_EQ(e.arg1,
                  static_cast<std::uint64_t>(error_code(FaultCause::kBackendProcess)));
      } else if (e.arg0 == stalled->id()) {
        ++stalled_faults;
        EXPECT_EQ(e.arg1, static_cast<std::uint64_t>(error_code(FaultCause::kStall)));
      } else {
        ADD_FAILURE() << "fault event for unexpected session " << e.arg0;
      }
    } else if (e.name == static_cast<std::uint16_t>(restart_name)) {
      EXPECT_EQ(e.arg0, victim->id());
      ++victim_restarts;
    } else if (e.name == static_cast<std::uint16_t>(quarantine_name)) {
      EXPECT_EQ(e.arg0, stalled->id());
      EXPECT_EQ(e.arg1, static_cast<std::uint64_t>(error_code(FaultCause::kStall)));
      ++stalled_quarantines;
    }
  }
  // Every scheduled fault traced, nothing invented: the injector fired 2
  // process throws at the victim, and the watchdog quarantined the stuck
  // session exactly once.
  EXPECT_EQ(victim_faults, 2u);
  EXPECT_EQ(victim_restarts, 2u);
  EXPECT_EQ(stalled_faults, 1u);
  EXPECT_EQ(stalled_quarantines, 1u);
  // The engine's own lifecycle is on the same timeline.
  EXPECT_GE(name_id("engine_start"), 0);
  EXPECT_GE(name_id("service"), 0);
}

// ----------------------------------------------------------- lane cohorts

/// Queues the whole `blocks`-block feed on every session while paused, then
/// restarts the engine unpaused: a cohort's first pass leader finds its
/// siblings idle with input, so the stream runs as lane groups from block 0.
void start_with_queued_feed(StreamEngine& engine,
                            const std::vector<std::shared_ptr<Session>>& sessions,
                            std::size_t blocks) {
  for (const auto& s : sessions) s->set_paused(true);
  engine.start();
  ASSERT_TRUE(wait_until([&] {
    return engine.feed_exhausted() &&
           std::all_of(sessions.begin(), sessions.end(), [&](const auto& s) {
             return s->queued_input_blocks() == blocks;
           });
  }));
  engine.stop();
  for (const auto& s : sessions) s->set_paused(false);
  engine.start();
}

TEST_F(FaultInjectionTest, DecoratedSessionsAreNeverBatched) {
  // A decorator (here a faulty twin whose schedule never fires) hides the
  // inner backend's executor, so its sessions are served alone even beside
  // native sessions of the same plans that run as one lane group.
  constexpr std::size_t kBlock = 2048;
  constexpr std::size_t kBlocks = 8;
  const auto feed = make_feed(kBlock * kBlocks);
  FaultInjector injector(fault_seed());
  FaultSpec never;
  never.first = ~std::uint64_t{0};
  const std::string decorated = injector.register_faulty_backend(backends::kNative, never);

  EngineOptions opts;
  opts.workers = 1;  // the first native pass leader claims its whole cohort
  opts.block_samples = kBlock;
  opts.session_queue_blocks = kBlocks;
  StreamEngine engine(std::make_unique<VectorSource>(feed), opts);
  std::vector<std::shared_ptr<Session>> sessions;
  std::vector<ChainPlan> plans;
  for (int k = 0; k < 16; ++k) {
    plans.push_back(figure1_plan(4.0e3 * (k / 2)));
    sessions.push_back(engine.open(plans.back(), k % 2 == 0 ? backends::kNative : decorated));
  }
  start_with_queued_feed(engine, sessions, kBlocks);
  auto chunks = drain_all(engine, sessions);
  engine.stop();

  std::uint64_t native_lane_blocks = 0;
  for (std::size_t k = 0; k < sessions.size(); ++k) {
    expect_equal(flatten(chunks[k]), one_shot(backends::kNative, plans[k], feed),
                 "session " + std::to_string(k));
    if (k % 2 == 0)
      native_lane_blocks += sessions[k]->stats().lane_blocks;
    else
      EXPECT_EQ(sessions[k]->stats().lane_blocks, 0u) << "decorated session " << k;
  }
  EXPECT_GT(native_lane_blocks, 0u);
  EXPECT_EQ(native_lane_blocks, engine.lane_blocks());
}

TEST_F(FaultInjectionTest, LaneFaultFaultsEachLaneUnderItsOwnPolicy) {
  // Block 2 carries a sample outside the 12-bit front end.  It reaches an
  // 8-session cohort as one lane call: the call throws for every lane, and
  // each session takes its own fault under its own policy -- kFail
  // sessions close with their pre-fault prefix, kRestartWithBackoff
  // sessions re-lower and resume bit-exact at block 3.  A 14-bit session
  // (another structure) takes the block and never notices.
  constexpr std::size_t kBlock = 2048;
  constexpr std::size_t kBlocks = 8;
  constexpr std::uint64_t kBad = 2;
  auto feed = make_feed(kBlock * kBlocks);
  feed[kBad * kBlock + 100] = 3000;  // past 12 bits, inside 14

  EngineOptions opts;
  opts.workers = 1;  // the first pass leader claims the whole cohort
  opts.block_samples = kBlock;
  opts.session_queue_blocks = kBlocks;
  opts.watchdog_interval_us = 500;
  StreamEngine engine(std::make_unique<VectorSource>(feed), opts);
  RestartOptions backoff;
  backoff.policy = RestartPolicy::kRestartWithBackoff;
  backoff.initial_backoff = std::chrono::milliseconds(1);
  std::vector<std::shared_ptr<Session>> sessions;
  std::vector<ChainPlan> plans;
  for (int k = 0; k < 8; ++k) {
    plans.push_back(figure1_plan(6.0e3 * k));
    sessions.push_back(engine.open(plans.back(), backends::kNative));
    if (k % 2 == 1) sessions.back()->set_restart_policy(backoff);
  }
  auto wide = DatapathSpec::wide16();
  wide.input_bits = 14;
  plans.push_back(ChainPlan::figure1(reference_config(), wide));
  sessions.push_back(engine.open(plans.back(), backends::kNative));

  start_with_queued_feed(engine, sessions, kBlocks);
  auto chunks = drain_all(engine, sessions);
  engine.stop();

  const std::vector<std::int64_t> prefix(feed.begin(),
                                         feed.begin() + static_cast<std::ptrdiff_t>(kBad * kBlock));
  std::size_t lane_faults = 0;
  for (std::size_t k = 0; k < 8; ++k) {
    const std::string label = "session " + std::to_string(k);
    const auto stats = sessions[k]->stats();
    const FaultInfo fault = sessions[k]->last_fault();
    EXPECT_EQ(stats.faults, 1u) << label;
    EXPECT_EQ(fault.cause, FaultCause::kBackendProcess) << label;
    EXPECT_EQ(fault.block_index, kBad) << label;
    if (fault.what.find("process_lanes") != std::string::npos) ++lane_faults;
    if (k % 2 == 0) {
      EXPECT_EQ(sessions[k]->health(), SessionHealth::kFaulted) << label;
      EXPECT_TRUE(sessions[k]->closed()) << label;
      expect_equal(flatten(chunks[k]), replay(backends::kNative, plans[k], prefix, kBlock),
                   label + " pre-fault prefix");
      continue;
    }
    EXPECT_EQ(sessions[k]->health(), SessionHealth::kHealthy) << label;
    EXPECT_EQ(stats.restarts, 1u) << label;
    EXPECT_EQ(stats.blocks_processed, kBlocks - 1) << label;
    std::size_t fault_gaps = 0;
    for (const auto& chunk : chunks[k]) {
      if (chunk.gap_before != GapCause::kFault) continue;
      ++fault_gaps;
      EXPECT_EQ(chunk.block_seq, kBad + 1) << label;
      EXPECT_EQ(chunk.dropped_feed_samples, kBlock) << label;
    }
    EXPECT_EQ(fault_gaps, 1u) << label;
    expect_equal(flatten(chunks[k]), replay(backends::kNative, plans[k], feed, kBlock, {kBad}),
                 label + " restarted stream");
  }
  // One worker: the first pass leader found every sibling idle or queued
  // and claimed the whole cohort, so block 2 reached all eight in one call.
  EXPECT_EQ(lane_faults, 8u);

  const auto other = sessions[8]->stats();
  EXPECT_EQ(sessions[8]->health(), SessionHealth::kHealthy);
  EXPECT_EQ(other.faults, 0u);
  EXPECT_EQ(other.lane_blocks, 0u);  // alone in its cohort
  expect_equal(flatten(chunks[8]), one_shot(backends::kNative, plans[8], feed),
               "14-bit session beside the faulting cohort");
}

// ----------------------------------------------------- injector hygiene

TEST_F(FaultInjectionTest, InjectorRejectsNonsenseWirings) {
  FaultInjector injector(fault_seed());
  FaultSpec eof_spec;
  eof_spec.kind = FaultKind::kEof;
  EXPECT_THROW((void)injector.wrap(
                   core::BackendRegistry::instance().create(backends::kNative),
                   eof_spec),
               ConfigError);
  EXPECT_THROW((void)injector.register_faulty_backend(backends::kNative, eof_spec),
               ConfigError);
  FaultSpec read_spec;
  read_spec.site = FaultSite::kRead;
  EXPECT_THROW((void)injector.register_faulty_backend(backends::kNative, read_spec),
               ConfigError);
  FaultSpec ok;
  EXPECT_THROW((void)injector.register_faulty_backend("no-such-backend", ok),
               ConfigError);
  EXPECT_EQ(injector.seed(), fault_seed());
  // The registered twin keeps the open()-time contract: a plan the inner
  // backend cannot lower is still rejected at open, nothing half-opened.
  FaultSpec throw_later;
  throw_later.first = 1000;
  const std::string faulty =
      injector.register_faulty_backend(backends::kGc4016, throw_later);
  StreamEngine engine(std::make_unique<VectorSource>(make_feed(2688)));
  EXPECT_THROW((void)engine.open(figure1_plan(), faulty), core::LoweringError);
  EXPECT_EQ(engine.session_count(), 0u);
}

TEST_F(FaultInjectionTest, ToStringCoversTheFaultVocabulary) {
  EXPECT_STREQ(to_string(FaultSite::kProcess), "process");
  EXPECT_STREQ(to_string(FaultSite::kRead), "read");
  EXPECT_STREQ(to_string(FaultKind::kCorrupt), "corrupt");
  EXPECT_STREQ(to_string(FaultKind::kEof), "eof");
  EXPECT_STREQ(to_string(SessionHealth::kBackoff), "backoff");
  EXPECT_STREQ(to_string(SessionHealth::kQuarantined), "quarantined");
  EXPECT_STREQ(to_string(RestartPolicy::kRestartWithBackoff), "restart_with_backoff");
  EXPECT_STREQ(to_string(GapCause::kShed), "shed");
  EXPECT_STREQ(to_string(GapCause::kFault), "fault");
  EXPECT_STREQ(to_string(FaultCause::kStall), "stall");
  for (int code = 0; code <= 6; ++code)
    EXPECT_EQ(error_code(static_cast<FaultCause>(code)), code);
}

}  // namespace
}  // namespace twiddc::stream
