// perfbench -- the harness around the stream layer: feed sources that stamp
// (and optionally pace) every block, the timing backend decorator, the
// client-side tape of received chunks, and the bit-exact replay checker
// with its failure ledger.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/backend.hpp"
#include "src/core/pipeline.hpp"
#include "src/stream/session.hpp"
#include "src/stream/source.hpp"

namespace perfbench {

// ------------------------------------------------------------------ feed

/// When each feed block left the source (steady_clock ns), indexed by feed
/// block seq.  Fixed capacity: the pump writes entry `seq` before the block
/// is fanned out, and readers only look at seqs they received through the
/// engine's rings, whose release/acquire hand-off orders the accesses.
class FeedLog {
 public:
  explicit FeedLog(std::size_t max_blocks) : read_end_ns_(max_blocks, 0) {}
  [[nodiscard]] std::size_t capacity() const { return read_end_ns_.size(); }
  void stamp(std::uint64_t seq, std::int64_t t_ns) { read_end_ns_.at(seq) = t_ns; }
  [[nodiscard]] std::int64_t read_end_ns(std::uint64_t seq) const {
    return read_end_ns_.at(seq);
  }

 private:
  std::vector<std::int64_t> read_end_ns_;
};

/// Maps a feed block seq to the time its last sample leaves a converter
/// running at `rate_hz` from `epoch_ns` (when sample 0 was taken).  The seq
/// is feed-global, so a session opened mid-stream -- or reopened -- maps its
/// first chunk's block_seq to the same clock as everyone else.
struct DueClock {
  std::int64_t epoch_ns = 0;
  double rate_hz = 1.0;
  std::size_t block_samples = 1;
  [[nodiscard]] std::int64_t due_ns(std::uint64_t seq) const {
    const double samples = static_cast<double>(seq + 1) * static_cast<double>(block_samples);
    return epoch_ns + static_cast<std::int64_t>(samples / rate_hz * 1e9);
  }
};

/// Loops a prepared capture (whole blocks) and, when `rate_hz` > 0, releases
/// block `seq` no earlier than its due time -- the stand-in for the paper's
/// free-running 64.512 MS/s converter.  The clock starts at the first read.
/// Every read stamps the FeedLog; with pacing, read() sleeps to an absolute
/// deadline, so a late wake-up is charged to that block's lag and never
/// shifts later deadlines.  finish() makes the next read return end of
/// stream (how a run ends without stop() discarding queued input).
class FeedSource final : public twiddc::stream::Source {
 public:
  FeedSource(std::shared_ptr<const std::vector<std::int64_t>> capture, double rate_hz,
             std::size_t block_samples, std::shared_ptr<FeedLog> log);

  std::size_t read(std::span<std::int64_t> out) override;

  void finish() { finish_.store(true, std::memory_order_release); }
  /// Valid once the first read happened (the pump's first block).
  [[nodiscard]] DueClock clock() const {
    return {epoch_ns_.load(std::memory_order_acquire), rate_hz_, block_};
  }

 private:
  std::shared_ptr<const std::vector<std::int64_t>> capture_;
  double rate_hz_;
  std::size_t block_;
  std::shared_ptr<FeedLog> log_;
  std::uint64_t seq_ = 0;  // pump thread only
  std::atomic<std::int64_t> epoch_ns_{0};
  std::atomic<bool> finish_{false};
};

/// Feed block `seq` of a looped capture (the reference side of FeedSource).
std::span<const std::int64_t> feed_block(const std::vector<std::int64_t>& capture,
                                         std::size_t block_samples, std::uint64_t seq);

// ---------------------------------------------------------- timed backend

struct CallSpan {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  [[nodiscard]] double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

/// Per-backend-instance call record.  Appended only by the thread that
/// currently owns the session (the engine runs one service pass at a time),
/// read after the engine stopped.
struct BackendLog {
  std::vector<CallSpan> blocks;  ///< process_block calls, in call order
  std::vector<CallSpan> swaps;   ///< swap_plan calls
};

/// Decorator that times process_block and swap_plan and forwards every call
/// unchanged to the wrapped backend.
class TimingBackend final : public twiddc::core::ArchitectureBackend {
 public:
  TimingBackend(std::unique_ptr<twiddc::core::ArchitectureBackend> inner,
                std::shared_ptr<BackendLog> log);

  [[nodiscard]] const std::string& name() const override { return inner_->name(); }
  [[nodiscard]] twiddc::core::BackendCapabilities capabilities() const override {
    return inner_->capabilities();
  }
  [[nodiscard]] twiddc::core::DatapathSpec datapath() const override {
    return inner_->datapath();
  }
  [[nodiscard]] twiddc::core::ChainPlan plan_for(
      const twiddc::core::DdcConfig& config) const override {
    return inner_->plan_for(config);
  }
  void configure(const twiddc::core::ChainPlan& plan) override { inner_->configure(plan); }
  [[nodiscard]] bool is_configured() const override { return inner_->is_configured(); }
  [[nodiscard]] const twiddc::core::ChainPlan& plan() const override {
    return inner_->plan();
  }
  void process_block(std::span<const std::int64_t> in,
                     std::vector<twiddc::core::IqSample>& out) override;
  void reset() override { inner_->reset(); }
  [[nodiscard]] double output_scale() const override { return inner_->output_scale(); }
  void swap_plan(const twiddc::core::ChainPlan& plan,
                 twiddc::core::SwapMode mode) override;
  [[nodiscard]] twiddc::core::BackendPowerProfile power_profile() const override {
    return inner_->power_profile();
  }

 private:
  std::unique_ptr<twiddc::core::ArchitectureBackend> inner_;
  std::shared_ptr<BackendLog> log_;
};

/// The registered timed twin of native-pipeline.  The engine creates the
/// backend inside open(); the client (one thread) claims that instance's
/// log right after open() returns with take_last().
class TimedNative {
 public:
  static constexpr const char* kName = "perfbench-timed-native";
  /// Registers the decorator once (needs backends::register_builtin first).
  static TimedNative& install();
  [[nodiscard]] std::shared_ptr<BackendLog> take_last();

 private:
  TimedNative() = default;
  std::mutex mu_;
  std::shared_ptr<BackendLog> last_;  // guarded by mu_
};

// ------------------------------------------------------------ client tape

/// Everything one session incarnation delivered to the client, in poll
/// order, plus when each chunk came out of poll().
struct SessionTape {
  std::vector<std::uint64_t> seq;
  std::vector<twiddc::stream::GapCause> gap;
  std::vector<std::size_t> offset{0};  ///< chunk k's iq is [offset[k], offset[k+1])
  std::vector<twiddc::core::IqSample> iq;
  std::vector<std::int64_t> poll_ns;

  void add(const twiddc::stream::StreamChunk& chunk, std::int64_t t_ns);
  [[nodiscard]] std::size_t chunks() const { return seq.size(); }
  [[nodiscard]] std::span<const twiddc::core::IqSample> chunk_iq(std::size_t k) const {
    return {iq.data() + offset[k], offset[k + 1] - offset[k]};
  }
};

// ------------------------------------------------------- replay checking

/// A retune the client issued, placed where the engine applied it: before
/// the session's `at_block`-th processed block (SessionStats::
/// last_retune_block read right after retune() returned).
struct AppliedRetune {
  std::uint64_t at_block = 0;
  twiddc::core::ChainPlan plan;
  twiddc::core::SwapMode mode = twiddc::core::SwapMode::kFlush;
};

/// One session incarnation (an open(); a reopen is a new incarnation): the
/// script that must reproduce it and the tape it actually produced.
struct Incarnation {
  twiddc::core::ChainPlan plan;
  std::vector<AppliedRetune> retunes;
  std::uint64_t first_seq = 0;  ///< first feed block the session must see
  std::uint64_t end_seq = 0;    ///< one past the last block it must see
  SessionTape tape;
};

/// Session-blocks attempted, not delivered, and delivered but wrong.
/// fail_share = (lost + mismatched) / attempted.  Designed kFlush gaps are
/// not failures; any other gap marker, a missing block or a payload that
/// differs from the staged DdcPipeline replay is.
struct FailLedger {
  std::uint64_t attempted = 0;
  std::uint64_t lost = 0;
  std::uint64_t mismatched = 0;
  [[nodiscard]] std::uint64_t failed() const { return lost + mismatched; }
  [[nodiscard]] double fail_share() const {
    return attempted ? static_cast<double>(failed()) / static_cast<double>(attempted) : 0.0;
  }
  void merge(const FailLedger& o) {
    attempted += o.attempted;
    lost += o.lost;
    mismatched += o.mismatched;
  }
};

/// Replays every incarnation through a staged DdcPipeline over the same
/// feed blocks (retunes applied at their recorded block) and tallies the
/// ledger.  Incarnations with identical scripts share one replay.  Runs on
/// up to `threads` threads; call it outside any timed window.
FailLedger check_incarnations(const std::vector<Incarnation>& incarnations,
                              const std::vector<std::int64_t>& capture,
                              std::size_t block_samples, int threads);

/// Benchmark-side spans, held in memory and written once at exit as a Chrome
/// trace (complete events, microseconds).  Spans of one session-block share
/// the id (session, seq): thread row = session, args carry the seq.  Keeps
/// the first `cap` spans; the file records how many were dropped.
class SpanLog {
 public:
  explicit SpanLog(std::size_t cap) : cap_(cap) {}
  void add(const char* name, std::uint64_t session, std::uint64_t seq,
           std::int64_t start_ns, std::int64_t end_ns);
  /// Writes the trace; false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t session, seq;
    std::int64_t start_ns, end_ns;
  };
  std::size_t cap_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

/// Reads the first numeric value of `"key":` in a stats_json string
/// (0 when absent).
double json_number(const std::string& json, const std::string& key);

}  // namespace perfbench
