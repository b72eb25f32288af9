// twiddc::stream -- multi-engine sharding.
//
// One StreamEngine scales until its pump thread or its scheduler's shared
// counters become the bottleneck.  EngineGroup partitions the session
// population across N independent StreamEngine shards -- each with its own
// pump, scheduler, watchdog and (via SourceFactory) its own identical copy
// of the deterministic feed -- so aggregate throughput scales with shards
// instead of serializing on one engine's pump.  On a NUMA machine each
// shard is pinned to one node (workers, rings and feed all node-local).
//
// Routing is by caller-chosen key: shard_for(key) is a pure function of
// the key and the shard count (splitmix64 mix, then modulo), so a key maps
// to the same shard before and after any shard's stop()/start() cycle --
// restarts never reshuffle placement.
//
// Live migration: migrate(session, to_shard) moves an open session between
// shards mid-stream with no sample loss and bit-exact output.  The
// contract that makes this possible is the SAME one that makes sharding
// meaningful at all: every shard's Source produces the identical
// deterministic sample stream, so feed block seq N carries the same
// samples on every shard, and the destination can replay exactly the span
// the session has not seen (StreamEngine::eject/adopt do the handoff).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/stream/engine.hpp"

namespace twiddc::stream {

/// Produces a fresh Source.  Every call must yield an identical
/// deterministic stream -- one per shard, plus one per migration backfill.
using SourceFactory = std::function<std::unique_ptr<Source>()>;

struct EngineGroupOptions {
  /// Shard count.  <= 0 resolves to one shard per NUMA node (>= 1).
  int shards = 0;
  /// Per-shard engine options.  `workers` applies to EACH shard.  When
  /// the machine has multiple NUMA nodes and engine.preferred_node is -1,
  /// shard i is pinned to node (i mod node_count) automatically.
  EngineOptions engine;
};

class EngineGroup {
 public:
  explicit EngineGroup(SourceFactory factory, EngineGroupOptions options = {});
  ~EngineGroup();  // stop()s if running

  EngineGroup(const EngineGroup&) = delete;
  EngineGroup& operator=(const EngineGroup&) = delete;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] StreamEngine& shard(std::size_t i) { return *shards_.at(i); }
  [[nodiscard]] const StreamEngine& shard(std::size_t i) const {
    return *shards_.at(i);
  }

  /// Stable key -> shard routing (pure in key and shard count; survives
  /// shard restarts unchanged).
  [[nodiscard]] std::size_t shard_for(std::uint64_t key) const;

  /// Opens a session on shard_for(key)'s engine and records its placement.
  std::shared_ptr<Session> open(std::uint64_t key, const core::ChainPlan& plan,
                                const std::string& backend_name,
                                BackpressurePolicy policy = BackpressurePolicy::kBlock);

  /// Starts/stops every shard.  start() throws if any shard is already
  /// running (those started before the throw are stopped again).
  void start();
  void stop();

  /// Bounces one shard (stop + start).  Sessions keep their state; the
  /// shard's feed resumes at its current source position.
  void restart_shard(std::size_t i);

  /// Moves an open session to `to_shard` mid-stream: eject from its current
  /// shard, adopt on the target with a fresh factory source as backfill.
  /// Gap-free and bit-exact under the identical-sources contract.  No-op
  /// when the session is already there.
  void migrate(const std::shared_ptr<Session>& session, std::size_t to_shard);

  /// Batched migration: moves every session in `sessions` to `to_shard`
  /// under ONE hold of the migration serializer, so a rebalance of M
  /// sessions pays one lock acquisition instead of M and no foreign
  /// migration can interleave mid-batch.  Sessions already on the target
  /// are skipped.  Validation is all-or-nothing up front (null/unknown
  /// sessions or an out-of-range target throw before anything moves);
  /// per-session the move is the same eject/adopt handoff as migrate(), so
  /// the batch is gap-free and bit-exact with M sequential migrate() calls.
  void migrate_batch(const std::vector<std::shared_ptr<Session>>& sessions,
                     std::size_t to_shard);

  /// Current shard index of a session open()ed or migrate()d through this
  /// group.  Throws SimulationError for an unknown session.
  [[nodiscard]] std::size_t shard_of(const std::shared_ptr<Session>& session) const;

  /// finished() against the session's current shard.
  [[nodiscard]] bool finished(const std::shared_ptr<Session>& session) const;

  /// Sessions migrated through this group over its lifetime.
  [[nodiscard]] std::uint64_t migrations() const {
    std::lock_guard<std::mutex> lock(map_mu_);
    return migrations_;
  }

  /// {"group": {aggregates}, "shards": [per-shard stats_json...]}.
  [[nodiscard]] std::string stats_json() const;

 private:
  SourceFactory factory_;
  EngineGroupOptions options_;
  std::vector<std::unique_ptr<StreamEngine>> shards_;
  mutable std::mutex map_mu_;
  /// Session -> shard index.  Keyed by identity (session ids are per-engine
  /// counters, so two shards can mint the same id).
  std::unordered_map<const Session*, std::size_t> session_shard_;
  std::uint64_t migrations_ = 0;
};

/// Polls every session across the group's shards until all are finished.
/// The group-wide analogue of drain_all(StreamEngine&, ...).
std::vector<std::vector<StreamChunk>> drain_all(
    EngineGroup& group, const std::vector<std::shared_ptr<Session>>& sessions);

}  // namespace twiddc::stream
