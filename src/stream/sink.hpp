// twiddc::stream -- client-side sinks for polled session output.
//
// poll() hands the client raw StreamChunks; a Sink is the adapter that
// turns the polling loop into a destination (a demodulator, a file, a
// network socket -- or, here, memory for tests and examples).  Sinks are
// driven from the client's polling thread only.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/stream/engine.hpp"
#include "src/stream/session.hpp"

namespace twiddc::stream {

class Sink {
 public:
  virtual ~Sink() = default;

  /// One polled chunk of one session, in stream order per session.
  virtual void on_chunk(std::uint64_t session_id, StreamChunk&& chunk) = 0;
};

/// Keeps every chunk in memory, per session -- the in-process endpoint for
/// tests, benches and examples.
class CollectingSink final : public Sink {
 public:
  void on_chunk(std::uint64_t session_id, StreamChunk&& chunk) override {
    chunks_[session_id].push_back(std::move(chunk));
  }

  [[nodiscard]] const std::vector<StreamChunk>& chunks(std::uint64_t session_id) const {
    static const std::vector<StreamChunk> kEmpty;
    const auto it = chunks_.find(session_id);
    return it == chunks_.end() ? kEmpty : it->second;
  }

  /// Concatenated IQ payload of one session's stream.
  [[nodiscard]] std::vector<core::IqSample> samples(std::uint64_t session_id) const {
    return flatten(chunks(session_id));
  }

 private:
  std::map<std::uint64_t, std::vector<StreamChunk>> chunks_;
};

/// The standard client loop against a Sink (drain_each's liveness
/// contract), delivering chunks to the sink as they arrive rather than
/// buffering the whole stream.
inline void drain_to(StreamEngine& engine,
                     const std::vector<std::shared_ptr<Session>>& sessions,
                     Sink& sink) {
  drain_each(engine, sessions, [&](std::size_t i, StreamChunk&& chunk) {
    sink.on_chunk(sessions[i]->id(), std::move(chunk));
  });
}

}  // namespace twiddc::stream
