// Reliable delivery on top of the lossy simulated fabric.
//
// The fabric (SimNetwork) may drop, duplicate, delay, or partition traffic.
// For paths where a lost message means lost data or a wedged protocol —
// ingest batches, delta streams, resync transfers, query fragments — nodes
// wrap their traffic in a ReliableChannel:
//
//  * every application message is framed as a DATA frame carrying a
//    per-destination sequence number and the inner message type;
//  * the receiver acks every DATA frame (acks are best-effort; a lost ack
//    just causes a retransmission) and suppresses duplicates by sequence
//    number, so delivery to the application is exactly-once per surviving
//    receiver state;
//  * the sender retransmits unacked frames on a timer with exponential
//    backoff plus jitter, up to `max_attempts`, then gives up and counts
//    `retransmit_exhausted` (a destination that is partitioned away or down
//    for longer than the whole backoff ladder is abandoned; higher layers —
//    replication and resync — own recovery at that point).
//
// The channel is symmetric: one instance per node handles both its outgoing
// streams (sender state per destination) and incoming streams (dedup state
// per source). All state is in-memory; `reset()` models a crash. A restarted
// node restarts sequence numbers from 1 under a fresh *epoch* (incarnation
// number) carried in every frame, so a peer that still holds the previous
// incarnation's dedup watermark does not suppress the new stream: an epoch
// change resets the receive stream, and acks echo the epoch so a stale ack
// can never retire a frame of the new incarnation. A delayed frame from a
// dead incarnation can still slip through as a duplicate delivery in a
// narrow race; application payloads on reliable paths are idempotent
// (detection-id dedup at ingest, merge dedup for query fragments), which
// closes that gap.
//
// Timer tokens: the channel owns the token range [token_base, token_base +
// 2^32); owning nodes route tokens via `owns_timer` before interpreting
// tokens themselves.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/time.h"
#include "net/message.h"
#include "net/sim_network.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "obs/tracer.h"

namespace stcn {

struct ReliableChannelConfig {
  /// First retransmission fires this long after the original send.
  Duration initial_rto = Duration::millis(10);
  /// Backoff ceiling.
  Duration max_rto = Duration::seconds(1);
  /// Each retransmission multiplies the RTO by this factor.
  double backoff_multiplier = 2.0;
  /// Uniform jitter applied to every RTO: rto * (1 ± jitter_fraction).
  double jitter_fraction = 0.2;
  /// Total transmission attempts (first send + retransmissions) before the
  /// frame is abandoned. The default ladder (10ms * 2^k, capped at 1s)
  /// spans roughly 15 virtual seconds — enough to ride out any transient
  /// partition the tests model.
  int max_attempts = 20;
  /// Wire message types used for channel frames. Kept configurable so the
  /// net layer does not depend on the application protocol enum; the core
  /// layer asserts these match its MsgType values.
  std::uint32_t data_type = 12;
  std::uint32_t ack_type = 13;
  /// Timer tokens are allocated from this base upward.
  std::uint64_t timer_token_base = 1ULL << 62;
};

class ReliableChannel {
 public:
  /// `metrics` must outlive the channel; retransmit/dedup accounting is
  /// registered there (the owning node's registry).
  ReliableChannel(NodeId self, MetricsRegistry& metrics,
                  ReliableChannelConfig config = {})
      : self_(self),
        config_(config),
        frames_sent_(metrics.counter(
            "reliable_frames_sent",
            "DATA frames sent over the reliable channel")),
        retransmits_(metrics.counter(
            "retransmits", "DATA frames re-sent after an ack timeout")),
        retransmit_exhausted_(metrics.counter(
            "retransmit_exhausted",
            "Frames abandoned after exhausting the retransmit ladder")),
        dup_suppressed_(metrics.counter(
            "dup_suppressed", "Duplicate DATA frames dropped by the receiver")),
        frames_acked_(metrics.counter(
            "reliable_frames_acked", "DATA frames acknowledged end to end")),
        frames_malformed_(metrics.counter(
            "reliable_frames_malformed", "Frames that failed header decoding")),
        unacked_gauge_(metrics.gauge(
            "unacked_frames",
            "DATA frames in flight awaiting acknowledgement")),
        rng_(0x5eedC4A77E1ULL ^ self.value()) {
    epoch_ = rng_.next_u64();
  }

  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  /// Attaches a tracer (may be null). Retransmissions of traced frames are
  /// recorded as instant `net.retransmit` spans under the frame's context.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Sends `payload` (an already-encoded application message of
  /// `inner_type`) reliably to `to`. A valid `ctx` rides in every DATA
  /// frame (including retransmissions) and is restored on the delivered
  /// inner message at the receiver.
  void send(NodeId to, std::uint32_t inner_type,
            std::vector<std::uint8_t> payload, SimNetwork& network,
            TraceContext ctx = {});

  /// True when `token` belongs to this channel's timer range.
  [[nodiscard]] bool owns_timer(std::uint64_t token) const {
    return token >= config_.timer_token_base &&
           token < config_.timer_token_base + (1ULL << 32);
  }

  /// Handles a retransmission timer previously armed by this channel.
  void handle_timer(std::uint64_t token, SimNetwork& network);

  /// Handles an incoming DATA frame: acks it and, if it is not a duplicate,
  /// returns the inner application message for dispatch.
  std::optional<Message> on_data(const Message& frame, SimNetwork& network);

  /// Handles an incoming ACK frame.
  void on_ack(const Message& frame);

  /// Crash semantics: all sender and receiver state is lost.
  void reset();

  /// Frames sent but not yet acked (0 == quiescent).
  [[nodiscard]] std::size_t unacked() const { return pending_.size(); }

 private:
  struct Pending {
    NodeId to;
    std::uint64_t seq = 0;
    std::uint32_t inner_type = 0;
    std::vector<std::uint8_t> payload;
    Duration rto;
    int attempts = 0;
    TraceContext trace;
  };

  /// Per-source receive stream: contiguous watermark + out-of-order set,
  /// scoped to the sender's current epoch.
  struct RecvStream {
    std::uint64_t epoch = 0;
    std::uint64_t contiguous = 0;  // all seqs <= this have been delivered
    std::unordered_set<std::uint64_t> ahead;
  };

  [[nodiscard]] Duration jittered(Duration rto) {
    double f = 1.0 + rng_.uniform(-config_.jitter_fraction,
                                  config_.jitter_fraction);
    auto us = static_cast<std::int64_t>(
        static_cast<double>(rto.count_micros()) * f);
    return Duration::micros(us < 1 ? 1 : us);
  }

  void transmit(const Pending& frame, SimNetwork& network);

  /// Publishes the send-queue depth (health monitor queue-buildup signal).
  void update_unacked_gauge() {
    unacked_gauge_.set(static_cast<double>(pending_.size()));
  }

  NodeId self_;
  ReliableChannelConfig config_;
  Tracer* tracer_ = nullptr;
  Counter& frames_sent_;
  Counter& retransmits_;
  Counter& retransmit_exhausted_;
  Counter& dup_suppressed_;
  Counter& frames_acked_;
  Counter& frames_malformed_;
  Gauge& unacked_gauge_;
  Rng rng_;

  std::uint64_t epoch_ = 0;  // sender incarnation; rotated by reset()
  std::uint64_t next_timer_id_ = 0;
  std::unordered_map<NodeId, std::uint64_t> next_seq_;
  // Retransmission state: timer id → frame, plus (to, seq) → timer id so
  // acks can find their frame.
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::unordered_map<std::uint64_t, std::unordered_map<std::uint64_t,
                                                       std::uint64_t>>
      pending_by_dest_;  // to.value() → seq → timer id
  std::unordered_map<NodeId, RecvStream> recv_;
};

}  // namespace stcn
