// Deterministic discrete-event network simulator.
//
// The "cluster" the framework runs on. Nodes register themselves, send
// messages, and set timers; the simulator delivers everything in virtual-time
// order. Link behaviour is modeled as
//
//     delivery_time = now + (base_latency + jitter + wire_size / bandwidth)
//                           * link_multiplier * slow_multiplier
//                     + link_extra_latency
//
// with optional per-message drop probability and per-node failure state.
// Every byte and message is counted in the network's metrics registry so
// benchmarks can report network volume exactly.
//
// Fault model (beyond clean crashes):
//  * fabric loss        — `drop_probability` drops any message uniformly;
//  * duplication        — `duplicate_probability` delivers a second copy of
//                         a message with an independent delay;
//  * partitions         — `partition(groupA, groupB)` drops every message
//                         between the two groups, in both directions, until
//                         `heal()`; partitions are cumulative;
//  * link overrides     — `set_link` gives one directed link its own drop
//                         probability and latency shaping (degraded link);
//  * gray failures      — `set_slow(node, m)` multiplies the delivery
//                         latency of every message to or from the node by
//                         `m` without crashing it. Heartbeats still arrive,
//                         so timeout-based failure detectors do not fire;
//                         only latency-sensitive paths (hedging) notice.
//
// Crashes suppress timers but no longer lose them: a timer that comes due
// while its node is crashed is parked and re-queued when the node restarts,
// so recurring tick chains (heartbeat, monitor tick) survive a restart even
// if nobody re-arms them explicitly.
//
// Determinism: with a fixed seed, identical send sequences produce identical
// delivery schedules. Ties in delivery time are broken by send sequence
// number.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/time.h"
#include "net/message.h"
#include "net/node.h"
#include "obs/metrics.h"

namespace stcn {

/// Link-level behaviour knobs for the whole fabric.
struct NetworkConfig {
  Duration base_latency = Duration::micros(200);
  Duration latency_jitter = Duration::micros(50);  // uniform [0, jitter)
  double bandwidth_bytes_per_sec = 1.25e9;          // ~10 Gbit/s
  double drop_probability = 0.0;
  /// Probability that a delivered message is delivered twice (the second
  /// copy gets an independent delay). Models retransmitting middleboxes.
  double duplicate_probability = 0.0;
  std::uint64_t seed = 42;
};

/// Per-directed-link behaviour override (degraded or asymmetric links).
struct LinkOverride {
  /// Negative means "inherit the fabric-wide drop_probability".
  double drop_probability = -1.0;
  Duration extra_latency = Duration::zero();
  double latency_multiplier = 1.0;
};

class SimNetwork {
 public:
  explicit SimNetwork(NetworkConfig config = {})
      : config_(config),
        rng_(config.seed),
        messages_sent_(metrics_.counter(
            "messages_sent", "Messages handed to the fabric for delivery")),
        bytes_sent_(metrics_.counter(
            "bytes_sent", "Payload bytes handed to the fabric")),
        messages_delivered_(metrics_.counter(
            "messages_delivered", "Messages delivered to a live node")),
        messages_duplicated_(metrics_.counter(
            "messages_duplicated",
            "Messages duplicated in flight by fault injection")),
        dropped_crashed_(metrics_.counter(
            "messages_dropped_crashed",
            "Messages dropped because the destination was crashed")),
        dropped_partition_(metrics_.counter(
            "messages_dropped_partition",
            "Messages dropped by an injected network partition")),
        dropped_fabric_(metrics_.counter(
            "messages_dropped_fabric",
            "Messages lost to random fabric drop (loss_probability)")),
        dropped_unknown_(metrics_.counter(
            "messages_dropped_unknown_node",
            "Messages addressed to a node never attached")),
        timers_parked_(metrics_.counter(
            "timers_parked", "Timers held while their owner was crashed")),
        timers_resumed_(metrics_.counter(
            "timers_resumed", "Parked timers released on node restart")),
        delivery_delay_us_(metrics_.histogram(
            "delivery_delay_us", "Per-message fabric delay (sim us)")) {}

  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  /// Attaches a node. The node must outlive the network (nodes are owned by
  /// the framework layer; the network only routes to them).
  void attach(NetworkNode& node) {
    STCN_CHECK(nodes_.emplace(node.node_id(), &node).second);
  }

  void detach(NodeId id) { nodes_.erase(id); }

  /// Sends a message; it will be delivered at a future virtual time unless
  /// the destination is crashed/unknown, a partition separates the
  /// endpoints, or the fabric drops it.
  void send(Message message);

  /// Schedules `handle_timer(token)` on `node` at now + delay.
  void set_timer(NodeId node, Duration delay, std::uint64_t token);

  /// Marks a node as crashed: messages to it are dropped (and counted) and
  /// its timers are parked until restart.
  void crash(NodeId id) { crashed_.insert(id); }
  /// Heals a crashed node and re-queues any timers that came due while it
  /// was down (recurring tick chains resume without outside help).
  void restart(NodeId id);
  [[nodiscard]] bool is_crashed(NodeId id) const {
    return crashed_.contains(id);
  }

  // ------------------------------------------------------------ partitions
  /// Partitions the fabric: every message between a node in `group_a` and a
  /// node in `group_b` is dropped, in both directions. Partitions stack; an
  /// endpoint pair is cut if any active partition separates it.
  void partition(const std::vector<NodeId>& group_a,
                 const std::vector<NodeId>& group_b);
  /// Heals all partitions.
  void heal() { partitions_.clear(); }
  [[nodiscard]] bool partitioned(NodeId a, NodeId b) const;
  [[nodiscard]] std::size_t active_partitions() const {
    return partitions_.size();
  }

  // --------------------------------------------------------- link overrides
  /// Overrides behaviour of the directed link `from` → `to`.
  void set_link(NodeId from, NodeId to, LinkOverride link) {
    links_[link_key(from, to)] = link;
  }
  /// Overrides both directions of a link.
  void set_link_symmetric(NodeId a, NodeId b, LinkOverride link) {
    set_link(a, b, link);
    set_link(b, a, link);
  }
  void clear_link(NodeId from, NodeId to) { links_.erase(link_key(from, to)); }
  void clear_links() { links_.clear(); }

  // ----------------------------------------------------------- gray failure
  /// Puts a node in "slow" mode: all its traffic (in and out) takes
  /// `latency_multiplier` times longer to deliver. The node stays up —
  /// heartbeats flow, so failure detectors do not trip. Requires >= 1.
  void set_slow(NodeId id, double latency_multiplier) {
    STCN_CHECK(latency_multiplier >= 1.0);
    slow_[id] = latency_multiplier;
  }
  void clear_slow(NodeId id) { slow_.erase(id); }
  [[nodiscard]] bool is_slow(NodeId id) const { return slow_.contains(id); }

  /// Runs the event loop until no events remain or `deadline` is reached.
  /// Returns the number of events processed.
  std::size_t run_until_idle(TimePoint deadline = TimePoint::max());

  /// Processes exactly one event (message delivery or timer). Returns false
  /// when the queue is empty. Useful for pumping until a condition holds
  /// when recurring timers keep the queue permanently non-empty.
  bool step();

  /// Runs until virtual time reaches `until` (events at exactly `until` are
  /// not processed).
  std::size_t run_until(TimePoint until) { return run_until_idle(until); }

  /// Advances virtual time to at least `t` even with no pending events.
  void advance_clock_to(TimePoint t) {
    if (t > now_) now_ = t;
  }

  [[nodiscard]] TimePoint now() const { return now_; }
  [[nodiscard]] bool idle() const { return events_.empty(); }

  /// Transport accounting: messages_sent, messages_delivered,
  /// messages_dropped_*, messages_duplicated, bytes_sent, timers_parked,
  /// read by name (`counters().get("bytes_sent")`) from metrics().
  [[nodiscard]] const MetricsRegistry& counters() const { return metrics_; }

  /// The same registry: the counters above plus the delivery-delay
  /// histogram.
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  MetricsRegistry& metrics() { return metrics_; }

  [[nodiscard]] const NetworkConfig& config() const { return config_; }

 private:
  struct Event {
    TimePoint at;
    std::uint64_t sequence = 0;  // tie-break for determinism
    bool is_timer = false;
    Message message;       // when !is_timer
    NodeId timer_node;     // when is_timer
    std::uint64_t timer_token = 0;

    // Min-heap on (at, sequence).
    friend bool operator>(const Event& a, const Event& b) {
      if (a.at != b.at) return a.at > b.at;
      return a.sequence > b.sequence;
    }
  };

  struct ParkedTimer {
    TimePoint due;
    std::uint64_t token = 0;
  };

  static std::uint64_t link_key(NodeId from, NodeId to) {
    // Directed pair packed for hashing; node ids in this codebase are small.
    return from.value() * 0x1'0000'0001ULL ^ (to.value() << 1);
  }

  [[nodiscard]] const LinkOverride* link(NodeId from, NodeId to) const {
    auto it = links_.find(link_key(from, to));
    return it == links_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] Duration delivery_delay(const Message& message);
  void enqueue_delivery(const Message& message, Duration delay);

  NetworkConfig config_;
  Rng rng_;
  TimePoint now_;
  std::uint64_t next_sequence_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  std::unordered_map<NodeId, NetworkNode*> nodes_;
  std::unordered_set<NodeId> crashed_;
  std::unordered_map<NodeId, std::vector<ParkedTimer>> parked_timers_;
  std::vector<std::pair<std::unordered_set<NodeId>,
                        std::unordered_set<NodeId>>>
      partitions_;
  std::unordered_map<std::uint64_t, LinkOverride> links_;
  std::unordered_map<NodeId, double> slow_;

  MetricsRegistry metrics_;
  Counter& messages_sent_;
  Counter& bytes_sent_;
  Counter& messages_delivered_;
  Counter& messages_duplicated_;
  Counter& dropped_crashed_;
  Counter& dropped_partition_;
  Counter& dropped_fabric_;
  Counter& dropped_unknown_;
  Counter& timers_parked_;
  Counter& timers_resumed_;
  LatencyHistogram& delivery_delay_us_;
};

}  // namespace stcn
