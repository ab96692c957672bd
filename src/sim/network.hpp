// Simulated message-passing network with latency, loss and partitions.
//
// SmartCrowd disseminates SRAs and detection reports by gossip among
// stakeholders (Section IV-B). We model a fully-connected overlay whose links
// have exponential latency jitter around a base delay, optional loss, and an
// adversarial partition switch used by the attack harness.
//
// Accounting invariant: every send ends in exactly one of delivered, dropped
// (random loss) or severed (partition), so
//   messages_sent() == messages_delivered() + messages_dropped()
//                      + messages_severed()
// once the simulator has drained all in-flight deliveries.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "util/bytes.hpp"

namespace sc::telemetry {
struct Telemetry;
class Counter;
class Histogram;
}

namespace sc::sim {

using NodeId = std::uint32_t;

struct Message {
  NodeId from = 0;
  std::string topic;     ///< e.g. "sra", "report_initial", "block".
  util::Bytes payload;
};

using MessageHandler = std::function<void(const Message&)>;

struct NetworkConfig {
  double base_latency = 0.05;    ///< seconds
  double latency_jitter = 0.02;  ///< mean of the exponential jitter term
  double drop_rate = 0.0;        ///< iid per message
};

class Network {
 public:
  /// `tel` is the metrics sink (nullptr → telemetry::global()): send/deliver
  /// counters, per-topic drop counters and the delivery-latency histogram.
  Network(Simulator& sim, NetworkConfig config = {},
          telemetry::Telemetry* tel = nullptr);

  /// Registers a node; the handler runs at message-delivery time.
  NodeId add_node(MessageHandler handler);
  std::size_t node_count() const { return handlers_.size(); }

  /// Sends to one peer (delayed, possibly dropped, partition-aware).
  void unicast(NodeId from, NodeId to, std::string topic, util::Bytes payload);
  /// Sends to every other node.
  void broadcast(NodeId from, std::string topic, util::Bytes payload);

  /// Severs communication between the two groups (bidirectional).
  void partition(std::set<NodeId> group_a, std::set<NodeId> group_b);
  /// General k-way partition: a message is severed iff its endpoints sit in
  /// two DIFFERENT listed groups. Nodes absent from every group keep talking
  /// to everyone (matching the two-group semantics, which this generalizes).
  /// Replaces any active partition.
  void partition_groups(std::vector<std::set<NodeId>> groups);
  void heal_partition();

  std::uint64_t messages_sent() const { return sent_; }
  std::uint64_t messages_delivered() const { return delivered_; }
  /// Lost to random drop_rate loss (excludes partition-severed sends).
  std::uint64_t messages_dropped() const { return dropped_; }
  /// Blocked by an active partition.
  std::uint64_t messages_severed() const { return severed_count_; }

 private:
  bool severed(NodeId a, NodeId b) const;
  double sample_latency();

  Simulator& sim_;
  NetworkConfig config_;
  struct Metrics;
  Metrics& metrics_;  ///< The sink's per-message families.
  std::vector<MessageHandler> handlers_;
  std::vector<std::set<NodeId>> groups_;  ///< Active partition (empty = none).
  std::uint64_t sent_ = 0, delivered_ = 0, dropped_ = 0, severed_count_ = 0;
};

}  // namespace sc::sim
