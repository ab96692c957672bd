#include "sim/network.hpp"

#include "telemetry/telemetry.hpp"

namespace sc::sim {

struct Network::Metrics {
  telemetry::Registry& r;  ///< Also serves the by-topic families, by name.
  telemetry::Counter& sent =
      r.counter("net_messages_sent_total", "Messages submitted to the overlay");
  telemetry::Counter& delivered =
      r.counter("net_messages_delivered_total", "Messages handed to their recipient");
  telemetry::Histogram& latency =
      r.histogram("net_delivery_latency_seconds",
                  "Per-message delivery latency in sim-seconds",
                  telemetry::HistogramSpec::latency_seconds());
};

Network::Network(Simulator& sim, NetworkConfig config, telemetry::Telemetry* tel)
    : sim_(sim), config_(config), metrics_(telemetry::resolve(tel).handles<Metrics>()) {}

NodeId Network::add_node(MessageHandler handler) {
  handlers_.push_back(std::move(handler));
  return static_cast<NodeId>(handlers_.size() - 1);
}

bool Network::severed(NodeId a, NodeId b) const {
  // Severed iff the endpoints belong to two different groups of the active
  // partition; membership in no group never severs (two-group compatible).
  int ga = -1, gb = -1;
  for (int i = 0; i < static_cast<int>(groups_.size()); ++i) {
    if (groups_[i].contains(a)) ga = i;
    if (groups_[i].contains(b)) gb = i;
  }
  return ga >= 0 && gb >= 0 && ga != gb;
}

double Network::sample_latency() {
  double latency = config_.base_latency;
  if (config_.latency_jitter > 0.0)
    latency += sim_.rng().exponential(config_.latency_jitter);
  return latency;
}

void Network::unicast(NodeId from, NodeId to, std::string topic, util::Bytes payload) {
  if (to >= handlers_.size()) return;
  ++sent_;
  metrics_.sent.inc();
  // Order matters for RNG-stream stability: a severed send must not consume
  // a bernoulli draw (matches the short-circuit the check always had).
  if (severed(from, to)) {
    ++severed_count_;
    metrics_.r
        .counter("net_messages_severed_total",
                 "Messages blocked by an active partition, by topic", {{"topic", topic}})
        .inc();
    return;
  }
  if (sim_.rng().bernoulli(config_.drop_rate)) {
    ++dropped_;
    metrics_.r
        .counter("net_messages_dropped_total", "Messages lost to random drop, by topic",
                 {{"topic", topic}})
        .inc();
    return;
  }
  const double latency = sample_latency();
  Message msg{from, std::move(topic), std::move(payload)};
  sim_.after(latency, [this, to, latency, msg = std::move(msg)] {
    ++delivered_;
    metrics_.delivered.inc();
    metrics_.latency.observe(latency);
    handlers_[to](msg);
  });
}

void Network::broadcast(NodeId from, std::string topic, util::Bytes payload) {
  for (NodeId to = 0; to < handlers_.size(); ++to) {
    if (to == from) continue;
    unicast(from, to, topic, payload);
  }
}

void Network::partition(std::set<NodeId> group_a, std::set<NodeId> group_b) {
  groups_.clear();
  groups_.push_back(std::move(group_a));
  groups_.push_back(std::move(group_b));
}

void Network::partition_groups(std::vector<std::set<NodeId>> groups) {
  groups_ = std::move(groups);
}

void Network::heal_partition() { groups_.clear(); }

}  // namespace sc::sim
