// ECMP baseline: hash each flow onto one of the equal-cost shortest-path
// next hops, oblivious to load (the paper's weakest baseline).
#pragma once

#include <memory>

#include "dataplane/plane.h"
#include "dataplane/routing_tables.h"
#include "sim/node.h"
#include "sim/simulator.h"

namespace contra::dataplane {

class EcmpSwitch : public sim::Device {
 public:
  using EcmpTable = std::vector<std::vector<std::vector<topology::LinkId>>>;

  EcmpSwitch(std::shared_ptr<const EcmpTable> table, topology::NodeId self)
      : table_(std::move(table)), self_(self) {}

  void handle_packet(sim::Simulator& sim, sim::Packet&& packet,
                     topology::LinkId in_link) override;
  /// Hybrid engine route query: handle_packet's decide step (pick).
  topology::LinkId fluid_next_hop(const sim::Simulator& sim, topology::NodeId dst_switch,
                                  const util::FiveTuple& tuple,
                                  sim::RoutingState& routing) const override;
  const char* kind_name() const override { return "ecmp"; }

  const DataStats& stats() const { return stats_; }

 private:
  /// The decide step: the group member toward `dst_switch` that `tuple`
  /// hashes onto among the members whose link is up, or kInvalidLink when
  /// none is. Found by counting and indexing, so it never allocates.
  topology::LinkId pick(const sim::Simulator& sim, topology::NodeId dst_switch,
                        const util::FiveTuple& tuple) const;

  std::shared_ptr<const EcmpTable> table_;
  topology::NodeId self_;
  DataStats stats_;
};

/// Installs ECMP switches everywhere (table computed once, shared).
std::vector<EcmpSwitch*> install_ecmp_network(sim::Simulator& sim);

}  // namespace contra::dataplane
