// Shortest-path baseline ("SP" in §6.4): every packet follows the single
// deterministic shortest path. No load awareness, no multipath.
#pragma once

#include <memory>

#include "dataplane/ecmp_switch.h"
#include "dataplane/routing_tables.h"
#include "sim/node.h"
#include "sim/simulator.h"

namespace contra::dataplane {

class StaticSwitch : public sim::Device {
 public:
  using Table = std::vector<std::vector<topology::LinkId>>;

  StaticSwitch(std::shared_ptr<const Table> table, topology::NodeId self)
      : table_(std::move(table)), self_(self) {}

  void handle_packet(sim::Simulator& sim, sim::Packet&& packet,
                     topology::LinkId in_link) override;
  topology::LinkId fluid_next_hop(const sim::Simulator& sim, topology::NodeId dst_switch,
                                  const util::FiveTuple& tuple,
                                  sim::RoutingState& routing) const override {
    (void)sim;
    (void)tuple;
    (void)routing;
    return (*table_)[self_][dst_switch];
  }
  const char* kind_name() const override { return "shortest-path"; }

  const DataStats& stats() const { return stats_; }

 private:
  std::shared_ptr<const Table> table_;
  topology::NodeId self_;
  DataStats stats_;
};

std::vector<StaticSwitch*> install_shortest_path_network(sim::Simulator& sim);

}  // namespace contra::dataplane
