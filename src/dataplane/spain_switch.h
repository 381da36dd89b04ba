// SPAIN baseline (Mudigonda et al., NSDI'10): multipath over precomputed,
// load-oblivious path sets. The ingress switch hashes a flow onto a path
// index (SPAIN's VLAN); downstream switches forward along that path.
#pragma once

#include <memory>

#include "dataplane/ecmp_switch.h"
#include "dataplane/routing_tables.h"
#include "sim/node.h"
#include "sim/simulator.h"

namespace contra::dataplane {

class SpainSwitch : public sim::Device {
 public:
  SpainSwitch(std::shared_ptr<const SpainRouting> routing, topology::NodeId self)
      : routing_(std::move(routing)), self_(self) {}

  void handle_packet(sim::Simulator& sim, sim::Packet&& packet,
                     topology::LinkId in_link) override;
  const char* kind_name() const override { return "spain"; }

  const DataStats& stats() const { return stats_; }

 private:
  std::shared_ptr<const SpainRouting> routing_;
  topology::NodeId self_;
  DataStats stats_;
};

std::vector<SpainSwitch*> install_spain_network(sim::Simulator& sim, uint32_t k = 4);

}  // namespace contra::dataplane
