#include "dataplane/spain_switch.h"

#include "util/hash.h"

namespace contra::dataplane {

void SpainSwitch::handle_packet(sim::Simulator& sim, sim::Packet&& packet,
                                topology::LinkId in_link) {
  if (packet.kind == sim::PacketKind::kProbe) return;
  if (packet.dst_switch == self_) {
    deliver_to_host(sim, stats_, std::move(packet));
    return;
  }
  if (in_link == sim::kFromHost) {
    // Ingress: hash the flow onto one of the precomputed paths (the VLAN
    // choice in real SPAIN). Static for the flow's lifetime.
    const uint32_t n = routing_->num_paths(self_, packet.dst_switch);
    if (n == 0) {  // no path at all: a no-route drop
      forward_data_packet(sim, stats_, topology::kInvalidLink, std::move(packet));
      return;
    }
    packet.routing.path_id = util::hash_five_tuple(packet.tuple, /*seed=*/0x9747b28cu) % n;
  }
  const topology::LinkId hop =
      routing_->next_hop(packet.src_switch, packet.dst_switch, packet.routing.path_id, self_);
  forward_data_packet(sim, stats_, hop, std::move(packet));
}

std::vector<SpainSwitch*> install_spain_network(sim::Simulator& sim, uint32_t k) {
  auto routing = std::make_shared<const SpainRouting>(sim.topo(), k);
  return install_switches(sim, [&](topology::NodeId n) {
    return std::make_unique<SpainSwitch>(routing, n);
  });
}

}  // namespace contra::dataplane
