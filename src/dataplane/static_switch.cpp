#include "dataplane/static_switch.h"

namespace contra::dataplane {

void StaticSwitch::handle_packet(sim::Simulator& sim, sim::Packet&& packet,
                                 topology::LinkId in_link) {
  (void)in_link;
  if (packet.kind == sim::PacketKind::kProbe) return;
  if (packet.dst_switch == self_) {
    deliver_to_host(sim, stats_, std::move(packet));
    return;
  }
  forward_data_packet(sim, stats_, (*table_)[self_][packet.dst_switch], std::move(packet));
}

std::vector<StaticSwitch*> install_shortest_path_network(sim::Simulator& sim) {
  auto table =
      std::make_shared<const StaticSwitch::Table>(compute_shortest_next_hops(sim.topo()));
  return install_switches(sim, [&](topology::NodeId n) {
    return std::make_unique<StaticSwitch>(table, n);
  });
}

}  // namespace contra::dataplane
