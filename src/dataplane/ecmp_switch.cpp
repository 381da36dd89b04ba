#include "dataplane/ecmp_switch.h"

#include "util/hash.h"

namespace contra::dataplane {

void EcmpSwitch::handle_packet(sim::Simulator& sim, sim::Packet&& packet,
                               topology::LinkId in_link) {
  (void)in_link;
  if (packet.kind == sim::PacketKind::kProbe) return;  // no probes in ECMP
  if (packet.dst_switch == self_) {
    deliver_to_host(sim, stats_, std::move(packet));
    return;
  }
  const topology::LinkId nhop = pick(sim, packet.dst_switch, packet.tuple);
  forward_data_packet(sim, stats_, nhop, std::move(packet));
}

topology::LinkId EcmpSwitch::fluid_next_hop(const sim::Simulator& sim,
                                            topology::NodeId dst_switch,
                                            const util::FiveTuple& tuple,
                                            sim::RoutingState& routing) const {
  (void)routing;
  return pick(sim, dst_switch, tuple);
}

topology::LinkId EcmpSwitch::pick(const sim::Simulator& sim, topology::NodeId dst_switch,
                                  const util::FiveTuple& tuple) const {
  // ECMP groups exclude ports whose link is locally down (standard LAG/ECMP
  // behaviour); it stays load-oblivious among the live members.
  const auto& hops = (*table_)[self_][dst_switch];
  uint32_t live = 0;
  for (topology::LinkId l : hops) {
    if (!sim.link(l).down()) ++live;
  }
  if (live == 0) return topology::kInvalidLink;
  // The target-th live member, in group order.
  const uint32_t target = util::hash_five_tuple(tuple, /*seed=*/0x5bd1e995u) % live;
  uint32_t idx = 0;
  for (topology::LinkId l : hops) {
    if (sim.link(l).down()) continue;
    if (idx++ == target) return l;
  }
  return topology::kInvalidLink;
}

std::vector<EcmpSwitch*> install_ecmp_network(sim::Simulator& sim) {
  // The table reflects the routing protocol's converged view: links already
  // down at install time are excluded (fail links before installing to model
  // a steady-state asymmetric topology, as in Fig. 12).
  auto table = std::make_shared<const EcmpSwitch::EcmpTable>(compute_ecmp_next_hops(
      sim.topo(), [&sim](topology::LinkId l) { return !sim.link(l).down(); }));
  return install_switches(sim, [&](topology::NodeId n) {
    return std::make_unique<EcmpSwitch>(table, n);
  });
}

}  // namespace contra::dataplane
