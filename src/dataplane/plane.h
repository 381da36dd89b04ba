// What every dataplane shares at its edges: the data-packet egress tail and
// the per-node installer.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/simulator.h"

namespace contra::dataplane {

/// Data-path counters every plane keeps in its stats(). The egress helpers
/// below bump them together with the registry's always-on data_* counters,
/// so a switch's view and the merged metrics agree for every plane.
struct DataStats {
  uint64_t data_forwarded = 0;
  uint64_t data_to_host = 0;
  uint64_t data_dropped_no_route = 0;
  uint64_t data_dropped_ttl = 0;
};

/// Hands a data packet to a host attached to this switch.
inline void deliver_to_host(sim::Simulator& sim, DataStats& stats, sim::Packet&& packet) {
  ++stats.data_to_host;
  sim.send_to_host(packet.dst_host, std::move(packet));
}

/// The egress tail of data forwarding: drops the packet when `nhop` is
/// kInvalidLink (no route) or its TTL is spent; otherwise decrements the TTL
/// and sends it on `nhop`.
inline void forward_data_packet(sim::Simulator& sim, DataStats& stats, topology::LinkId nhop,
                                sim::Packet&& packet) {
  obs::Telemetry& tel = sim.telemetry();
  if (nhop == topology::kInvalidLink) {
    ++stats.data_dropped_no_route;
    tel.metrics().add(tel.core().data_dropped_no_route);
    return;
  }
  if (packet.routing.ttl == 0) {
    ++stats.data_dropped_ttl;
    tel.metrics().add(tel.core().data_dropped_ttl);
    return;
  }
  --packet.routing.ttl;
  ++stats.data_forwarded;
  tel.metrics().add(tel.core().data_forwarded);
  sim.send_on_link(nhop, std::move(packet));
}

/// Installs `make(node)` — a std::unique_ptr to a device — at every node
/// `sim` owns, and returns the installed devices (owned by `sim`).
template <typename Make>
auto install_switches(sim::Simulator& sim, Make make) {
  using Switch = typename decltype(make(topology::NodeId{}))::element_type;
  std::vector<Switch*> switches;
  for (topology::NodeId n = 0; n < sim.topo().num_nodes(); ++n) {
    if (!sim.owns(n)) continue;
    std::unique_ptr<Switch> sw = make(n);
    switches.push_back(sw.get());
    sim.install_switch(n, std::move(sw));
  }
  return switches;
}

}  // namespace contra::dataplane
