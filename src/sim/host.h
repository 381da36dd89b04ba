// Host-side helpers. Hosts are thin in this simulator: endpoints with a NIC
// link pair managed by Simulator and a transport managed by
// TransportManager. This header provides the placement helpers experiments
// use to attach hosts to edge switches; each works on either engine (any
// `Sim` with topo() and add_host(), i.e. Simulator or ParallelSimulator).
#pragma once

#include <vector>

#include "sim/simulator.h"
#include "topology/generators.h"
#include "util/strings.h"

namespace contra::sim {

/// Attaches one host to each of the given switches.
template <typename Sim>
std::vector<HostId> attach_hosts(Sim& sim, const std::vector<topology::NodeId>& switches) {
  std::vector<HostId> hosts;
  hosts.reserve(switches.size());
  for (topology::NodeId n : switches) hosts.push_back(sim.add_host(n));
  return hosts;
}

/// Attaches `per_switch` hosts to every edge switch of a fat-tree (names
/// starting with "e"); returns the host ids in attachment order.
template <typename Sim>
std::vector<HostId> attach_hosts_to_fat_tree_edges(Sim& sim, uint32_t per_switch) {
  std::vector<HostId> hosts;
  const topology::Topology& topo = sim.topo();
  for (topology::NodeId n = 0; n < topo.num_nodes(); ++n) {
    if (topology::fat_tree_layer(topo, n) != topology::FatTreeLayer::kEdge) continue;
    for (uint32_t i = 0; i < per_switch; ++i) hosts.push_back(sim.add_host(n));
  }
  return hosts;
}

/// Attaches `per_switch` hosts to every leaf of a leaf-spine topology.
template <typename Sim>
std::vector<HostId> attach_hosts_to_leaves(Sim& sim, uint32_t per_switch) {
  std::vector<HostId> hosts;
  const topology::Topology& topo = sim.topo();
  for (topology::NodeId n = 0; n < topo.num_nodes(); ++n) {
    if (!util::starts_with(topo.name(n), "leaf")) continue;
    for (uint32_t i = 0; i < per_switch; ++i) hosts.push_back(sim.add_host(n));
  }
  return hosts;
}

}  // namespace contra::sim
