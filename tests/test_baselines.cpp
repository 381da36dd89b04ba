// Baseline dataplane tests: ECMP hashing, static shortest-path delivery,
// SPAIN multipath, and HULA probe convergence + congestion adaptation.
#include <gtest/gtest.h>

#include "dataplane/ecmp_switch.h"
#include "dataplane/hula_switch.h"
#include "dataplane/spain_switch.h"
#include "dataplane/static_switch.h"
#include "obs/telemetry.h"
#include "sim/host.h"
#include "sim/parallel_simulator.h"
#include "sim/transport.h"
#include "topology/abilene.h"
#include "topology/generators.h"

namespace contra::dataplane {
namespace {

using sim::HostId;
using topology::NodeId;
using topology::Topology;

sim::SimConfig gig_config() {
  sim::SimConfig c;
  c.host_link_bps = 1e9;
  return c;
}

TEST(Ecmp, DeliversAcrossFatTree) {
  const Topology topo = topology::fat_tree(4, topology::LinkParams{1e9, 1e-6});
  sim::Simulator sim(topo, gig_config());
  install_ecmp_network(sim);
  sim::TransportManager transport(sim);
  const auto hosts = sim::attach_hosts_to_fat_tree_edges(sim, 1);
  sim.start();
  for (int i = 0; i < 6; ++i) {
    transport.start_flow(hosts[i], hosts[7 - i], 50'000, 0.0);
  }
  sim.run_until(0.2);
  EXPECT_EQ(transport.completed_flows().size(), 6u);
}

TEST(Ecmp, SpreadsFlowsAcrossUplinks) {
  const Topology topo = topology::fat_tree(4, topology::LinkParams{1e9, 1e-6});
  sim::Simulator sim(topo, gig_config());
  install_ecmp_network(sim);
  sim::TransportManager transport(sim);
  const HostId src = sim.add_host(topo.find("e0_0"));
  const HostId dst = sim.add_host(topo.find("e3_0"));
  sim.start();
  for (int i = 0; i < 40; ++i) transport.start_flow(src, dst, 10'000, i * 1e-4);
  sim.run_until(0.3);
  EXPECT_EQ(transport.completed_flows().size(), 40u);
  // Both e0_0 uplinks must have carried data (hashing spreads flows).
  int used = 0;
  for (topology::LinkId l : topo.out_links(topo.find("e0_0"))) {
    if (sim.link(l).stats().tx_data_bytes > 0) ++used;
  }
  EXPECT_EQ(used, 2);
}

TEST(Ecmp, IsLoadOblivious) {
  // ECMP keeps hashing onto a congested link — the defining weakness.
  const Topology topo = topology::leaf_spine(2, 2, topology::LinkParams{1e9, 1e-6});
  sim::Simulator sim(topo, gig_config());
  install_ecmp_network(sim);
  sim::TransportManager transport(sim);
  const HostId a = sim.add_host(topo.find("leaf0"));
  const HostId b = sim.add_host(topo.find("leaf1"));
  sim.start();
  // A single long flow keeps its hash-chosen spine regardless of congestion:
  transport.start_udp_flow(a, b, 900e6, 0.0, 50e-3);
  sim.run_until(60e-3);
  // Exactly one spine-bound link carried the stream.
  int used = 0;
  for (topology::LinkId l : topo.out_links(topo.find("leaf0"))) {
    if (sim.link(l).stats().tx_data_bytes > 0) ++used;
  }
  EXPECT_EQ(used, 1);
}

TEST(StaticSp, FollowsBfsPath) {
  const Topology topo = topology::abilene(1e9, 0.001);
  sim::Simulator sim(topo, gig_config());
  auto switches = install_shortest_path_network(sim);
  sim::TransportManager transport(sim);
  const HostId src = sim.add_host(topo.find("Seattle"));
  const HostId dst = sim.add_host(topo.find("WashingtonDC"));
  sim.start();
  transport.start_flow(src, dst, 50'000, 0.0);
  sim.run_until(0.5);
  ASSERT_EQ(transport.completed_flows().size(), 1u);
  // Hop count on the wire equals BFS distance: count switches that forwarded.
  const uint32_t bfs =
      topo.bfs_hops(topo.find("Seattle"))[topo.find("WashingtonDC")];
  uint32_t forwarding_switches = 0;
  for (const StaticSwitch* sw : switches) {
    if (sw->stats().data_forwarded > 0) ++forwarding_switches;
  }
  // Data crosses bfs fabric links -> bfs forwarding switches on the forward
  // path; ACKs return via their own shortest path, which may differ under
  // asymmetric tie-breaking, adding at most one more switch per extra hop.
  EXPECT_GE(forwarding_switches, bfs);
  EXPECT_LE(forwarding_switches, 2 * bfs);
}

TEST(Spain, DeliversAndUsesMultiplePaths) {
  const Topology topo = topology::abilene(1e9, 0.001);
  sim::Simulator sim(topo, gig_config());
  install_spain_network(sim, 4);
  sim::TransportManager transport(sim);
  const HostId src = sim.add_host(topo.find("Seattle"));
  const HostId dst = sim.add_host(topo.find("WashingtonDC"));
  sim.start();
  for (int i = 0; i < 30; ++i) transport.start_flow(src, dst, 20'000, i * 1e-4);
  sim.run_until(0.5);
  EXPECT_EQ(transport.completed_flows().size(), 30u);
  // Seattle has two cables; SPAIN's diverse path set should use both.
  int used = 0;
  for (topology::LinkId l : topo.out_links(topo.find("Seattle"))) {
    if (sim.link(l).stats().tx_data_bytes > 0) ++used;
  }
  EXPECT_GE(used, 2);
}

TEST(Hula, ConvergesOnFatTree) {
  const Topology topo = topology::fat_tree(4, topology::LinkParams{1e9, 1e-6});
  sim::Simulator sim(topo, gig_config());
  auto switches = install_hula_network(sim);
  sim.start();
  sim.run_until(5e-3);
  // Every switch must know a best hop toward every ToR.
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    for (NodeId tor = 0; tor < topo.num_nodes(); ++tor) {
      if (topology::fat_tree_layer(topo, tor) != topology::FatTreeLayer::kEdge) continue;
      if (tor == n) continue;
      EXPECT_NE(switches[n]->best_hop(tor), nullptr)
          << topo.name(n) << " -> " << topo.name(tor);
    }
  }
}

TEST(Hula, DeliversFlows) {
  const Topology topo = topology::fat_tree(4, topology::LinkParams{1e9, 1e-6});
  sim::Simulator sim(topo, gig_config());
  install_hula_network(sim);
  sim::TransportManager transport(sim);
  const auto hosts = sim::attach_hosts_to_fat_tree_edges(sim, 1);
  sim.start();
  sim.run_until(3e-3);
  for (int i = 0; i < 4; ++i) {
    transport.start_flow(hosts[i], hosts[i + 4], 50'000, sim.now());
  }
  sim.run_until(sim.now() + 0.2);
  EXPECT_EQ(transport.completed_flows().size(), 4u);
}

TEST(Hula, AdaptsToCongestion) {
  // Two-pod traffic with one congested core path: HULA should shift new
  // flowlets to the less-utilized core.
  const Topology topo = topology::fat_tree(4, topology::LinkParams{1e9, 1e-6});
  sim::Simulator sim(topo, gig_config());
  auto switches = install_hula_network(sim);
  sim::TransportManager transport(sim);
  const HostId src = sim.add_host(topo.find("e0_0"));
  const HostId dst = sim.add_host(topo.find("e1_0"));
  sim.start();
  sim.run_until(3e-3);

  const NodeId a0 = topo.find("a0_0");
  const auto* before = switches[a0]->best_hop(topo.find("e1_0"));
  ASSERT_NE(before, nullptr);

  // Run real UDP through the fabric and let utilization shift choices; the
  // entry must keep refreshing with new probe rounds.
  transport.start_udp_flow(src, dst, 800e6, sim.now(), sim.now() + 30e-3);
  sim.run_until(sim.now() + 20e-3);
  const auto* after = switches[a0]->best_hop(topo.find("e1_0"));
  ASSERT_NE(after, nullptr);
  EXPECT_GE(after->version, before->version);
}

TEST(Hula, ThrowsOffFatTree) {
  const Topology topo = topology::ring(4);
  sim::Simulator sim(topo, gig_config());
  install_hula_network(sim);
  EXPECT_THROW(sim.start(), std::invalid_argument);
}

TEST(Baselines, ProbesIgnoredByStaticPlanes) {
  const Topology topo = topology::line(2);
  sim::Simulator sim(topo, gig_config());
  auto switches = install_ecmp_network(sim);
  sim::Packet probe;
  probe.kind = sim::PacketKind::kProbe;
  probe.size_bytes = 64;
  probe.probe = sim::ProbeFields{};
  // Must not crash nor forward.
  switches[0]->handle_packet(sim, std::move(probe), sim::kFromHost);
  EXPECT_EQ(switches[0]->stats().data_forwarded, 0u);
}

// Every plane counts its data forwarding in the metrics registry, not only
// in its switches' stats(): the merged registry of a sharded run must agree
// with the switch-level sums for the static planes too.
template <typename Install>
void expect_registry_matches_switch_stats(const char* plane, Install install) {
  const Topology topo = topology::fat_tree(4, topology::LinkParams{1e9, 1e-6});
  sim::SimConfig config = gig_config();
  config.shards = 2;
  sim::ParallelSimulator psim(topo, config);
  std::vector<const DataStats*> stats;
  psim.for_each_shard([&](sim::Simulator& sim) {
    for (const auto* sw : install(sim)) stats.push_back(&sw->stats());
  });
  ASSERT_EQ(stats.size(), topo.num_nodes()) << plane;
  const auto hosts = sim::attach_hosts_to_fat_tree_edges(psim, 1);
  sim::ParallelTransport transport(psim);
  psim.start();
  for (int i = 0; i < 6; ++i) transport.start_flow(hosts[i], hosts[7 - i], 50'000, 0.0);
  psim.run_until(0.2);
  ASSERT_EQ(transport.completed_flows().size(), 6u) << plane;

  obs::Telemetry merged;
  for (uint32_t s = 0; s < psim.num_shards(); ++s) {
    merged.metrics().merge_from(psim.shard_sim(s).telemetry().metrics());
  }
  DataStats sum;
  for (const DataStats* st : stats) {
    sum.data_forwarded += st->data_forwarded;
    sum.data_dropped_no_route += st->data_dropped_no_route;
    sum.data_dropped_ttl += st->data_dropped_ttl;
  }
  const obs::CoreMetrics& core = merged.core();
  EXPECT_GT(sum.data_forwarded, 0u) << plane;
  EXPECT_EQ(merged.metrics().value(core.data_forwarded), sum.data_forwarded) << plane;
  EXPECT_EQ(merged.metrics().value(core.data_dropped_no_route), sum.data_dropped_no_route)
      << plane;
  EXPECT_EQ(merged.metrics().value(core.data_dropped_ttl), sum.data_dropped_ttl) << plane;
}

TEST(Baselines, ForwardingCountsInMetricsRegistry) {
  expect_registry_matches_switch_stats(
      "ecmp", [](sim::Simulator& sim) { return install_ecmp_network(sim); });
  expect_registry_matches_switch_stats(
      "sp", [](sim::Simulator& sim) { return install_shortest_path_network(sim); });
  expect_registry_matches_switch_stats(
      "spain", [](sim::Simulator& sim) { return install_spain_network(sim); });
}

}  // namespace
}  // namespace contra::dataplane
