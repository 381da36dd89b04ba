// One next-hop decision per dataplane. Packet forwarding (handle_packet) and
// the hybrid engine's route query (fluid_next_hop) call the same decide step,
// so:
//   * the query is read-only: over an expired flowlet pin it counts no
//     expiry, miss or hit and emits no flowlets_expired metric or trace
//     record — the pin is left for the next packet's lookup to meet, erase
//     and count — and it records no failure-detector transition;
//   * after traffic warm-up (live pins, expired pins, pins over a failed
//     cable), the query at every switch of a flow's path names the link the
//     flow's next packet actually leaves on, for contra, hula and ecmp;
//   * ECMP forwarding, and contra forwarding at a transit switch, allocate
//     nothing per packet.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "compiler/compiler.h"
#include "dataplane/contra_switch.h"
#include "dataplane/ecmp_switch.h"
#include "dataplane/hula_switch.h"
#include "dataplane/probe_engine.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "sim/host.h"
#include "sim/simulator.h"
#include "topology/generators.h"
#include "util/alloc_probe.h"

namespace contra::dataplane {
namespace {

using sim::HostId;
using topology::LinkId;
using topology::NodeId;
using topology::Topology;

enum class Plane { kContra, kHula, kEcmp };

const char* plane_name(Plane plane) {
  switch (plane) {
    case Plane::kContra: return "contra";
    case Plane::kHula: return "hula";
    case Plane::kEcmp: return "ecmp";
  }
  return "?";
}

struct Flow {
  uint64_t id = 0;
  HostId src_host = 0, dst_host = 0;
  NodeId src_sw = 0, dst_sw = 0;
  util::FiveTuple tuple;
};

// A k=4 fat-tree running one plane, one host per edge switch, hosts that
// swallow whatever reaches them, and data packets injected straight into
// switches.
struct World {
  Topology topo = topology::fat_tree(4, topology::LinkParams{1e9, 1e-6});
  compiler::CompileResult compiled = compiler::compile("minimize(path.util)", topo);
  pg::PolicyEvaluator evaluator{compiled.graph, compiled.decomposition};
  sim::Simulator sim{topo, [] {
                       sim::SimConfig c;
                       c.host_link_bps = 1e9;
                       return c;
                     }()};
  std::vector<HostId> hosts;
  ContraSwitch* contra_src = nullptr;  ///< e0_0 under the contra plane
  HulaSwitch* hula_src = nullptr;      ///< e0_0 under the hula plane
  EcmpSwitch* ecmp_src = nullptr;      ///< e0_0 under the ecmp plane
  LinkId last_enqueue = topology::kInvalidLink;

  explicit World(Plane plane) {
    hosts = sim::attach_hosts_to_fat_tree_edges(sim, 1);
    sim.set_host_receiver([](HostId, sim::Packet&&) {});
    switch (plane) {
      case Plane::kContra:
        install_contra_network(sim, compiled, evaluator);
        break;
      case Plane::kHula:
        install_hula_network(sim);
        break;
      case Plane::kEcmp:
        install_ecmp_network(sim);
        break;
    }
    sim::Device& e00 = sim.device_at(topo.find("e0_0"));
    contra_src = dynamic_cast<ContraSwitch*>(&e00);
    hula_src = dynamic_cast<HulaSwitch*>(&e00);
    ecmp_src = dynamic_cast<EcmpSwitch*>(&e00);
    for (LinkId l = 0; l < topo.num_links(); ++l) {
      sim.link(l).set_queue_sampler([this, l](sim::Time, uint64_t) { last_enqueue = l; });
    }
  }

  Flow flow(uint64_t id, HostId src, HostId dst) {
    Flow f;
    f.id = id;
    f.src_host = src;
    f.dst_host = dst;
    f.src_sw = sim.host_switch(src);
    f.dst_sw = sim.host_switch(dst);
    f.tuple.src_ip = 0x0a000000u + src;
    f.tuple.dst_ip = 0x0a000000u + dst;
    f.tuple.src_port = static_cast<uint16_t>(1024 + id);
    f.tuple.dst_port = 80;
    f.tuple.protocol = 6;
    return f;
  }

  sim::Packet packet(const Flow& f, uint64_t seq) {
    sim::Packet p;
    p.kind = sim::PacketKind::kData;
    p.id = sim.next_packet_id();
    p.src_host = f.src_host;
    p.dst_host = f.dst_host;
    p.src_switch = f.src_sw;
    p.dst_switch = f.dst_sw;
    p.flow_id = f.id;
    p.seq = seq;
    p.size_bytes = 1500;
    p.tuple = f.tuple;
    return p;
  }

  // The link one synchronous handle_packet at `node` sent on: the link whose
  // queue took the packet, or the out-link that dropped it (down cable);
  // kInvalidLink when the switch dropped it itself.
  LinkId forward(NodeId node, sim::Packet&& p, LinkId in_link) {
    std::vector<uint64_t> drops;
    for (LinkId l : topo.out_links(node)) drops.push_back(sim.link(l).stats().drops);
    last_enqueue = topology::kInvalidLink;
    sim.device_at(node).handle_packet(sim, std::move(p), in_link);
    if (last_enqueue != topology::kInvalidLink) return last_enqueue;
    size_t i = 0;
    for (LinkId l : topo.out_links(node)) {
      if (sim.link(l).stats().drops != drops[i++]) return l;
    }
    return topology::kInvalidLink;
  }

  void inject(const Flow& f, uint64_t seq) { forward(f.src_sw, packet(f, seq), sim::kFromHost); }

  // Walks `f` hop by hop at the current instant. At each switch the route
  // query answers first, then a packet carrying the header the flow's packet
  // would carry there goes through handle_packet; both must pick the same
  // link. Returns the number of switches compared.
  int check_parity(const Flow& f, uint64_t seq, Plane plane) {
    sim::RoutingState header;
    NodeId cur = f.src_sw;
    LinkId in_link = sim::kFromHost;
    int compared = 0;
    while (cur != f.dst_sw && compared < 8) {
      sim::RoutingState queried = header;
      const LinkId expected =
          sim.device_at(cur).fluid_next_hop(sim, f.dst_sw, f.tuple, queried);
      sim::Packet p = packet(f, seq);
      p.routing = header;
      const LinkId actual = forward(cur, std::move(p), in_link);
      ++compared;
      EXPECT_EQ(expected, actual) << plane_name(plane) << " flow " << f.id << " at "
                                  << topo.name(cur) << " t=" << sim.now();
      if (expected != actual || actual == topology::kInvalidLink) break;
      header = queried;
      --header.ttl;
      in_link = actual;
      cur = topo.link(actual).to;
    }
    return compared;
  }
};

// ---- the route query is read-only -------------------------------------------

struct FlowletCounts {
  FlowletStats stats;
  uint64_t expired_metric = 0;
};

FlowletCounts counts(const World& w, const FlowletStats& stats) {
  const obs::Telemetry& tel = w.sim.telemetry();
  return FlowletCounts{stats, tel.metrics().value(tel.core().flowlets_expired)};
}

void expect_same(const FlowletCounts& a, const FlowletCounts& b) {
  EXPECT_EQ(a.stats.hits, b.stats.hits);
  EXPECT_EQ(a.stats.misses, b.stats.misses);
  EXPECT_EQ(a.stats.expirations, b.stats.expirations);
  EXPECT_EQ(a.stats.flushes, b.stats.flushes);
  EXPECT_EQ(a.stats.switches, b.stats.switches);
  EXPECT_EQ(a.expired_metric, b.expired_metric);
}

// One packet pins a flowlet at e0_0, the pin expires, and the route query
// runs over it twice: nothing is counted. The next packet then meets the
// expired pin itself — exactly one expiry, as if the query never ran.
template <typename Switch>
void expect_read_only_query(World& w, Switch* src) {
  ASSERT_NE(src, nullptr);
  obs::MemoryTraceSink trace;
  w.sim.telemetry().set_sink(&trace);
  w.sim.start();
  w.sim.run_until(3e-3);  // control plane converges
  const Flow f = w.flow(1, w.hosts[0], w.hosts[7]);
  w.inject(f, 0);
  w.sim.run_until(w.sim.now() + 1e-3);  // > flowlet timeout: the pin expired

  const FlowletCounts before = counts(w, src->flowlet_stats());
  const size_t records_before = trace.records().size();
  for (int i = 0; i < 2; ++i) {
    sim::RoutingState routing;
    EXPECT_NE(src->fluid_next_hop(w.sim, f.dst_sw, f.tuple, routing), topology::kInvalidLink);
  }
  expect_same(before, counts(w, src->flowlet_stats()));
  EXPECT_EQ(trace.records().size(), records_before);

  w.inject(f, 1);
  const FlowletCounts after = counts(w, src->flowlet_stats());
  EXPECT_EQ(after.stats.expirations, before.stats.expirations + 1);
  EXPECT_EQ(after.expired_metric, before.expired_metric + 1);
}

TEST(NextHopDecision, ContraRouteQueryLeavesExpiredPinUncounted) {
  World w(Plane::kContra);
  expect_read_only_query(w, w.contra_src);
}

TEST(NextHopDecision, HulaRouteQueryLeavesExpiredPinUncounted) {
  World w(Plane::kHula);
  expect_read_only_query(w, w.hula_src);
}

// Failure presumption is query-driven: under tracing, the first query that
// sees a link go silent records the transition. A route query holds a
// QuietScope, so it answers without recording; the next ordinary query
// records the transition at its own time.
TEST(NextHopDecision, QuietFailureQueryRecordsNoTransition) {
  obs::Telemetry telemetry;
  obs::MemoryTraceSink trace;
  telemetry.set_sink(&trace);
  FailureDetector detector(/*silence_threshold_s=*/1e-3, /*num_links=*/4);
  detector.bind_telemetry(&telemetry, /*switch_id=*/0);
  detector.note_probe(2, 0.0);
  EXPECT_FALSE(detector.presumed_failed(2, 0.5e-3));  // healthy first look: nothing to say
  {
    const FailureDetector::QuietScope quiet(detector);
    EXPECT_TRUE(detector.presumed_failed(2, 2e-3));
  }
  EXPECT_TRUE(trace.records().empty());
  EXPECT_EQ(telemetry.metrics().value(telemetry.core().failure_detections), 0u);
  EXPECT_TRUE(detector.presumed_failed(2, 3e-3));
  ASSERT_EQ(trace.records().size(), 1u);
  EXPECT_EQ(trace.records()[0].ev, obs::Ev::kFailureDetect);
  EXPECT_EQ(trace.records()[0].t, 3e-3);
}

// ---- route query == packet path ----------------------------------------------

// Warm-up traffic leaves live pins (flows sending every 50 us), expired pins
// (every 300 us, above the 200 us flowlet timeout) and, after a core cable
// fails, pins over a dead link before and after probe silence presumes it
// failed. At each checkpoint every flow's path is compared switch by switch.
void expect_parity(Plane plane) {
  World w(plane);
  std::vector<Flow> flows;
  for (uint64_t i = 0; i < 16; ++i) {
    const HostId src = w.hosts[i % w.hosts.size()];
    HostId dst = w.hosts[(3 * i + 5) % w.hosts.size()];
    if (dst == src) dst = w.hosts[(i + 1) % w.hosts.size()];
    flows.push_back(w.flow(i, src, dst));
  }
  w.sim.start();
  w.sim.run_until(3e-3);
  for (const Flow& f : flows) {
    const double gap = f.id % 2 == 0 ? 50e-6 : 300e-6;
    uint64_t seq = 1000;
    for (double t = 3e-3 + 7e-6 * f.id; t < 6e-3; t += gap) {
      w.sim.events().schedule_at(t, [&w, &f, seq] { w.inject(f, seq); });
      ++seq;
    }
  }
  w.sim.events().schedule_at(4.2e-3, [&w] {
    w.sim.fail_cable(w.topo.link_between(w.topo.find("a0_0"), w.topo.find("c0")));
  });

  int compared = 0;
  int transit = 0;
  uint64_t seq = 1u << 20;
  for (const double checkpoint : {4.0e-3, 4.35e-3, 4.6e-3, 5.3e-3, 5.95e-3}) {
    w.sim.run_until(checkpoint);
    for (const Flow& f : flows) {
      const int n = w.check_parity(f, seq++, plane);
      compared += n;
      transit += n > 1 ? n - 1 : 0;
    }
  }
  EXPECT_GT(compared, 5 * static_cast<int>(flows.size()));
  EXPECT_GT(transit, 0);
}

TEST(NextHopDecision, ContraRouteQueryMatchesPacketPath) { expect_parity(Plane::kContra); }
TEST(NextHopDecision, HulaRouteQueryMatchesPacketPath) { expect_parity(Plane::kHula); }
TEST(NextHopDecision, EcmpRouteQueryMatchesPacketPath) { expect_parity(Plane::kEcmp); }

// ---- ECMP forwarding does not allocate -----------------------------------------

TEST(NextHopDecision, EcmpForwardingAllocatesNothing) {
  World w(Plane::kEcmp);
  w.sim.start();
  std::vector<Flow> flows;
  for (uint64_t i = 0; i < 8; ++i) {
    flows.push_back(w.flow(i, w.hosts[0], w.hosts[1 + i % (w.hosts.size() - 1)]));
  }
  // Warm-up: link rings and the event heap reach their working size.
  for (int round = 0; round < 4; ++round) {
    for (const Flow& f : flows) w.inject(f, round);
    w.sim.run_until(w.sim.now() + 100e-6);
  }
  const uint64_t forwarded_before = w.ecmp_src->stats().data_forwarded;
  uint64_t allocs = 0;
  for (int round = 4; round < 20; ++round) {
    for (const Flow& f : flows) {
      sim::Packet p = w.packet(f, round);
      const uint64_t before = util::alloc_count();
      w.ecmp_src->handle_packet(w.sim, std::move(p), sim::kFromHost);
      allocs += util::alloc_count() - before;
    }
    w.sim.run_until(w.sim.now() + 100e-6);
  }
  EXPECT_EQ(w.ecmp_src->stats().data_forwarded - forwarded_before, 16u * flows.size());
  EXPECT_EQ(allocs, 0u);
}

// ---- Contra transit forwarding does not allocate --------------------------------

// Stamped data packets enter a transit switch, where exact loop accounting
// records every new packet id. After a warm-up until `warmup_end_s`, long
// enough for the 10 ms loop accounting window to restart and its table to
// reach its working size, forwarding a fresh packet allocates nothing. Each
// transit flow sends one packet every `gap_s`.
void expect_transit_forwarding_allocates_nothing(double gap_s, double warmup_end_s) {
  World w(Plane::kContra);
  w.sim.start();
  w.sim.run_until(3e-3);  // control plane converges
  struct Transit {
    Flow flow;
    sim::RoutingState header;  ///< as e0_0 stamps it
    LinkId in_link = topology::kInvalidLink;
  };
  std::vector<Transit> transits;
  for (uint64_t i = 0; i < 8; ++i) {
    Transit t;
    t.flow = w.flow(i, w.hosts[0], w.hosts[1 + i % (w.hosts.size() - 1)]);
    t.in_link = w.contra_src->fluid_next_hop(w.sim, t.flow.dst_sw, t.flow.tuple, t.header);
    ASSERT_NE(t.in_link, topology::kInvalidLink);
    --t.header.ttl;
    transits.push_back(t);
  }
  auto packet = [&](const Transit& t, uint64_t seq) {
    sim::Packet p = w.packet(t.flow, seq);
    p.routing = t.header;
    return p;
  };
  // Warm-up: flowlets pinned, link rings, event storage and the packet
  // pool at working size, and one loop-accounting window restart.
  uint64_t seq = 0;
  while (w.sim.now() < warmup_end_s) {
    for (const Transit& t : transits) {
      w.sim.device_at(w.topo.link(t.in_link).to).handle_packet(w.sim, packet(t, seq), t.in_link);
    }
    ++seq;
    w.sim.run_until(w.sim.now() + gap_s);
  }
  uint64_t forwarded = 0;
  uint64_t allocs = 0;
  for (int round = 0; round < 16; ++round, ++seq) {
    for (const Transit& t : transits) {
      sim::Device& transit = w.sim.device_at(w.topo.link(t.in_link).to);
      const auto* contra = dynamic_cast<const ContraSwitch*>(&transit);
      ASSERT_NE(contra, nullptr);
      const uint64_t forwarded_before = contra->stats().data_forwarded;
      sim::Packet p = packet(t, seq);
      const uint64_t before = util::alloc_count();
      transit.handle_packet(w.sim, std::move(p), t.in_link);
      allocs += util::alloc_count() - before;
      forwarded += contra->stats().data_forwarded - forwarded_before;
    }
    w.sim.run_until(w.sim.now() + gap_s);
  }
  EXPECT_EQ(forwarded, 16u * transits.size());
  EXPECT_EQ(allocs, 0u);
}

TEST(NextHopDecision, ContraTransitForwardingAllocatesNothing) {
  expect_transit_forwarding_allocates_nothing(100e-6, 15e-3);
}

// Gaps longer than the 200 us flowlet timeout: every packet finds its
// flowlet expired and re-pins it, which must reuse the table's storage. The
// first loop accounting window closes at 10 ms, after only 7 ms of traffic;
// at this sparser rate the second, full window holds more ids than the
// first, so the warm-up runs through it.
TEST(NextHopDecision, ContraTransitForwardingAfterFlowletExpiryAllocatesNothing) {
  expect_transit_forwarding_allocates_nothing(300e-6, 25e-3);
}

}  // namespace
}  // namespace contra::dataplane
