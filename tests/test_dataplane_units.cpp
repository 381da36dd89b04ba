// Unit tests for the dataplane building blocks: flowlet table, loop
// detector, probe clock / failure detector, and routing table computation.
#include <gtest/gtest.h>

#include <random>
#include <unordered_map>

#include "dataplane/flowlet_table.h"
#include "dataplane/loop_detector.h"
#include "dataplane/probe_engine.h"
#include "dataplane/routing_tables.h"
#include "topology/abilene.h"
#include "topology/generators.h"

namespace contra::dataplane {
namespace {

TEST(FlowletTable, PinsAndExpires) {
  FlowletTable table(200e-6);
  const FlowletKey key{1, 0, 42};
  EXPECT_EQ(table.lookup(key, 0.0), nullptr);
  table.pin(key, FlowletEntry{7, 3, 0, 0.0});
  FlowletEntry* entry = table.lookup(key, 100e-6);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->nhop, 7u);
  EXPECT_EQ(entry->ntag, 3u);
  // Past the inter-packet gap: the flowlet is over.
  EXPECT_EQ(table.lookup(key, 301e-6), nullptr);
  EXPECT_EQ(table.stats().expirations, 1u);
}

TEST(FlowletTable, ExpiresExactlyAtTimeoutBoundary) {
  // Regression: the expiry comparison is >=, so a gap of exactly the
  // timeout ends the flowlet (the boundary packet must re-rate).
  FlowletTable table(200e-6);
  const FlowletKey key{1, 0, 7};
  table.pin(key, FlowletEntry{3, 0, 0, 0.0});
  EXPECT_EQ(table.lookup(key, 200e-6), nullptr);
  EXPECT_EQ(table.stats().expirations, 1u);
}

TEST(FlowletTable, SwitchIsCountedWithoutTelemetry) {
  // Regression: path switches used to be detected only while a trace sink
  // was attached; the stats counter must work standalone.
  FlowletTable table(200e-6);
  const FlowletKey key{0, 0, 9};
  table.pin(key, FlowletEntry{5, 0, 0, 0.0});
  ASSERT_EQ(table.lookup(key, 300e-6), nullptr);  // expires, remembers nhop 5
  table.pin(key, FlowletEntry{6, 0, 0, 300e-6});  // different next hop
  EXPECT_EQ(table.stats().switches, 1u);
  // Re-pinning the same next hop after a flush is not a switch.
  table.flush(key, 400e-6);
  table.pin(key, FlowletEntry{6, 0, 0, 500e-6});
  EXPECT_EQ(table.stats().switches, 1u);
}

TEST(FlowletTable, PrevNhopWindowIsBounded) {
  FlowletTable table(200e-6);
  for (uint32_t i = 0; i < FlowletTable::kPrevNhopCap + 10; ++i) {
    const FlowletKey key{0, 0, i};
    table.pin(key, FlowletEntry{1, 0, 0, 0.0});
    table.flush(key);
  }
  EXPECT_LE(table.prev_nhop_window_size(), FlowletTable::kPrevNhopCap);
  EXPECT_GE(table.prev_nhop_window_size(), 1u);
}

TEST(FlowletTable, PrevNhopWindowMatchesMapModel) {
  // Random set/erase/find/clear over a small key space (long probe runs,
  // so backward-shift erase moves keys) against std::unordered_map.
  PrevNhopWindow window;
  std::unordered_map<FlowletKey, topology::LinkId, FlowletKeyHash> model;
  std::mt19937 rng(7);
  for (int step = 0; step < 20000; ++step) {
    const FlowletKey key{static_cast<uint32_t>(rng() % 3), 0, static_cast<uint32_t>(rng() % 64)};
    const uint32_t op = rng() % 100;
    if (op < 45) {
      const auto nhop = static_cast<topology::LinkId>(rng() % 16);
      window.set(key, nhop);
      model[key] = nhop;
    } else if (op < 90) {
      window.erase(key);
      model.erase(key);
    } else if (op < 91) {
      window.clear();
      model.clear();
    }
    ASSERT_EQ(window.size(), model.size());
    for (uint32_t fid = 0; fid < 64; fid += 7) {
      const FlowletKey probe{key.tag, 0, fid};
      const topology::LinkId* found = window.find(probe);
      const auto it = model.find(probe);
      ASSERT_EQ(found != nullptr, it != model.end());
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second);
      }
    }
  }
}

TEST(FlowletTable, TouchExtendsLife) {
  FlowletTable table(200e-6);
  const FlowletKey key{0, 0, 1};
  table.pin(key, FlowletEntry{1, 0, 0, 0.0});
  table.touch(key, 150e-6);
  EXPECT_NE(table.lookup(key, 300e-6), nullptr);  // alive thanks to touch
}

TEST(FlowletTable, PolicyAwareKeysAreSeparate) {
  // Same flow hash, different tags: distinct entries (the §5.3 fix).
  FlowletTable table(200e-6);
  table.pin(FlowletKey{1, 0, 99}, FlowletEntry{10, 1, 0, 0.0});
  table.pin(FlowletKey{2, 0, 99}, FlowletEntry{20, 2, 0, 0.0});
  EXPECT_EQ(table.lookup(FlowletKey{1, 0, 99}, 1e-6)->nhop, 10u);
  EXPECT_EQ(table.lookup(FlowletKey{2, 0, 99}, 1e-6)->nhop, 20u);
}

TEST(FlowletTable, FlushRemovesEntry) {
  FlowletTable table(200e-6);
  const FlowletKey key{0, 0, 5};
  table.pin(key, FlowletEntry{1, 0, 0, 0.0});
  table.flush(key);
  EXPECT_EQ(table.lookup(key, 1e-6), nullptr);
  EXPECT_EQ(table.stats().flushes, 1u);
  table.flush(key);  // idempotent
  EXPECT_EQ(table.stats().flushes, 1u);
}

TEST(LoopDetector, TriggersOnTtlSpread) {
  LoopDetector detector(64, 4);
  const uint32_t sig = 0xabcd;
  EXPECT_FALSE(detector.observe(sig, 60));
  EXPECT_FALSE(detector.observe(sig, 58));  // spread 2
  EXPECT_FALSE(detector.observe(sig, 56));  // spread 4 == threshold
  EXPECT_TRUE(detector.observe(sig, 55));   // spread 5 > threshold
  EXPECT_EQ(detector.loops_detected(), 1u);
}

TEST(LoopDetector, StablePathNeverTriggers) {
  LoopDetector detector(64, 4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(detector.observe(0x1111, 60));  // same TTL at this hop
  }
}

TEST(LoopDetector, ResetsAfterDetection) {
  LoopDetector detector(64, 2);
  const uint32_t sig = 7;
  detector.observe(sig, 60);
  EXPECT_TRUE(detector.observe(sig, 50));
  // Fresh accumulation required before the next report.
  EXPECT_FALSE(detector.observe(sig, 50));
  EXPECT_FALSE(detector.observe(sig, 49));
}

TEST(LoopDetector, CollisionsOverwriteLikeHardware) {
  LoopDetector detector(1, 4);  // single slot: every signature collides
  EXPECT_FALSE(detector.observe(1, 60));
  EXPECT_FALSE(detector.observe(2, 10));  // overwrites slot, no false loop
  EXPECT_FALSE(detector.observe(1, 60));
}

TEST(ProbeClock, AdvancesMonotonically) {
  ProbeClock clock(256e-6);
  EXPECT_EQ(clock.version(), 0u);
  EXPECT_EQ(clock.advance(), 1u);
  EXPECT_EQ(clock.advance(), 2u);
  EXPECT_DOUBLE_EQ(clock.period_s(), 256e-6);
}

TEST(FailureDetector, SilenceImpliesFailure) {
  FailureDetector detector(768e-6);  // 3 x 256us
  detector.note_probe(5, 1e-3);
  EXPECT_FALSE(detector.presumed_failed(5, 1.5e-3));
  EXPECT_TRUE(detector.presumed_failed(5, 2e-3));
  detector.note_probe(5, 2e-3);
  EXPECT_FALSE(detector.presumed_failed(5, 2.5e-3));
}

TEST(FailureDetector, UnseenLinksGetBootstrapGrace) {
  FailureDetector detector(768e-6);
  EXPECT_FALSE(detector.presumed_failed(9, 100e-6));
  EXPECT_TRUE(detector.presumed_failed(9, 1e-3));
}

TEST(FailureDetector, StateIsBoundedByReservedTopology) {
  FailureDetector detector(768e-6, /*num_links=*/16);
  EXPECT_EQ(detector.tracked_links(), 16u);
  // Steady-state probe churn on reserved links never grows the state: the
  // footprint is pinned by the wiring, not by traffic history.
  for (int round = 0; round < 1000; ++round) {
    for (topology::LinkId l = 0; l < 16; ++l) detector.note_probe(l, round * 1e-4);
  }
  EXPECT_EQ(detector.tracked_links(), 16u);
  // reserve_links never shrinks and re-reserving is idempotent.
  detector.reserve_links(8);
  EXPECT_EQ(detector.tracked_links(), 16u);
  detector.reserve_links(16);
  EXPECT_EQ(detector.tracked_links(), 16u);
}

TEST(FailureDetector, UnreservedLinkGrowsOnceThenStays) {
  FailureDetector detector(768e-6);
  EXPECT_EQ(detector.tracked_links(), 0u);
  detector.note_probe(9, 1e-3);
  EXPECT_EQ(detector.tracked_links(), 10u);
  detector.note_probe(9, 2e-3);  // repeat arrivals reuse the slot
  detector.note_probe(3, 2e-3);  // lower ids fit in the existing range
  EXPECT_EQ(detector.tracked_links(), 10u);
}

TEST(FailureDetector, EvictRestoresBootstrapGrace) {
  FailureDetector detector(768e-6, /*num_links=*/16);
  detector.note_probe(5, 10e-3);
  EXPECT_FALSE(detector.presumed_failed(5, 10.5e-3));
  detector.evict(5);
  // As if the link never carried a probe: bootstrap grace counts from time
  // zero, which at t=10.5ms has long expired…
  EXPECT_TRUE(detector.presumed_failed(5, 10.5e-3));
  // …while early queries would still be within grace.
  EXPECT_FALSE(detector.presumed_failed(5, 500e-6));
  detector.evict(999);  // out-of-range eviction is a harmless no-op
  EXPECT_EQ(detector.tracked_links(), 16u);
}

TEST(RoutingTables, EcmpFindsAllShortestNextHops) {
  const topology::Topology topo = topology::fat_tree(4);
  const auto table = compute_ecmp_next_hops(topo);
  const topology::NodeId e0 = topo.find("e0_0");
  const topology::NodeId e3 = topo.find("e3_0");
  // Cross-pod: both aggregation uplinks are on shortest paths.
  EXPECT_EQ(table[e0][e3].size(), 2u);
  for (topology::LinkId l : table[e0][e3]) {
    EXPECT_EQ(topo.link(l).from, e0);
    EXPECT_EQ(topology::fat_tree_layer(topo, topo.link(l).to),
              topology::FatTreeLayer::kAgg);
  }
  EXPECT_TRUE(table[e0][e0].empty());
}

TEST(RoutingTables, ShortestNextHopsAreConsistent) {
  const topology::Topology topo = topology::abilene();
  const auto table = compute_shortest_next_hops(topo);
  const auto hops_from = topo.bfs_hops(topo.find("Seattle"));
  // Walking the next hops from any node decreases the distance each step.
  for (topology::NodeId n = 0; n < topo.num_nodes(); ++n) {
    if (n == topo.find("Seattle")) continue;
    const topology::LinkId l = table[n][topo.find("Seattle")];
    ASSERT_NE(l, topology::kInvalidLink);
    EXPECT_EQ(hops_from[topo.link(l).to] + 1, hops_from[n]);
  }
}

TEST(SpainRouting, PathsAreValidAndDiverse) {
  const topology::Topology topo = topology::abilene();
  const SpainRouting routing(topo, 4);
  const topology::NodeId src = topo.find("Seattle");
  const topology::NodeId dst = topo.find("WashingtonDC");
  const uint32_t n = routing.num_paths(src, dst);
  EXPECT_GE(n, 2u);
  for (uint32_t i = 0; i < n; ++i) {
    const auto& path = routing.path(src, dst, i);
    ASSERT_GE(path.size(), 2u);
    EXPECT_EQ(path.front(), src);
    EXPECT_EQ(path.back(), dst);
    for (size_t h = 0; h + 1 < path.size(); ++h) {
      EXPECT_TRUE(topo.adjacent(path[h], path[h + 1]));
    }
  }
  // At least two distinct paths.
  EXPECT_NE(routing.path(src, dst, 0), routing.path(src, dst, 1));
}

TEST(SpainRouting, NextHopWalksThePath) {
  const topology::Topology topo = topology::abilene();
  const SpainRouting routing(topo, 3);
  const topology::NodeId src = topo.find("Seattle");
  const topology::NodeId dst = topo.find("NewYork");
  for (uint32_t pid = 0; pid < routing.num_paths(src, dst); ++pid) {
    topology::NodeId at = src;
    int hops = 0;
    while (at != dst && hops < 20) {
      const topology::LinkId l = routing.next_hop(src, dst, pid, at);
      ASSERT_NE(l, topology::kInvalidLink);
      at = topo.link(l).to;
      ++hops;
    }
    EXPECT_EQ(at, dst);
  }
}

TEST(SpainRouting, OffPathNodeGetsInvalid) {
  const topology::Topology topo = topology::line(4);
  const SpainRouting routing(topo, 2);
  // Node 3 is never on a 0 -> 1 path.
  EXPECT_EQ(routing.next_hop(0, 1, 0, 3), topology::kInvalidLink);
}

}  // namespace
}  // namespace contra::dataplane
