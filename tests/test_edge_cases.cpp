// Assorted edge-case coverage across modules: invalid tag transitions,
// single-node compilations, rank corner semantics, link behaviour during
// administrative down, and classified P4 generation.
#include <gtest/gtest.h>

#include "compiler/classified.h"
#include "compiler/compiler.h"
#include "lang/parser.h"
#include "lang/policies.h"
#include "p4gen/p4gen.h"
#include "pg/product_graph.h"
#include "sim/simulator.h"
#include "topology/generators.h"
#include "topology/zoo.h"
#include "util/small_vector.h"

namespace contra {
namespace {

TEST(EdgeCases, NextTagInvalidForOutOfRangeTag) {
  const topology::Topology topo = topology::ring(4);
  const auto compiled = compiler::compile(lang::policies::min_util(), topo);
  EXPECT_EQ(compiled.graph.next_tag(9999, 0), pg::kInvalidTag);
}

TEST(EdgeCases, TwoNodeTopologyCompiles) {
  const topology::Topology topo = topology::line(2);
  const auto compiled = compiler::compile(lang::policies::min_util(), topo);
  EXPECT_EQ(compiled.graph.num_nodes(), 2u);
  EXPECT_EQ(compiled.switches.size(), 2u);
  EXPECT_TRUE(compiled.switches[0].is_destination);
}

TEST(EdgeCases, PolicyNamingUnknownSwitchCompilesToNoRoutes) {
  // A waypoint that does not exist in the topology: no path can match, so
  // no destination is valid and no probes originate.
  const topology::Topology topo = topology::ring(4);
  const auto compiled =
      compiler::compile("minimize(if .* GHOST .* then path.util else inf)", topo);
  for (const auto& cfg : compiled.switches) {
    EXPECT_FALSE(cfg.is_destination) << cfg.name;
  }
}

TEST(EdgeCases, RegexOnlyPolicyOverDenseGraphKeepsTagsSmall) {
  const topology::Topology topo = topology::leaf_spine(4, 4);
  const auto compiled =
      compiler::compile("minimize(if .* spine0 .* then path.util else inf)", topo);
  EXPECT_LE(compiled.graph.num_tags(), 3u);
  EXPECT_LE(compiled.tag_bits(), 2u);
}

TEST(EdgeCases, RankSelfComparisonAndNegatives) {
  const lang::Rank negative = lang::Rank::scalar(-1.5);
  EXPECT_EQ(negative, negative);
  EXPECT_LT(negative, lang::Rank::scalar(0.0));
  const lang::Rank empty = lang::Rank::vector({});
  EXPECT_EQ(empty, lang::Rank::scalar(0.0));  // zero-padded comparison
}

TEST(EdgeCases, SmallVectorAppendsEmptyNullRange) {
  // Rank::vector({}) appends the empty range of an empty initializer list,
  // which may be (nullptr, nullptr); memcpy must not see a null source.
  util::SmallVector<double, 4> v;
  v.append(nullptr, nullptr);
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(v.is_inline());
  v.push_back(2.5);
  v.append(nullptr, nullptr);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 2.5);
}

TEST(EdgeCases, MaxRttOnSingleNode) {
  topology::Topology topo;
  topo.add_node("only");
  EXPECT_DOUBLE_EQ(topo.max_rtt_s(), 0.0);
  EXPECT_TRUE(topo.connected());
  EXPECT_EQ(topo.diameter(), 0u);
}

TEST(EdgeCases, LinkGoesDownMidTransmission) {
  sim::EventQueue events;
  sim::Link link(events, 1e9, 1e-6, 1 << 20, 1e-3);
  int delivered = 0;
  link.set_deliver([&](sim::Packet&&) { ++delivered; });
  sim::Packet p;
  p.size_bytes = 1500;
  link.enqueue(std::move(p));
  // Down before the 12us serialization finishes: the packet is lost.
  events.schedule_at(5e-6, [&] { link.set_down(true); });
  events.run_until(1e-3);
  EXPECT_EQ(delivered, 0);
}

TEST(EdgeCases, ClassifiedP4GenerationPerClass) {
  const topology::Topology topo = topology::running_example();
  const auto compiled = compiler::compile_classified(R"(
    class proto == udp : minimize(path.lat)
    class * : minimize(path.util)
  )", topo);
  // Each class renders its own program set with its own metric fields.
  const std::string p4_lat = p4gen::generate_common_headers(compiled.classes[0]);
  const std::string p4_util = p4gen::generate_common_headers(compiled.classes[1]);
  EXPECT_NE(p4_lat.find("mv_lat"), std::string::npos);
  EXPECT_EQ(p4_lat.find("mv_util"), std::string::npos);
  EXPECT_NE(p4_util.find("mv_util"), std::string::npos);
  EXPECT_EQ(p4_util.find("mv_lat"), std::string::npos);
}

TEST(EdgeCases, ZooTopologiesSatisfyProbePeriodRule) {
  // The §5.2 rule must produce sane bounds on real WAN delays.
  EXPECT_GT(compiler::compile(lang::policies::min_util(), topology::geant())
                .min_probe_period_s,
            1e-3);  // continental RTTs: milliseconds
  EXPECT_GT(compiler::compile(lang::policies::min_util(), topology::b4())
                .min_probe_period_s,
            20e-3);  // intercontinental
}

TEST(EdgeCases, CompileIsDeterministic) {
  const topology::Topology topo = topology::fat_tree(4);
  const auto a = compiler::compile(lang::policies::congestion_aware(), topo);
  const auto b = compiler::compile(lang::policies::congestion_aware(), topo);
  EXPECT_EQ(a.graph.num_tags(), b.graph.num_tags());
  EXPECT_EQ(a.graph.num_nodes(), b.graph.num_nodes());
  EXPECT_EQ(a.graph.num_edges(), b.graph.num_edges());
  EXPECT_EQ(a.max_switch_state_bytes(), b.max_switch_state_bytes());
  EXPECT_EQ(p4gen::generate_all(a), p4gen::generate_all(b));
}

TEST(EdgeCases, DisconnectedTopologyHasNoCrossRoutes) {
  topology::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  const auto c = topo.add_node("c");
  const auto d = topo.add_node("d");
  topo.add_link(a, b, 1e9, 1e-6);
  topo.add_link(c, d, 1e9, 1e-6);
  EXPECT_FALSE(topo.connected());
  const auto compiled = compiler::compile(lang::policies::min_util(), topo);
  // Both components compile; BFS confirms no cross reachability.
  EXPECT_EQ(topo.bfs_hops(a)[c], UINT32_MAX);
  EXPECT_GT(compiled.graph.num_edges(), 0u);
}

}  // namespace
}  // namespace contra
