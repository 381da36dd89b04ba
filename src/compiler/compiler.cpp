#include "compiler/compiler.h"

#include <algorithm>
#include <sstream>

#include "compiler/state_accounting.h"
#include "lang/parser.h"
#include "lang/printer.h"
#include "util/logging.h"

namespace contra::compiler {

CompileResult compile(const lang::Policy& policy, const topology::Topology& topo,
                      const CompileOptions& options) {
  if (topo.num_nodes() == 0) throw CompileError("cannot compile against an empty topology");

  CompileResult result{
      .decomposition = analysis::decompose(policy),
      .monotonicity = {},
      .isotonicity = {},
      .graph = {},
      .switches = {},
      .min_probe_period_s = 0.0,
  };

  result.monotonicity = analysis::check_monotonicity(result.decomposition);
  if (!result.monotonicity.monotonic) {
    if (options.require_monotonic) {
      throw CompileError("policy is not monotonic: " + result.monotonicity.to_string() +
                         " — probe propagation could loop (see §5.1); set "
                         "require_monotonic=false to compile anyway");
    }
    LOG_WARN("compiler") << "compiling non-monotonic policy: "
                         << result.monotonicity.to_string();
  }
  result.isotonicity = analysis::check_isotonicity(result.decomposition);

  result.graph = pg::ProductGraph::build(topo, result.decomposition);
  result.min_probe_period_s = 0.5 * topo.max_rtt_s();

  // Per-switch table contents.
  result.switches.resize(topo.num_nodes());
  const uint32_t num_tags = result.graph.num_tags();
  for (topology::NodeId node = 0; node < topo.num_nodes(); ++node) {
    SwitchConfig& cfg = result.switches[node];
    cfg.node = node;
    cfg.name = topo.name(node);

    for (uint32_t pg_node : result.graph.nodes_at(node)) {
      cfg.local_tags.push_back(result.graph.node_tag(pg_node));
      for (const pg::PgEdge& e : result.graph.out_edges(pg_node)) {
        cfg.multicast.push_back(
            ProbeMulticastEntry{result.graph.node_tag(pg_node), e.link, e.to_tag});
      }
    }
    for (uint32_t in_tag = 0; in_tag < num_tags; ++in_tag) {
      const uint32_t local = result.graph.next_tag(in_tag, node);
      if (local != pg::kInvalidTag) cfg.tag_step.push_back(TagStepEntry{in_tag, local});
    }
    const uint32_t origin = result.graph.origin_tag(node);
    cfg.is_destination = origin != pg::kInvalidTag;
    cfg.origin_tag = cfg.is_destination ? origin : 0;
  }

  // Dense FwdT addressing needs the full destination set, so it runs as a
  // second pass. NodeId-ascending collection keeps slot order deterministic.
  std::vector<topology::NodeId> destinations;
  for (const SwitchConfig& cfg : result.switches) {
    if (cfg.is_destination) destinations.push_back(cfg.node);
  }
  const auto num_pids = static_cast<uint32_t>(result.num_pids());
  for (SwitchConfig& cfg : result.switches) {
    cfg.dense =
        build_dense_index(cfg.local_tags, num_tags, destinations, topo.num_nodes(), num_pids);
  }

  account_state(result);
  LOG_INFO("compiler") << "compiled policy " << lang::to_string(policy) << ": "
                       << result.summary();
  return result;
}

CompileResult compile(const std::string& policy_text, const topology::Topology& topo,
                      const CompileOptions& options) {
  return compile(lang::parse_policy(policy_text), topo, options);
}

uint64_t CompileResult::total_state_bytes() const {
  uint64_t total = 0;
  for (const SwitchConfig& cfg : switches) total += cfg.footprint.total_bytes();
  return total;
}

uint64_t CompileResult::max_switch_state_bytes() const {
  uint64_t best = 0;
  for (const SwitchConfig& cfg : switches) {
    best = std::max(best, cfg.footprint.total_bytes());
  }
  return best;
}

std::string CompileResult::summary() const {
  std::ostringstream out;
  out << decomposition.subpolicies.size() << " pid(s), " << graph.num_tags() << " tag(s) ("
      << tag_bits() << " bits), " << graph.num_nodes() << " PG nodes, " << graph.num_edges()
      << " PG edges, " << isotonicity.to_string() << ", "
      << (monotonicity.monotonic
              ? (monotonicity.strictly_monotonic ? "strictly monotonic" : "monotonic")
              : "NON-monotonic")
      << ", max switch state "
      << max_switch_state_bytes() / 1024.0 << " kB";
  return out.str();
}

}  // namespace contra::compiler
