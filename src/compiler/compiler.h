// The Contra compiler: policy + topology -> per-switch programs.
//
// Pipeline (paper §4-§5):
//   1. parse / take a Policy AST;
//   2. decompose into isotonic subpolicies (probe ids);
//   3. monotonicity + isotonicity analyses;
//   4. build + prune + tag-minimize the product graph;
//   5. derive per-switch table contents (tag step, probe multicast) and
//      state accounting;
//   6. recommend protocol parameters (probe period >= 0.5 x max RTT, §5.2).
//
// The in-process dataplane (src/dataplane) executes these artifacts
// directly; src/p4gen renders them as P4-16-style source text.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/decompose.h"
#include "analysis/isotonicity.h"
#include "analysis/monotonicity.h"
#include "compiler/switch_config.h"
#include "lang/ast.h"
#include "pg/policy_eval.h"
#include "pg/product_graph.h"
#include "topology/topology.h"

namespace contra::compiler {

/// Per-switch flowlet table slots (§5.3), as sized by state accounting.
inline constexpr uint32_t kFlowletSlots = 1024;
/// Per-switch loop-detection table slots (§5.5): state accounting sizes the
/// table and the dataplane's LoopDetector allocates it from this one value.
inline constexpr uint32_t kLoopTableSlots = 256;

struct CompileOptions {
  /// Reject non-monotonic policies (the sound default, §5.1). When false the
  /// compiler only warns — useful for experiments that demonstrate why the
  /// check exists.
  bool require_monotonic = true;
};

class CompileError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Everything the runtime needs. Holds a reference to the topology passed to
/// compile(); the topology must outlive the CompileResult.
struct CompileResult {
  analysis::Decomposition decomposition;
  analysis::MonotonicityReport monotonicity;
  analysis::IsotonicityReport isotonicity;
  pg::ProductGraph graph;
  std::vector<SwitchConfig> switches;

  /// Probe period lower bound from the §5.2 rule (0.5 x max switch RTT).
  double min_probe_period_s = 0.0;

  uint32_t num_pids() const {
    return static_cast<uint32_t>(decomposition.subpolicies.size());
  }
  uint32_t tag_bits() const { return graph.tag_bits(); }

  /// Aggregate state across switches (bytes), and the per-switch maximum —
  /// the quantity Fig. 10 plots.
  uint64_t total_state_bytes() const;
  uint64_t max_switch_state_bytes() const;

  std::string summary() const;
};

CompileResult compile(const lang::Policy& policy, const topology::Topology& topo,
                      const CompileOptions& options = {});

/// Convenience: parse and compile in one step.
CompileResult compile(const std::string& policy_text, const topology::Topology& topo,
                      const CompileOptions& options = {});

}  // namespace contra::compiler
