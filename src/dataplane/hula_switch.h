// HULA baseline (Katta et al., SOSR'16): utilization-aware load balancing
// specialized to multi-rooted tree (fat-tree) topologies. ToR switches
// originate probes that traverse up-down paths only; every switch keeps one
// best-hop entry per destination ToR; data uses flowlet switching onto the
// current best hop.
//
// The specialization to trees is exactly what the paper contrasts Contra
// against: HULA needs no tags, no product graph, and fewer probes — but it
// cannot run on arbitrary topologies or express other policies.
#pragma once

#include <unordered_map>
#include <vector>

#include "dataplane/ecmp_switch.h"
#include "dataplane/flowlet_table.h"
#include "dataplane/probe_engine.h"
#include "sim/node.h"
#include "sim/simulator.h"
#include "topology/generators.h"

namespace contra::dataplane {

struct HulaOptions {
  double probe_period_s = 256e-6;
  double flowlet_timeout_s = 200e-6;
  double failure_detect_periods = 3.0;
  double metric_expiry_periods = 12.0;
  uint32_t probe_bytes = 64;

  /// Triggered-update mode (DESIGN.md §12, HULA flavor): a ToR emits a probe
  /// round only on keepalive rounds, when a local cable changed state, or
  /// when the quantized utilization of one of its links drifted. Origination
  /// is already rate-limited to one round per period, which doubles as the
  /// hold-down. Staleness/failure windows scale by keepalive_rounds.
  bool triggered_updates = false;
  uint32_t keepalive_rounds = 32;
  /// Quantization step for the drift detector (the register granularity the
  /// Contra plane uses for the same purpose).
  double util_quantum = 1.0 / 64;
};

struct HulaStats : BaselineStats {
  uint64_t probes_originated = 0;
  uint64_t probes_received = 0;
  uint64_t probes_propagated = 0;
  uint64_t probes_triggered = 0;   ///< non-keepalive rounds emitted on drift/link events
  uint64_t keepalive_probes = 0;   ///< probes received on keepalive rounds
};

class HulaSwitch : public sim::Device {
 public:
  HulaSwitch(topology::NodeId self, HulaOptions options);

  void start(sim::Simulator& sim) override;
  void handle_packet(sim::Simulator& sim, sim::Packet&& packet,
                     topology::LinkId in_link) override;
  /// Port signal (triggered mode only): instant failure presumption on
  /// down; ToRs queue an immediate re-origination either way.
  void handle_link_state(sim::Simulator& sim, topology::LinkId link, bool up) override;
  /// Hybrid engine route query: forward_data's decide step over a read-only
  /// view of the flowlets (FlowletTable::peek) — never pins, touches,
  /// flushes, or counts.
  topology::LinkId fluid_next_hop(const sim::Simulator& sim, topology::NodeId dst_switch,
                                  const util::FiveTuple& tuple,
                                  sim::RoutingState& routing) const override;
  const char* kind_name() const override { return "hula"; }

  const HulaStats& stats() const { return stats_; }
  const FlowletStats& flowlet_stats() const { return flowlets_.stats(); }

  struct BestHop {
    topology::LinkId nhop = topology::kInvalidLink;
    double util = 0.0;
    uint64_t version = 0;
    sim::Time updated_at = 0.0;
  };
  /// Best-hop entry toward a destination ToR, or nullptr.
  const BestHop* best_hop(topology::NodeId dst_tor) const;

 private:
  void originate_probes(sim::Simulator& sim);
  void process_probe(sim::Simulator& sim, sim::Packet&& packet, topology::LinkId in_link);
  /// The apply step of data forwarding: decide, then the flowlet
  /// lookup/touch/pin/flush, stats, telemetry and TTL.
  void forward_data(sim::Simulator& sim, sim::Packet&& packet, topology::LinkId in_link);
  /// The decide step, shared with fluid_next_hop: follow the flowlet pin
  /// `pinned` (nullptr = none) unless its next hop is presumed failed (then
  /// it is stale), else the usable best hop toward `dst`.
  HopDecision decide(const topology::Topology& topo, const FlowletEntry* pinned,
                     topology::NodeId dst, sim::Time now) const;
  bool entry_usable(const BestHop& entry, sim::Time now) const;
  void bind_telemetry(sim::Simulator& sim);

  /// Probe periods a protocol timing window spans (×keepalive cadence in
  /// triggered mode — silence between keepalives is healthy).
  double window_scale() const {
    return options_.triggered_updates && options_.keepalive_rounds > 1
               ? static_cast<double>(options_.keepalive_rounds)
               : 1.0;
  }
  bool keepalive_version(uint64_t version) const {
    return options_.keepalive_rounds <= 1 || version % options_.keepalive_rounds == 1;
  }

  topology::NodeId self_;
  HulaOptions options_;
  topology::FatTreeLayer layer_ = topology::FatTreeLayer::kUnknown;
  /// Triggered mode: last quantized utilization seen per out-link (drift
  /// detector) and the port-signal re-origination flag.
  std::vector<double> link_util_adv_;
  bool pending_trigger_ = false;

  std::unordered_map<topology::NodeId, BestHop> best_;
  FlowletTable flowlets_;
  ProbeClock probe_clock_;
  FailureDetector failure_detector_;
  HulaStats stats_;
  obs::Telemetry* telemetry_ = nullptr;
};

/// Installs HULA on a fat-tree (throws std::invalid_argument elsewhere).
std::vector<HulaSwitch*> install_hula_network(sim::Simulator& sim, HulaOptions options = {});

}  // namespace contra::dataplane
