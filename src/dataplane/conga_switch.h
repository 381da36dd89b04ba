// CONGA baseline (Alizadeh et al., SIGCOMM'14), simplified to its essence
// for 2-tier leaf-spine fabrics: distributed, congestion-aware, in-band load
// balancing.
//
//  * Source leaf: per (destination leaf, uplink) congestion table
//    (`congestion_to_leaf`), fed by piggybacked feedback; new flowlets pick
//    the least-congested uplink and the choice is stamped into the packet.
//  * In flight: every switch maxes the packet's metric with its egress
//    link's utilization (the DRE in real CONGA).
//  * Destination leaf: records (src leaf, uplink) -> metric
//    (`congestion_from_leaf`) and opportunistically piggybacks one such
//    observation on reverse-direction packets (round-robin over uplinks).
//
// Like HULA it is a point solution — the paper's motivation for Contra: it
// hard-codes both the topology family and the "least congested path" policy.
#pragma once

#include <unordered_map>
#include <vector>

#include "dataplane/ecmp_switch.h"
#include "dataplane/flowlet_table.h"
#include "sim/node.h"
#include "sim/simulator.h"
#include "topology/generators.h"

namespace contra::dataplane {

/// Congestion entries decay to "unknown" (treated as 0 / most attractive)
/// after this long without refresh.
inline constexpr double kCongaMetricExpiryS = 10e-3;

struct CongaOptions {
  double flowlet_timeout_s = 200e-6;
};

struct CongaStats : DataStats {
  uint64_t feedback_sent = 0;
  uint64_t feedback_received = 0;
};

class CongaSwitch : public sim::Device {
 public:
  CongaSwitch(topology::NodeId self, CongaOptions options);

  void start(sim::Simulator& sim) override;
  void handle_packet(sim::Simulator& sim, sim::Packet&& packet,
                     topology::LinkId in_link) override;
  const char* kind_name() const override { return "conga"; }

  const CongaStats& stats() const { return stats_; }

  /// Congestion-to-leaf estimate for one uplink (tests/diagnostics).
  double congestion_to(topology::NodeId dst_leaf, uint8_t uplink) const;

 private:
  struct MetricCell {
    float value = 0.0f;
    sim::Time updated_at = -1.0;
  };

  void forward_from_leaf(sim::Simulator& sim, sim::Packet&& packet);
  void forward_from_spine(sim::Simulator& sim, sim::Packet&& packet);
  uint8_t pick_uplink(sim::Simulator& sim, topology::NodeId dst_leaf, uint32_t fid,
                      sim::Time now);

  topology::NodeId self_;
  CongaOptions options_;
  topology::FatTreeLayer layer_ = topology::FatTreeLayer::kUnknown;
  std::vector<topology::LinkId> uplinks_;  ///< leaf: sorted uplink ids

  /// dst/src leaf -> per-uplink congestion cells.
  std::unordered_map<topology::NodeId, std::vector<MetricCell>> congestion_to_leaf_;
  std::unordered_map<topology::NodeId, std::vector<MetricCell>> congestion_from_leaf_;
  std::unordered_map<topology::NodeId, uint8_t> feedback_round_robin_;

  FlowletTable flowlets_;
  CongaStats stats_;
  obs::Telemetry* telemetry_ = nullptr;
};

/// Installs CONGA on a leaf-spine fabric (any 2-tier topology whose names
/// resolve to edge/agg layers).
std::vector<CongaSwitch*> install_conga_network(sim::Simulator& sim, CongaOptions options = {});

}  // namespace contra::dataplane
