// Device abstraction: anything installed at a topology node that handles
// packets (Contra switches, baseline switches). Devices send through the
// Simulator, which owns the links.
#pragma once

#include "sim/packet.h"
#include "topology/topology.h"

namespace contra::sim {

class Simulator;

/// A pseudo link id meaning "arrived from a locally attached host".
inline constexpr topology::LinkId kFromHost = topology::kInvalidLink;

class Device {
 public:
  virtual ~Device() = default;

  /// Called once when the simulation starts (e.g. to arm probe timers).
  virtual void start(Simulator& sim) { (void)sim; }

  /// A packet fully arrived at this switch. `in_link` is the directed
  /// topology link it came over, or kFromHost for host ingress.
  virtual void handle_packet(Simulator& sim, Packet&& packet, topology::LinkId in_link) = 0;

  /// Port signal: one of this node's attached cables changed administrative
  /// state (`link` is the directed link leaving this node). Fired by
  /// Simulator::fail_cable / restore_cable on both endpoint devices.
  /// Event-driven control planes react immediately (trigger waves, resyncs);
  /// the default is a no-op, matching the probe-silence-only protocols.
  virtual void handle_link_state(Simulator& sim, topology::LinkId link, bool up) {
    (void)sim;
    (void)link;
    (void)up;
  }

  /// Control-plane reboot injected by the churn engine (Simulator::
  /// restart_switch). Devices with soft protocol state model losing it here;
  /// the default is a no-op, matching stateless dataplanes.
  virtual void restart_control_plane() {}

  /// Hybrid engine route query (DESIGN.md §14): the egress link a data packet
  /// of `tuple` bound for `dst_switch` would take right now. Implementations
  /// call the same decide step as packet forwarding, over read-only views of
  /// their pins, so the answer is the packet path's by construction; the
  /// query is const and changes nothing (no pin created, refreshed, expired
  /// or flushed, no counter or trace record). `routing` carries the per-flow
  /// stamp (tag/pid) across hops exactly as a packet header would;
  /// implementations must update it the way forwarding would. Returns
  /// kInvalidLink when this device has no usable route (the fluid flow stalls
  /// and retries next quantum). The default refuses, which disables hybrid
  /// mode for dataplanes without a read-only walk (SPAIN).
  virtual topology::LinkId fluid_next_hop(const Simulator& sim, topology::NodeId dst_switch,
                                          const util::FiveTuple& tuple,
                                          RoutingState& routing) const {
    (void)sim;
    (void)dst_switch;
    (void)tuple;
    (void)routing;
    return topology::kInvalidLink;
  }

  /// Human-readable name for diagnostics.
  virtual const char* kind_name() const = 0;
};

}  // namespace contra::sim
