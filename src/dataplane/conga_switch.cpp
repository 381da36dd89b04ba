#include "dataplane/conga_switch.h"

#include <algorithm>
#include <stdexcept>

#include "util/hash.h"

namespace contra::dataplane {

using sim::Packet;
using sim::PacketKind;
using sim::Simulator;
using topology::FatTreeLayer;
using topology::LinkId;
using topology::NodeId;

CongaSwitch::CongaSwitch(NodeId self, CongaOptions options)
    : self_(self), options_(options), flowlets_(options.flowlet_timeout_s) {}

void CongaSwitch::start(Simulator& sim) {
  telemetry_ = &sim.telemetry();
  flowlets_.bind_telemetry(telemetry_, self_);
  layer_ = topology::fat_tree_layer(sim.topo(), self_);
  if (layer_ != FatTreeLayer::kEdge && layer_ != FatTreeLayer::kAgg) {
    throw std::invalid_argument("CONGA requires a leaf-spine fabric (node " +
                                sim.topo().name(self_) + ")");
  }
  if (layer_ == FatTreeLayer::kEdge) {
    uplinks_ = sim.topo().out_links(self_);
    std::sort(uplinks_.begin(), uplinks_.end());
  }
}

double CongaSwitch::congestion_to(NodeId dst_leaf, uint8_t uplink) const {
  auto it = congestion_to_leaf_.find(dst_leaf);
  if (it == congestion_to_leaf_.end() || uplink >= it->second.size()) return 0.0;
  return it->second[uplink].value;
}

uint8_t CongaSwitch::pick_uplink(Simulator& sim, NodeId dst_leaf, uint32_t fid,
                                 sim::Time now) {
  auto& cells = congestion_to_leaf_[dst_leaf];
  cells.resize(uplinks_.size());
  auto metric_of = [&](uint8_t u) {
    // Remote (fed-back) path congestion, max-combined with the local uplink
    // DRE; expired/unseen remote cells read as 0 — optimistically explorable.
    const bool fresh =
        cells[u].updated_at >= 0 && now - cells[u].updated_at <= kCongaMetricExpiryS;
    const double remote = fresh ? cells[u].value : 0.0;
    return std::max(remote, sim.link(uplinks_[u]).utilization());
  };
  // Hash seed keeps ties spread across uplinks; strict improvement replaces.
  uint8_t best = static_cast<uint8_t>(fid % uplinks_.size());
  double best_metric = metric_of(best);
  for (uint8_t u = 0; u < uplinks_.size(); ++u) {
    const double metric = metric_of(u);
    if (metric < best_metric - 1e-9) {
      best_metric = metric;
      best = u;
    }
  }
  return best;
}

void CongaSwitch::handle_packet(Simulator& sim, Packet&& packet, LinkId in_link) {
  (void)in_link;
  if (telemetry_ == nullptr) {
    telemetry_ = &sim.telemetry();
    flowlets_.bind_telemetry(telemetry_, self_);
  }
  if (packet.kind == PacketKind::kProbe) return;  // CONGA has no probes
  if (layer_ == FatTreeLayer::kEdge) {
    forward_from_leaf(sim, std::move(packet));
  } else {
    forward_from_spine(sim, std::move(packet));
  }
}

void CongaSwitch::forward_from_leaf(Simulator& sim, Packet&& packet) {
  const sim::Time now = sim.now();

  // Ingest piggybacked state from arriving fabric packets.
  if (packet.conga) {
    const sim::CongaFields& conga = *packet.conga;
    if (packet.dst_switch == self_ && conga.src_leaf != topology::kInvalidNode) {
      // Destination leaf: record the forward path's congestion.
      auto& cells = congestion_from_leaf_[conga.src_leaf];
      if (cells.size() <= conga.uplink) cells.resize(conga.uplink + 1);
      cells[conga.uplink] = MetricCell{conga.metric, now};
      if (conga.has_feedback) {
        // Feedback about OUR traffic toward conga.src_leaf.
        auto& to_cells = congestion_to_leaf_[conga.src_leaf];
        if (to_cells.size() <= conga.fb_uplink) to_cells.resize(conga.fb_uplink + 1);
        to_cells[conga.fb_uplink] = MetricCell{conga.fb_metric, now};
        ++stats_.feedback_received;
        telemetry_->metrics().add(telemetry_->core().conga_feedback_received);
      }
    }
  }

  if (packet.dst_switch == self_) {
    deliver_to_host(sim, stats_, std::move(packet));
    return;
  }

  // Source leaf: flowlet-pinned least-congested uplink.
  const uint32_t fid = util::hash_five_tuple(packet.tuple);
  const FlowletKey fkey{0, 0, fid};
  uint8_t uplink;
  FlowletEntry* pinned = flowlets_.lookup(fkey, now);
  if (pinned != nullptr && !sim.link(pinned->nhop).down()) {
    uplink = static_cast<uint8_t>(pinned->ntag);  // ntag reused as uplink idx
    flowlets_.touch(fkey, now);
  } else {
    uplink = pick_uplink(sim, packet.dst_switch, fid, now);
    flowlets_.pin(fkey, FlowletEntry{uplinks_[uplink], uplink, 0, now}, now);
  }
  if (uplink >= uplinks_.size()) uplink = 0;
  const LinkId out = uplinks_[uplink];

  // Stamp forward state + opportunistic feedback about the reverse leaf.
  sim::CongaFields conga;
  conga.src_leaf = self_;
  conga.uplink = uplink;
  conga.metric = static_cast<float>(sim.link(out).utilization());
  auto from_it = congestion_from_leaf_.find(packet.dst_switch);
  if (from_it != congestion_from_leaf_.end() && !from_it->second.empty()) {
    uint8_t& rr = feedback_round_robin_[packet.dst_switch];
    rr = static_cast<uint8_t>((rr + 1) % from_it->second.size());
    const MetricCell& cell = from_it->second[rr];
    if (cell.updated_at >= 0) {
      conga.has_feedback = true;
      conga.fb_uplink = rr;
      conga.fb_metric = cell.value;
      ++stats_.feedback_sent;
      telemetry_->metrics().add(telemetry_->core().conga_feedback_sent);
    }
  }
  packet.conga = conga;
  forward_data_packet(sim, stats_, out, std::move(packet));
}

void CongaSwitch::forward_from_spine(Simulator& sim, Packet&& packet) {
  const LinkId down = sim.topo().link_between(self_, packet.dst_switch);
  if (down != topology::kInvalidLink && packet.conga) {
    packet.conga->metric =
        std::max(packet.conga->metric, static_cast<float>(sim.link(down).utilization()));
  }
  forward_data_packet(sim, stats_, down, std::move(packet));
}

std::vector<CongaSwitch*> install_conga_network(sim::Simulator& sim, CongaOptions options) {
  return install_switches(sim, [&](NodeId n) { return std::make_unique<CongaSwitch>(n, options); });
}

}  // namespace contra::dataplane
