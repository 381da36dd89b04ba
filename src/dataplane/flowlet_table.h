// Policy-aware flowlet switching table (paper §5.3).
//
// Classic flowlet switching keys on the flow hash alone; Contra additionally
// keys on the packet's PG tag and probe id so that a pinned decision can
// never leak traffic across policy constraints (the Fig. 8a violation). The
// same class serves the baselines by leaving tag/pid at 0.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "obs/telemetry.h"
#include "sim/event_queue.h"
#include "topology/topology.h"
#include "util/hash.h"

namespace contra::dataplane {

struct FlowletKey {
  uint32_t tag = 0;
  uint32_t pid = 0;
  uint32_t fid = 0;  ///< five-tuple hash

  friend bool operator==(const FlowletKey&, const FlowletKey&) = default;
};

struct FlowletKeyHash {
  size_t operator()(const FlowletKey& k) const {
    uint64_t h = util::hash_combine(k.tag, k.pid);
    return static_cast<size_t>(util::hash_combine(h, k.fid));
  }
};

struct FlowletEntry {
  topology::LinkId nhop = topology::kInvalidLink;
  uint32_t ntag = 0;
  uint32_t npid = 0;
  sim::Time last_seen = 0.0;
};

/// Output of a flowlet-switching dataplane's decide step — the pure function
/// that both packet forwarding and the hybrid engine's route query call. The
/// caller applies the side effects: flush a stale pin, drop on no route,
/// touch a followed pin or pin a fresh table decision.
struct HopDecision {
  topology::LinkId nhop = topology::kInvalidLink;  ///< kInvalidLink = no route
  uint32_t ntag = 0;
  /// The decision follows the flowlet pin (else the routing table).
  bool from_pin = false;
  /// The pin must be flushed: its next hop is presumed failed, or it breaks
  /// a policy transition.
  bool stale_pin = false;
};

struct FlowletStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t expirations = 0;
  uint64_t flushes = 0;
  /// Re-pins of a previously expired/flushed key onto a different next hop
  /// (a path switch). Counted whether or not telemetry is attached.
  uint64_t switches = 0;
};

class FlowletTable {
 public:
  explicit FlowletTable(double timeout_s) : timeout_s_(timeout_s) {}

  /// Attributes flowlet create/switch/expire/flush events to `switch_id`.
  void bind_telemetry(obs::Telemetry* telemetry, uint32_t switch_id) {
    telemetry_ = telemetry;
    switch_id_ = switch_id;
  }

  /// Bound on the path-switch tombstone map: keys that expired but were
  /// never re-pinned would otherwise accumulate forever, so reaching the cap
  /// restarts the window (losing only switch-vs-create attribution for the
  /// dropped tombstones, never correctness).
  static constexpr size_t kPrevNhopCap = 1u << 12;
  size_t prev_nhop_window_size() const { return prev_nhop_.size(); }

  /// Whether a pin last seen at `last_seen` is still live at `now`. A gap of
  /// exactly the timeout expires it: the §5.2 failover story needs the
  /// boundary packet to re-rate, so the expiry test is >= (not >). Source-
  /// side (tag, pid) pins follow the same rule.
  bool live(sim::Time last_seen, sim::Time now) const { return now - last_seen < timeout_s_; }

  /// Live entry for this key, or nullptr (expired entries are erased and
  /// counted). Does NOT refresh the timestamp — call touch() after use.
  FlowletEntry* lookup(const FlowletKey& key, sim::Time now);

  /// Read-only view for route queries: the entry lookup() would return, or
  /// nullptr, with no side effect — an expired entry is left in place (the
  /// next lookup() still meets, erases and counts it), and no hit/miss/expiry
  /// is counted or traced.
  const FlowletEntry* peek(const FlowletKey& key, sim::Time now) const;

  /// Pins (or re-pins) a decision.
  void pin(const FlowletKey& key, const FlowletEntry& entry, sim::Time now = 0.0);

  /// Refreshes the inter-packet gap timer.
  void touch(const FlowletKey& key, sim::Time now);

  /// Removes a pinned decision (loop breaking, failure expiry).
  void flush(const FlowletKey& key, sim::Time now = 0.0);

  size_t size() const { return table_.size(); }
  const FlowletStats& stats() const { return stats_; }
  double timeout_s() const { return timeout_s_; }

 private:
  void emit(obs::Ev ev, const FlowletKey& key, topology::LinkId nhop, double t,
            double value = 0.0) const;

  double timeout_s_;
  std::unordered_map<FlowletKey, FlowletEntry, FlowletKeyHash> table_;
  FlowletStats stats_;
  void remember_prev_nhop(const FlowletKey& key, topology::LinkId nhop);

  obs::Telemetry* telemetry_ = nullptr;
  uint32_t switch_id_ = obs::kNoField;
  /// Last next hop a (now removed) key was pinned to — distinguishes a
  /// flowlet *switch* from a flowlet *create*. Maintained whenever entries
  /// are removed (metrics must count switches even without a trace sink) and
  /// bounded by kPrevNhopCap.
  std::unordered_map<FlowletKey, topology::LinkId, FlowletKeyHash> prev_nhop_;
};

}  // namespace contra::dataplane
