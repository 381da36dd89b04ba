// Policy-aware flowlet switching table (paper §5.3).
//
// Classic flowlet switching keys on the flow hash alone; Contra additionally
// keys on the packet's PG tag and probe id so that a pinned decision can
// never leak traffic across policy constraints (the Fig. 8a violation). The
// same class serves the baselines by leaving tag/pid at 0.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

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

/// Last next hop of recently removed flowlet keys — the window that tells a
/// flowlet switch from a flowlet create. Open addressing with linear probing
/// and backward-shift erase; clear() bumps a generation stamp instead of
/// touching the slots. It grows by doubling to the window's working size and
/// is then reused, so remembering, finding and erasing a key allocate
/// nothing once warm.
class PrevNhopWindow {
 public:
  size_t size() const { return size_; }

  /// Forgets every key in O(1).
  void clear() {
    size_ = 0;
    if (++generation_ == 0) {  // stamp wrapped: old stamps could read as live
      for (Slot& s : slots_) s.generation = 0;
      generation_ = 1;
    }
  }

  /// The next hop remembered for `key`, or nullptr.
  const topology::LinkId* find(const FlowletKey& key) const {
    if (slots_.empty()) return nullptr;
    const Slot& s = slots_[index_of(key)];
    return live(s) ? &s.nhop : nullptr;
  }

  /// Remembers (or overwrites) `key`'s next hop.
  void set(const FlowletKey& key, topology::LinkId nhop) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    Slot& s = slots_[index_of(key)];
    if (!live(s)) ++size_;
    s = Slot{key, nhop, generation_};
  }

  void erase(const FlowletKey& key) {
    if (slots_.empty()) return;
    const size_t mask = slots_.size() - 1;
    size_t hole = index_of(key);
    if (!live(slots_[hole])) return;
    --size_;
    // Backward shift: pull each later key of the probe run into the hole
    // unless its home lies cyclically after the hole, so every key stays
    // reachable from its home without tombstones.
    for (size_t j = (hole + 1) & mask; live(slots_[j]); j = (j + 1) & mask) {
      const size_t home = home_of(slots_[j].key);
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].generation = 0;
  }

 private:
  struct Slot {
    FlowletKey key;
    topology::LinkId nhop = topology::kInvalidLink;
    uint32_t generation = 0;  ///< live iff equal to the window's generation
  };

  bool live(const Slot& s) const { return s.generation == generation_; }
  size_t home_of(const FlowletKey& key) const {
    return util::mix64(FlowletKeyHash{}(key)) & (slots_.size() - 1);
  }
  /// The slot holding `key`, or the empty slot where it belongs.
  size_t index_of(const FlowletKey& key) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = home_of(key);; i = (i + 1) & mask) {
      if (!live(slots_[i]) || slots_[i].key == key) return i;
    }
  }

  void grow() {
    std::vector<Slot> old(slots_.empty() ? 16 : 2 * slots_.size());
    old.swap(slots_);
    for (const Slot& s : old) {
      if (live(s)) slots_[index_of(s.key)] = s;
    }
  }

  std::vector<Slot> slots_;  ///< power-of-two size
  size_t size_ = 0;
  uint32_t generation_ = 1;
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

  /// Live entry for this key, or nullptr (expired entries are vacated and
  /// counted). Does NOT refresh the timestamp — call touch() after use.
  FlowletEntry* lookup(const FlowletKey& key, sim::Time now);

  /// Read-only view for route queries: the entry lookup() would return, or
  /// nullptr, with no side effect — an expired entry is left in place (the
  /// next lookup() still meets, vacates and counts it), and no hit/miss/expiry
  /// is counted or traced.
  const FlowletEntry* peek(const FlowletKey& key, sim::Time now) const;

  /// Pins (or re-pins) a decision; `entry.nhop` must be a real link.
  void pin(const FlowletKey& key, const FlowletEntry& entry, sim::Time now = 0.0);

  /// Refreshes the inter-packet gap timer.
  void touch(const FlowletKey& key, sim::Time now);

  /// Removes a pinned decision (loop breaking, failure expiry).
  void flush(const FlowletKey& key, sim::Time now = 0.0);

  /// Pinned keys (vacated entries excluded).
  size_t size() const { return table_.size() - vacant_; }
  const FlowletStats& stats() const { return stats_; }
  double timeout_s() const { return timeout_s_; }

 private:
  void emit(obs::Ev ev, const FlowletKey& key, topology::LinkId nhop, double t,
            double value = 0.0) const;

  // Expiry and flush vacate an entry instead of erasing it, so a flow
  // resuming after a pause re-pins into its old node: the table allocates
  // only for a key it has never held. A vacated entry's next hop is
  // kInvalidLink, which no pin carries (a flag would grow every node).
  static bool vacant(const FlowletEntry& entry) { return entry.nhop == topology::kInvalidLink; }
  /// Vacates a held entry: remembers its next hop, counts it in vacant_.
  void vacate(const FlowletKey& key, FlowletEntry& entry);

  double timeout_s_;
  std::unordered_map<FlowletKey, FlowletEntry, FlowletKeyHash> table_;
  size_t vacant_ = 0;
  FlowletStats stats_;
  void remember_prev_nhop(const FlowletKey& key, topology::LinkId nhop);

  obs::Telemetry* telemetry_ = nullptr;
  uint32_t switch_id_ = obs::kNoField;
  /// Last next hop a (now removed) key was pinned to — distinguishes a
  /// flowlet *switch* from a flowlet *create*. Maintained whenever entries
  /// are removed (metrics must count switches even without a trace sink) and
  /// bounded by kPrevNhopCap.
  PrevNhopWindow prev_nhop_;
};

}  // namespace contra::dataplane
