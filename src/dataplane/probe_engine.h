// Probe timing utilities shared by Contra and HULA switches: the periodic
// probe clock with per-round version numbers (§5.1-5.2) and the
// probe-silence failure detector (§5.4 — a link is declared failed after k
// probe periods with no probe arrivals on it).
#pragma once

#include <cstdint>
#include <vector>

#include "obs/telemetry.h"
#include "sim/event_queue.h"
#include "topology/topology.h"

namespace contra::dataplane {

/// Version counter advanced once per probe round.
class ProbeClock {
 public:
  explicit ProbeClock(double period_s) : period_s_(period_s) {}

  double period_s() const { return period_s_; }
  uint64_t version() const { return version_; }
  uint64_t advance() { return ++version_; }
  /// Control-plane restart: the next round re-announces from version 1, the
  /// regression neighbors must survive (see ContraSwitch version-reset
  /// detection).
  void reset() { version_ = 0; }

 private:
  double period_s_;
  uint64_t version_ = 0;
};

class FailureDetector {
 public:
  /// `silence_threshold_s` — how long without probes before a link is
  /// presumed failed (the paper uses k probe periods, k≈3). `num_links`
  /// pre-sizes the per-link state from the topology so steady-state queries
  /// and probe arrivals never allocate and the footprint is bounded by the
  /// wiring, not by churn history.
  explicit FailureDetector(double silence_threshold_s, size_t num_links = 0)
      : threshold_s_(silence_threshold_s) {
    reserve_links(num_links);
  }

  /// Grows (never shrinks) the tracked-link range; idempotent.
  void reserve_links(size_t num_links) {
    if (num_links > last_probe_.size()) {
      last_probe_.resize(num_links, 0.0);
      presumed_.resize(num_links, kUnknown);
    }
  }

  /// Links the detector holds state for (bounded by the topology once
  /// reserve_links ran; the regression tests pin this).
  size_t tracked_links() const { return last_probe_.size(); }

  /// Drops all state for a link removed from service: its timestamp returns
  /// to the bootstrap-grace default and the tracing transition state is
  /// forgotten, exactly as if the link had never carried a probe.
  void evict(topology::LinkId link) {
    if (link < last_probe_.size()) {
      last_probe_[link] = 0.0;
      presumed_[link] = kUnknown;
    }
  }

  /// Attributes failure_detect/failure_clear events to `switch_id`. The
  /// failed<->alive transition bookkeeping this needs runs only while a
  /// trace sink is attached, so the per-query cost stays a single map read
  /// otherwise.
  void bind_telemetry(obs::Telemetry* telemetry, uint32_t switch_id) {
    telemetry_ = telemetry;
    switch_id_ = switch_id;
  }

  /// A probe arrived over the given directed link (toward this switch).
  /// Out-of-range links (only reachable when reserve_links never ran) grow
  /// the state once; after reservation this is a plain store.
  void note_probe(topology::LinkId in_link, sim::Time now) {
    if (in_link >= last_probe_.size()) reserve_links(in_link + 1);
    last_probe_[in_link] = now;
  }

  /// Port signal: the link went administratively down. Backdates the
  /// last-probe timestamp past the silence threshold so presumed_failed
  /// flips immediately instead of waiting out the threshold — the
  /// triggered-update fast path (DESIGN.md §12). A later note_probe (link
  /// restored, probes flowing) clears it naturally.
  void note_down(topology::LinkId in_link, sim::Time now) {
    if (in_link >= last_probe_.size()) reserve_links(in_link + 1);
    last_probe_[in_link] = now - threshold_s_ * (1.0 + 1e-9) - 1e-12;
  }

  /// Is the link presumed failed? Links that never carried a probe are
  /// treated as alive until `now` exceeds the threshold from time zero
  /// (bootstrap grace). Under tracing, the first query that sees a
  /// transition records it (failure_detect / failure_clear) — unless a
  /// QuietScope is open.
  bool presumed_failed(topology::LinkId in_link, sim::Time now) const {
    const sim::Time last = in_link < last_probe_.size() ? last_probe_[in_link] : 0.0;
    const bool failed = now - last > threshold_s_;
    if (!quiet_ && telemetry_ != nullptr && telemetry_->tracing()) {
      note_state(in_link, failed, now);
    }
    return failed;
  }

  /// Read-only route queries (Device::fluid_next_hop) open one around their
  /// decide step: presumed_failed then answers without recording
  /// transitions, which stay for the next packet or control-plane query to
  /// record at its own time.
  class QuietScope {
   public:
    explicit QuietScope(const FailureDetector& detector) : detector_(detector) {
      detector_.quiet_ = true;
    }
    ~QuietScope() { detector_.quiet_ = false; }

   private:
    const FailureDetector& detector_;
  };

  double threshold_s() const { return threshold_s_; }

 private:
  /// Tracing-only transition states; kUnknown = never queried under tracing.
  static constexpr int8_t kUnknown = -1;
  static constexpr int8_t kAlive = 0;
  static constexpr int8_t kFailed = 1;

  void note_state(topology::LinkId in_link, bool failed, sim::Time now) const {
    if (in_link >= presumed_.size()) return;  // unreserved link: nothing to attribute
    int8_t& state = presumed_[in_link];
    const int8_t next = failed ? kFailed : kAlive;
    if (state == next) return;
    const bool first = state == kUnknown;
    state = next;
    if (first && !failed) return;  // first query saw a healthy link — nothing to report
    telemetry_->metrics().add(failed ? telemetry_->core().failure_detections
                                     : telemetry_->core().failure_clears);
    obs::TraceRecord r;
    r.t = now;
    r.ev = failed ? obs::Ev::kFailureDetect : obs::Ev::kFailureClear;
    r.sw = switch_id_;
    r.link = in_link;
    telemetry_->emit(r);
  }

  double threshold_s_;
  /// Last probe arrival per directed in-link; 0.0 = bootstrap grace.
  std::vector<sim::Time> last_probe_;
  obs::Telemetry* telemetry_ = nullptr;
  uint32_t switch_id_ = obs::kNoField;
  /// Tracing-only failed/alive transition state per in-link.
  mutable std::vector<int8_t> presumed_;
  /// A QuietScope is open.
  mutable bool quiet_ = false;
};

}  // namespace contra::dataplane
