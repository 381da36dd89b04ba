// Sharded parallel simulation engine (DESIGN.md §8).
//
// The topology is partitioned into shards (topology/partitioner.h); each
// shard owns a full Simulator restricted to its switches and advances on its
// own EventQueue. Shards synchronize with conservative per-channel lookahead
// (CMB/null-message style): the partitioner exposes a safe-horizon matrix
// h[src][dst] = min propagation delay over cut links src->dst, and between
// phases the scheduler computes, for every shard, the earliest time any
// other shard could still reach it — folding in each shard's next pending
// event (a quiescent shard cannot transmit before its next event fires) and
// closing the bound transitively over relay chains (min-plus closure, the
// classical LBTS computation). Each shard then runs to its own safe target:
// shards with no short inbound cut links advance in wide epochs, provably
// idle shards skip the barrier entirely, and a phase that dispatches a
// single shard runs inline on the main thread with no pool wakeup.
//
// Determinism contract (the part worth reading twice):
//   * The execution schedule is a pure function of (topology, shard count,
//     seeds). Phase targets are computed from barrier-time queue state that
//     is itself deterministic, so worker threads only decide *who* executes
//     a shard's deterministic event stream, never *what* is executed — any
//     --workers N, including 1, is bit-identical to any other N.
//   * Ties are processed in (time, shard, sequence) order: each queue breaks
//     time ties by insertion sequence, and drains happen at deterministic
//     phases in fixed source-shard order.
//   * With 1 shard the engine degenerates to exactly the serial Simulator
//     (same id sequences, same insertion order, no barriers) — bit-identical
//     to Simulator::run_until.
//   * With >1 shards, results are deterministic and workers-invariant but
//     not bit-identical to the serial engine (or to a different shard count
//     or epoch schedule): a cross-shard delivery enters the destination
//     queue at a drain rather than at transmit time, so *simultaneous*
//     events can interleave differently (and first-arrival-wins protocol
//     ties, e.g. equal-rank probes, can resolve the other way). Same-time
//     tie order is the only divergence.
//
// SimConfig::global_min_epochs selects the legacy PR-3 schedule (every
// shard steps on a global grid of width = min cut-link delay) for the
// epoch-width regression tests and the bench's barrier-count comparison.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sim/shard.h"
#include "sim/transport.h"
#include "topology/partitioner.h"

namespace contra::obs {
class EngineProfiler;
class FlowTracker;
}

namespace contra::sim {

class ParallelSimulator {
 public:
  /// `config.shards` = 0 picks topology::default_num_shards sized to the
  /// topology and to max(config.workers, hardware_concurrency) — pass an
  /// explicit shard count when the schedule must reproduce across machines.
  /// `config.workers` = 0 runs single-threaded (same schedule regardless).
  ParallelSimulator(const topology::Topology& topo, SimConfig config);
  ~ParallelSimulator();
  ParallelSimulator(const ParallelSimulator&) = delete;
  ParallelSimulator& operator=(const ParallelSimulator&) = delete;

  const topology::Topology& topo() const { return *topo_; }
  const SimConfig& config() const { return config_; }
  const topology::Partition& partition() const { return partition_; }
  uint32_t num_shards() const { return partition_.num_shards; }
  uint32_t num_workers() const { return workers_; }
  /// Legacy global-min lookahead: the width every epoch had before the
  /// per-channel scheduler (+inf when no link crosses the cut). Still the
  /// epoch grid when config().global_min_epochs is set; otherwise a summary
  /// lower bound on per-channel horizons.
  double epoch_width_s() const { return partition_.min_cut_delay_s; }
  /// Synchronization phases completed — one fork-join barrier each. The
  /// per-channel scheduler's whole point is keeping this small relative to
  /// sim-time / epoch_width_s.
  uint64_t epochs_completed() const { return phases_; }
  /// Phases whose dispatch list was a single shard: run inline on the main
  /// thread, no worker wakeup — a "free" barrier.
  uint64_t solo_phases() const { return solo_phases_; }

  Simulator& shard_sim(uint32_t shard) { return shards_[shard]->sim; }
  Shard& shard(uint32_t s) { return *shards_[s]; }
  uint32_t shard_of_node(topology::NodeId node) const { return partition_.shard(node); }

  // ----- setup (main thread, before run_until) -----------------------------

  /// Adds the host on *every* shard (ids and link indices must line up);
  /// only the shard owning `attach` ever carries its traffic.
  HostId add_host(topology::NodeId attach);
  uint32_t num_hosts() const { return shards_[0]->sim.num_hosts(); }
  topology::NodeId host_switch(HostId host) const { return shards_[0]->sim.host_switch(host); }

  /// Runs `fn(Simulator&)` on every shard simulator in shard order — the
  /// hook for install_*_network style setup.
  template <typename Fn>
  void for_each_shard(Fn&& fn) {
    for (auto& shard : shards_) fn(shard->sim);
  }

  /// Arms device timers on every shard.
  void start();

  /// Routes the control-plane trace into `sink` (not owned; nullptr
  /// detaches). Call before start(). With one shard records reach the sink
  /// as they are emitted — merge order is emission order and there are no
  /// barriers, so no `epoch`/`barrier` records either. With more shards each
  /// shard buffers its records plus per-phase `epoch`/`barrier` records, and
  /// flush_trace() writes the merge in (t, shard, emission index) order.
  void set_trace_sink(obs::TraceSink* sink);
  /// Writes any buffered multi-shard records into the sink, then flushes it.
  void flush_trace();

  /// Attaches a wall-clock engine profiler (obs::EngineProfiler built with
  /// num_shards()+1 tracks: one per shard plus the scheduler track). Spans:
  /// per-shard `mailbox_drain` / `phase_run`, scheduler-track `plan` /
  /// `barrier`. Opt-in; one null-check per phase when absent.
  void set_profiler(obs::EngineProfiler* profiler);

  /// Periodic metrics snapshots under the phase scheduler: one merged
  /// snapshot line is written per `interval_s` tick of simulation time, at
  /// the first phase boundary where every shard has committed past the tick
  /// (the engine's natural stop-the-world points — see OBSERVABILITY.md).
  /// The emission schedule depends only on the deterministic phase plan, so
  /// output is workers-invariant. nullptr disables.
  void set_metrics_snapshots(double interval_s, std::ostream* out);

  // ----- failure injection -------------------------------------------------

  /// Immediate fail/restore: the same Simulator call on every shard, so
  /// every replica changes and the shard owning the link's transmit side
  /// reports it, once (Simulator::owns_link).
  void fail_cable(topology::LinkId link);
  void restore_cable(topology::LinkId link);
  /// Pre-run scheduling of a mid-run failure: every shard makes the same
  /// call at local time `t` inside its own epoch. (ChurnEngine::arm drives
  /// richer schedules through the shard simulators the same way.)
  void schedule_cable_event(Time t, topology::LinkId link, bool down);

  // ----- run ---------------------------------------------------------------

  /// Advances every shard to `end` (inclusive, like Simulator::run_until)
  /// through the phase scheduler. Callable repeatedly with growing `end`,
  /// exactly like the serial engine's run windows. With a fluid engine
  /// attached (set_fluid) the window is split at fluid quantum ticks: each
  /// tick runs on the main thread while every shard is parked at exactly the
  /// tick time, so hybrid results are workers-invariant by construction.
  void run_until(Time end);

  /// Attaches the hybrid fluid engine (DESIGN.md §14). ParallelTransport
  /// calls this when TransportConfig::hybrid is set; the engine must outlive
  /// the runs (detach with nullptr before it dies).
  void set_fluid(FluidEngine* fluid) { fluid_ = fluid; }

  Time now() const { return now_; }

  // ----- merged views ------------------------------------------------------

  /// Per-link stats summed over shards (only the owning shard's replica ever
  /// counts, so the sum is exact).
  LinkStats aggregate_fabric_stats() const;
  uint64_t events_processed() const;
  uint64_t events_clamped() const;

  /// Metrics snapshot with per-shard registries folded together (counters
  /// and histograms sum, gauges max).
  std::string merged_metrics_json(double t) const;

 private:
  /// Computes per-shard phase targets (per-channel lookahead or the legacy
  /// grid), fills dispatch_, and idle-skips shards with no work. Returns
  /// false when nothing at or before `end` remains anywhere.
  bool plan_phase(Time end);
  /// One scheduler window: phase loop + quiescent tail, no fluid ticks
  /// (run_until splits windows at fluid wakes and calls this per span).
  void run_span(Time end);
  /// Drain inbound mailboxes + run one shard to its planned target.
  void run_phase_shard(uint32_t s);
  /// Runs the planned dispatch list across the worker pool (or inline when
  /// it is a single shard) and retires the phase.
  void execute_phase();
  void worker_loop(uint32_t worker);
  void wait_done();

  const topology::Topology* topo_;
  SimConfig config_;
  topology::Partition partition_;
  std::vector<std::unique_ptr<Shard>> shards_;

  Time now_ = 0.0;
  FluidEngine* fluid_ = nullptr;  ///< hybrid mode (set_fluid); not owned
  Time next_boundary_ = 0.0;  ///< legacy grid mode: first unreached boundary
  uint64_t phases_ = 0;
  uint64_t solo_phases_ = 0;
  obs::TraceSink* trace_sink_ = nullptr;  ///< see set_trace_sink; not owned
  bool buffer_trace_ = false;  ///< >1 shard: per-shard buffers + epoch/barrier records

  obs::EngineProfiler* profiler_ = nullptr;  ///< opt-in; see set_profiler

  // Periodic merged snapshots (opt-in; see set_metrics_snapshots).
  std::ostream* snapshot_out_ = nullptr;
  double snapshot_interval_s_ = 0.0;
  uint64_t snapshot_tick_ = 1;  ///< next unemitted tick index (t = tick * interval)
  void emit_snapshots_through(Time t);

  // Phase-scheduler scratch (sized once; the steady state allocates nothing).
  std::vector<double> base_;   ///< earliest pending work per shard
  std::vector<double> avail_;  ///< min-plus closure of base_ over the horizon matrix
  std::vector<uint32_t> dispatch_;  ///< shards with real work this phase

  // Worker pool: persistent threads, fork-join per phase via a generation
  // counter (release) and a completion counter (acquire). Bounded spin, then
  // park on the atomic (C++20 wait/notify): epochs are microseconds of work
  // so short spins usually win, but oversubscribed or idle-heavy runs must
  // not burn cores.
  uint32_t workers_ = 1;
  std::vector<std::thread> threads_;
  std::atomic<uint64_t> generation_{0};
  std::atomic<uint32_t> done_{0};
  std::atomic<bool> shutdown_{false};
};

// ----- transport over shards -----------------------------------------------

/// One TransportManager per shard; a flow lives on the shard owning its
/// source host's edge switch (the receiver side materializes on the
/// destination shard on first data arrival, keyed by flow id). Flow ids are
/// namespaced per shard — (shard << 48) + sequence — so shard 0 matches the
/// serial id sequence.
class ParallelTransport {
 public:
  explicit ParallelTransport(ParallelSimulator& psim, TransportConfig config = {});
  ~ParallelTransport();  // out of line: trackers_ holds an incomplete type here

  uint64_t start_flow(HostId src, HostId dst, uint64_t bytes, Time start_time);
  uint64_t start_udp_flow(HostId src, HostId dst, double rate_bps, Time start_time,
                          Time stop_time, uint32_t packet_bytes = 1500);

  /// Completed flows merged over shards, ordered by (end time, flow id) —
  /// deterministic, unlike raw per-shard completion interleaving.
  std::vector<FlowRecord> completed_flows() const;
  std::vector<FlowRecord> all_flows() const;
  uint64_t total_reordered_packets() const;
  uint64_t udp_bytes_received() const;

  const TransportConfig& config() const { return config_; }

  /// Attaches one obs::FlowTracker per shard (and turns on path-signature
  /// stamping in every shard simulator). A flow's sender half lands on its
  /// source shard's tracker and the receiver half on the destination
  /// shard's; merged_flow_tracker() folds them by flow id.
  /// `path_sample_every` > 0 additionally samples 1-in-N data packets with
  /// INT hop records (deterministic in (flow_id, seq)).
  void enable_flow_tracking(uint32_t path_sample_every = 0);
  bool flow_tracking() const { return !trackers_.empty(); }
  obs::FlowTracker merged_flow_tracker() const;

  /// The shared hybrid fluid engine (DESIGN.md §14); nullptr unless
  /// config.hybrid. One engine spans every shard: it is bound to all shard
  /// simulators and ticks on the main thread between phases.
  FluidEngine* fluid_engine() const { return fluid_.get(); }

 private:
  TransportManager& for_host(HostId src);

  ParallelSimulator* psim_;
  TransportConfig config_;
  std::unique_ptr<FluidEngine> fluid_;  ///< created when config.hybrid
  std::vector<std::unique_ptr<TransportManager>> transports_;
  std::vector<std::unique_ptr<obs::FlowTracker>> trackers_;
};

}  // namespace contra::sim
