// contrasim — run a performance-aware-routing experiment from the command
// line: pick a topology, a dataplane (contra / ecmp / hula / spain / sp), a
// workload, and get FCT + overhead numbers.
//
//   contrasim --builtin fat-tree:4 --plane contra
//             --policy "minimize((path.len, path.util))"
//             --workload web-search --load 0.6 --duration-ms 30 --seed 1
//
// Hosts attach to fat-tree edge switches / leaf-spine leaves automatically;
// on arbitrary topologies one host attaches to every switch.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "cli_common.h"
#include "compiler/compiler.h"
#include "dataplane/contra_switch.h"
#include "dataplane/ecmp_switch.h"
#include "dataplane/hula_switch.h"
#include "dataplane/spain_switch.h"
#include "dataplane/static_switch.h"
#include "lang/parser.h"
#include "metrics/counters.h"
#include "metrics/fct.h"
#include "obs/convergence.h"
#include "obs/flow_tracker.h"
#include "obs/link_timeline.h"
#include "obs/manifest.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "oracle/audit.h"
#include "sim/churn_engine.h"
#include "sim/fluid.h"
#include "sim/host.h"
#include "sim/parallel_simulator.h"
#include "sim/transport.h"
#include "util/logging.h"
#include "util/strings.h"
#include "workload/generator.h"

using namespace contra;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--topo-file <file> | --builtin <spec>]\n"
               "          (--topo-file reads edge lists and Topology Zoo GraphML --\n"
               "           format is sniffed; GraphML geo-coordinates set link delays)\n"
               "          --plane contra|ecmp|hula|spain|sp\n"
               "          [--policy \"minimize(...)\"]   (contra only; default MU)\n"
               "          [--workload web-search|cache] [--load 0.5]\n"
               "          [--duration-ms 30] [--seed 1] [--size-scale 0.1]\n"
               "          [--link-gbps 10] [--probe-period-us 256]\n"
               "          [--triggered]                 (event-driven control plane: probes only\n"
               "                                         on change + keepalive backstop; see\n"
               "                                         DESIGN.md s12)\n"
               "          [--keepalive-rounds <k>]      (triggered keepalive cadence; default 32\n"
               "                                         periods between full refresh floods)\n"
               "          [--holddown-periods <p>]      (triggered per-(switch,dst) hold-down\n"
               "                                         window in probe periods; default 4)\n"
               "          [--util-quantum <q>]          (advertised-utilization bucket size;\n"
               "                                         default 1/64 -- coarser buckets damp\n"
               "                                         util-drift trigger waves at scale)\n"
               "          [--hybrid]                    (hybrid flow-level engine, DESIGN.md s14:\n"
               "                                         bulk flows advance as fluid max-min\n"
               "                                         rates; probes/flowlets/sampled flows\n"
               "                                         stay packet-level)\n"
               "          [--hybrid-sample-n <n>]       (1-in-n flows stay packet-level under\n"
               "                                         --hybrid; default 64, 0 = none)\n"
               "          [--fluid-quantum-us <t>]      (rate-recomputation quantum; default 64)\n"
               "          [--stream]                    (lazy streaming workload generation --\n"
               "                                         O(senders) memory, own deterministic\n"
               "                                         arrival sequence; for 1M-flow runs)\n"
               "          [--workers <n>]               (worker threads of the sharded engine,\n"
               "                                         DESIGN.md s8 -- deterministic for any n)\n"
               "          [--shards <n>]                (shard count; default 1 = the serial\n"
               "                                         engine, or 0 = auto-sized to topology+\n"
               "                                         cores when --workers is given -- pass\n"
               "                                         an explicit n to reproduce a schedule\n"
               "                                         across machines)\n"
               "          [--fail <nodeA>-<nodeB>]      (fail a cable pre-traffic)\n"
               "          [--fail-at-ms <t>]            (delay --fail until t)\n"
               "          [--churn-spec <spec.json>]    (scripted/generative fault waves:\n"
               "                                         flaps, SRGs, gray failures, drift,\n"
               "                                         drains, restarts -- DESIGN.md s13;\n"
               "                                         deterministic for any --workers)\n"
               "          [--telemetry-out <trace.jsonl>]  (control-plane trace +\n"
               "                                            run manifest + convergence table)\n"
               "          [--metrics-json <file|->]     (final metrics snapshot)\n"
               "          [--metrics-interval-ms <t>]   (snapshot k stamped t = k x interval,\n"
               "                                         needs --metrics-json)\n"
               "          [--flows-out <flows.jsonl>]   (per-flow lifecycle records + FCT\n"
               "                                         summary in <file>.summary.json)\n"
               "          [--paths-out <paths.jsonl>]   (sampled INT-style per-hop path records)\n"
               "          [--path-sample-n <n>]         (sample 1-in-n data packets; default 8\n"
               "                                         when --paths-out/--audit-optimality set)\n"
               "          [--links-out <links.jsonl>]   (periodic per-link util/queue timelines)\n"
               "          [--link-sample-us <t>]        (timeline sample period; default 256)\n"
               "          [--audit-optimality]          (score sampled paths against the routing\n"
               "                                         oracle; implies path+link sampling)\n"
               "          [--audit-bucket-ms <t>]       (oracle rebuild period; default 5)\n"
               "          [--engine-profile <out.json>] (Chrome trace-event spans; load in\n"
               "                                         Perfetto / chrome://tracing)\n"
               "environment: CONTRA_LOG_LEVEL=trace|debug|info|warn|error|off\n",
               argv0);
  return 2;
}

/// Samples util EWMA + queue depth for a fixed set of links into a
/// LinkTimeline every interval; reschedules itself. The capture is a single
/// pointer so the handler stays within the event queue's inline capacity.
/// One sampler runs per shard over the links that shard owns, so shard
/// timelines stay disjoint and merge by union.
struct LinkSampler {
  sim::Simulator* sim = nullptr;
  obs::LinkTimeline* timeline = nullptr;
  std::vector<topology::LinkId> links;
  double interval_s = 0.0;

  void tick() {
    const double t = sim->now();
    for (topology::LinkId l : links) {
      const sim::Link& link = sim->link(l);
      timeline->add(l, t, link.utilization(), link.queue_bytes());
    }
    LinkSampler* self = this;
    sim->events().schedule_in(interval_s, [self] { self->tick(); });
  }
  void arm() {
    LinkSampler* self = this;
    sim->events().schedule_in(interval_s, [self] { self->tick(); });
  }
};

/// The dataplane-telemetry flag set.
struct TelemetryOpts {
  std::string flows_path;
  std::string paths_path;
  std::string links_path;
  std::string profile_path;
  bool audit = false;
  uint32_t path_sample_every = 0;
  double link_sample_s = 0.0;
  double audit_bucket_s = 0.0;

  bool flow_tracking() const { return !flows_path.empty() || !paths_path.empty() || audit; }
  bool link_sampling() const { return !links_path.empty() || audit; }

  static TelemetryOpts from_args(const tools::Args& args) {
    TelemetryOpts opts;
    opts.flows_path = args.get("flows-out");
    opts.paths_path = args.get("paths-out");
    opts.links_path = args.get("links-out");
    opts.profile_path = args.get("engine-profile");
    opts.audit = args.has("audit-optimality");
    opts.path_sample_every = static_cast<uint32_t>(args.get_int("path-sample-n", 0));
    if (opts.path_sample_every == 0 && (!opts.paths_path.empty() || opts.audit)) {
      opts.path_sample_every = 8;
    }
    opts.link_sample_s = args.get_double("link-sample-us", 256.0) * 1e-6;
    opts.audit_bucket_s = args.get_double("audit-bucket-ms", 5.0) * 1e-3;
    return opts;
  }

  /// Ring capacity covering the whole run so the audit sees the traffic
  /// window (the ring only drops samples on runs longer than planned).
  uint32_t timeline_capacity(double horizon_s) const {
    return static_cast<uint32_t>(horizon_s / link_sample_s) + 32;
  }
};

bool write_flow_outputs(const TelemetryOpts& opts, const obs::FlowTracker& tracker) {
  if (!opts.flows_path.empty()) {
    std::ofstream out(opts.flows_path);
    if (!out) {
      std::fprintf(stderr, "cannot open --flows-out file: %s\n", opts.flows_path.c_str());
      return false;
    }
    tracker.write_flows_jsonl(out);
    const std::string summary_path = opts.flows_path + ".summary.json";
    std::ofstream summary(summary_path);
    if (!summary) {
      std::fprintf(stderr, "cannot open flow summary file: %s\n", summary_path.c_str());
      return false;
    }
    summary << tracker.summary_json() << "\n";
    std::printf("flows   : %zu records -> %s (summary: %s)\n", tracker.num_flows(),
                opts.flows_path.c_str(), summary_path.c_str());
  }
  if (!opts.paths_path.empty()) {
    std::ofstream out(opts.paths_path);
    if (!out) {
      std::fprintf(stderr, "cannot open --paths-out file: %s\n", opts.paths_path.c_str());
      return false;
    }
    tracker.write_paths_jsonl(out);
    std::printf("paths   : %zu samples -> %s\n", tracker.num_path_samples(),
                opts.paths_path.c_str());
  }
  return true;
}

bool write_link_output(const TelemetryOpts& opts, const obs::LinkTimeline& timeline) {
  if (opts.links_path.empty()) return true;
  std::ofstream out(opts.links_path);
  if (!out) {
    std::fprintf(stderr, "cannot open --links-out file: %s\n", opts.links_path.c_str());
    return false;
  }
  timeline.write_jsonl(out);
  std::printf("links   : timelines -> %s\n", opts.links_path.c_str());
  return true;
}

bool write_profile_output(const std::string& path, const obs::EngineProfiler& profiler) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open --engine-profile file: %s\n", path.c_str());
    return false;
  }
  profiler.write_chrome_trace(out);
  std::printf("profile : %zu spans -> %s\n", profiler.num_spans(), path.c_str());
  return true;
}

/// Scores the sampled dataplane paths against per-time-bucket routing
/// oracles fed the timeline's utilization view (quantized exactly like probe
/// adverts) plus the failure schedule. Prints the gated fraction.
void run_optimality_audit(const topology::Topology& topo, const compiler::CompileResult& compiled,
                          const pg::PolicyEvaluator& evaluator, const obs::FlowTracker& tracker,
                          const obs::LinkTimeline& timeline, double bucket_s,
                          topology::LinkId fail_link, double fail_at_s) {
  std::vector<oracle::AuditSample> samples;
  samples.reserve(tracker.num_path_samples());
  for (const obs::PathSample& ps : tracker.sorted_path_samples()) {
    if (ps.truncated() || ps.nhops == 0) continue;
    oracle::AuditSample sample;
    sample.dst_switch = ps.dst_switch;
    sample.bytes = ps.bytes;
    sample.t = ps.t;
    sample.hop_links.reserve(ps.nhops);
    for (uint8_t i = 0; i < ps.nhops; ++i) sample.hop_links.push_back(ps.hops[i].link);
    samples.push_back(std::move(sample));
  }
  const double quantum = dataplane::ContraSwitchOptions{}.util_quantum;
  const auto state_at = [&](double t) {
    oracle::LinkState state = oracle::LinkState::all_up(topo);
    state.util.assign(topo.num_links(), 0.0);
    for (topology::LinkId l = 0; l < topo.num_links(); ++l) {
      state.util[l] = std::round(timeline.util_at(l, t) / quantum) * quantum;
    }
    if (fail_link != topology::kInvalidLink && (fail_at_s <= 0.0 || t >= fail_at_s)) {
      state.fail_cable(topo, fail_link);
    }
    return state;
  };
  const oracle::AuditResult result =
      oracle::audit_paths(compiled.graph, evaluator, samples, state_at, bucket_s);
  std::printf("audit   : %s\n", result.to_string().c_str());
}

/// TransportConfig from the hybrid-engine flags.
sim::TransportConfig transport_config_from_args(const tools::Args& args) {
  sim::TransportConfig config;
  config.hybrid = args.has("hybrid");
  config.hybrid_sample_every = static_cast<uint32_t>(args.get_int("hybrid-sample-n", 64));
  config.fluid_quantum_s = args.get_double("fluid-quantum-us", 64.0) * 1e-6;
  return config;
}

void print_fluid_stats(const sim::FluidEngine* fluid) {
  if (fluid == nullptr) return;
  const sim::FluidStats& fs = fluid->stats();
  std::printf("fluid   : %llu flows (%llu completed), %llu ticks, %llu recomputes, "
              "%llu reroutes, %llu stalls, peak %llu active, digest %016llx\n",
              static_cast<unsigned long long>(fs.flows_started),
              static_cast<unsigned long long>(fs.flows_completed),
              static_cast<unsigned long long>(fs.ticks),
              static_cast<unsigned long long>(fs.recomputes),
              static_cast<unsigned long long>(fs.reroutes),
              static_cast<unsigned long long>(fs.stalls),
              static_cast<unsigned long long>(fs.peak_active),
              static_cast<unsigned long long>(fluid->completion_digest()));
}

std::vector<sim::HostId> attach_hosts_auto(sim::ParallelSimulator& psim) {
  std::vector<sim::HostId> hosts = sim::attach_hosts_to_fat_tree_edges(psim, 2);
  if (!hosts.empty()) return hosts;
  hosts = sim::attach_hosts_to_leaves(psim, 2);
  if (!hosts.empty()) return hosts;
  for (topology::NodeId n = 0; n < psim.topo().num_nodes(); ++n) hosts.push_back(psim.add_host(n));
  return hosts;
}

/// Loads --churn-spec when present. Returns 0 with *out reset when the flag
/// is absent, 0 with a parsed engine on success, 1 (after printing) on error.
int load_churn_spec(const tools::Args& args, const topology::Topology& topo,
                    std::unique_ptr<sim::ChurnEngine>* out) {
  out->reset();
  if (!args.has("churn-spec")) return 0;
  const std::string path = args.get("churn-spec");
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open --churn-spec file: %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto engine = std::make_unique<sim::ChurnEngine>(topo);
  std::string error;
  if (!engine->load_json(buf.str(), &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("churn: %u waves, %zu events, last at %.3f ms%s\n%s", engine->num_waves(),
              engine->num_events(), engine->last_event_time() * 1e3,
              engine->ends_clean() ? "" : " (schedule does not end clean)",
              engine->describe().c_str());
  *out = std::move(engine);
  return 0;
}

/// Runs the experiment on the sharded engine (DESIGN.md §8). Without
/// --workers or --shards it runs on exactly one shard, which is the serial
/// engine; --workers alone auto-sizes the shard count. Deterministic for any
/// worker count at a fixed shard count.
int run(const tools::Args& args, const topology::Topology& topo, const char* argv0) {
  const double link_bps = args.get_double("link-gbps", 10.0) * 1e9;
  const double load = args.get_double("load", 0.5);
  const double duration_s = args.get_double("duration-ms", 30.0) * 1e-3;
  const double probe_period_s = args.get_double("probe-period-us", 256.0) * 1e-6;
  const uint64_t seed = static_cast<uint64_t>(args.get_int("seed", 1));
  const double size_scale = args.get_double("size-scale", 0.1);
  const std::string plane = args.get("plane", "contra");
  const TelemetryOpts tel = TelemetryOpts::from_args(args);

  // Declared before the engine so the sinks outlive every shard's telemetry.
  std::ofstream trace_file;
  std::unique_ptr<obs::JsonlTraceSink> trace_sink;
  obs::ConvergenceTracker convergence;
  obs::FanoutSink fanout;

  sim::SimConfig config;
  config.host_link_bps = link_bps;
  config.util_tau_s = 2 * probe_period_s;
  config.workers = static_cast<uint32_t>(args.get_int("workers", 1));
  config.shards = static_cast<uint32_t>(args.get_int("shards", args.has("workers") ? 0 : 1));
  sim::ParallelSimulator psim(topo, config);
  const std::vector<sim::HostId> hosts = attach_hosts_auto(psim);
  if (hosts.size() < 2) {
    std::fprintf(stderr, "topology too small to host traffic\n");
    return 1;
  }

  topology::LinkId fail_link = topology::kInvalidLink;
  double fail_at_s = 0.0;
  if (args.has("fail")) {
    const auto parts = util::split(args.get("fail"), '-');
    if (parts.size() != 2 || topo.find(parts[0]) == topology::kInvalidNode ||
        topo.find(parts[1]) == topology::kInvalidNode ||
        topo.link_between(topo.find(parts[0]), topo.find(parts[1])) == topology::kInvalidLink) {
      std::fprintf(stderr, "bad --fail spec '%s' (want <nodeA>-<nodeB>)\n",
                   args.get("fail").c_str());
      return 1;
    }
    fail_link = topo.link_between(topo.find(parts[0]), topo.find(parts[1]));
    fail_at_s = args.get_double("fail-at-ms", 0.0) * 1e-3;
    if (fail_at_s > 0) {
      psim.schedule_cable_event(fail_at_s, fail_link, /*down=*/true);
    } else {
      psim.fail_cable(fail_link);
    }
  }

  std::unique_ptr<sim::ChurnEngine> churn;
  if (load_churn_spec(args, topo, &churn) != 0) return 1;
  if (churn) churn->arm(psim);

  const std::string trace_path = args.get("telemetry-out");
  if (!trace_path.empty()) {
    trace_file.open(trace_path);
    if (!trace_file) {
      std::fprintf(stderr, "cannot open --telemetry-out file: %s\n", trace_path.c_str());
      return 1;
    }
    trace_sink = std::make_unique<obs::JsonlTraceSink>(trace_file);
    fanout.add(trace_sink.get());
    fanout.add(&convergence);
    psim.set_trace_sink(&fanout);
  }

  const double metrics_interval_s = args.get_double("metrics-interval-ms", 0.0) * 1e-3;
  const std::string metrics_path = args.get("metrics-json");
  std::ofstream metrics_file;
  std::ostream* metrics_out = nullptr;
  if (!metrics_path.empty()) {
    if (metrics_path == "-") {
      metrics_out = &std::cout;
    } else {
      metrics_file.open(metrics_path);
      if (!metrics_file) {
        std::fprintf(stderr, "cannot open --metrics-json file: %s\n", metrics_path.c_str());
        return 1;
      }
      metrics_out = &metrics_file;
    }
  } else if (metrics_interval_s > 0) {
    std::fprintf(stderr, "--metrics-interval-ms needs --metrics-json <file|->\n");
    return 1;
  }
  if (metrics_out != nullptr && metrics_interval_s > 0) {
    psim.set_metrics_snapshots(metrics_interval_s, metrics_out);
  }

  compiler::CompileResult compiled;
  std::unique_ptr<pg::PolicyEvaluator> evaluator;
  std::string policy_text;
  if (plane == "contra" || tel.audit) {
    const std::string policy = args.get("policy", "minimize(path.util)");
    policy_text = policy;
    try {
      compiled = compiler::compile(policy, topo);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "compile error: %s\n", e.what());
      return 1;
    }
    std::printf("compiled: %s\n", compiled.summary().c_str());
    evaluator = std::make_unique<pg::PolicyEvaluator>(compiled.graph, compiled.decomposition);
  }
  if (plane != "contra" && plane != "ecmp" && plane != "hula" && plane != "spain" &&
      plane != "sp") {
    std::fprintf(stderr, "unknown --plane '%s'\n", plane.c_str());
    return usage(argv0);
  }
  psim.for_each_shard([&](sim::Simulator& shard_sim) {
    if (plane == "contra") {
      dataplane::ContraSwitchOptions options;
      options.probe_period_s = std::max(probe_period_s, compiled.min_probe_period_s);
      options.triggered_updates = args.has("triggered");
      options.keepalive_rounds = static_cast<uint32_t>(
          args.get_int("keepalive-rounds", static_cast<int64_t>(options.keepalive_rounds)));
      options.holddown_periods = args.get_double("holddown-periods", options.holddown_periods);
      options.util_quantum = args.get_double("util-quantum", options.util_quantum);
      dataplane::install_contra_network(shard_sim, compiled, *evaluator, options);
    } else if (plane == "ecmp") {
      dataplane::install_ecmp_network(shard_sim);
    } else if (plane == "hula") {
      dataplane::HulaOptions options;
      options.probe_period_s = probe_period_s;
      dataplane::install_hula_network(shard_sim, options);
    } else if (plane == "spain") {
      dataplane::install_spain_network(shard_sim);
    } else {
      dataplane::install_shortest_path_network(shard_sim);
    }
  });

  const workload::EmpiricalCdf& sizes = args.get("workload", "web-search") == "cache"
                                            ? workload::cache_flow_sizes()
                                            : workload::web_search_flow_sizes();
  std::vector<sim::HostId> senders, receivers;
  for (sim::HostId h : hosts) (h % 2 ? receivers : senders).push_back(h);

  sim::ParallelTransport transport(psim, transport_config_from_args(args));
  if (tel.flow_tracking()) transport.enable_flow_tracking(tel.path_sample_every);

  workload::WorkloadConfig wl;
  wl.load = load;
  wl.sender_capacity_bps = link_bps / 4;  // conservative fair share
  wl.start = 20 * probe_period_s;         // converge first
  wl.duration = duration_s;
  wl.seed = seed;
  wl.size_scale = size_scale;
  std::unique_ptr<workload::FlowStream> stream;
  std::vector<workload::GeneratedFlow> flows;
  if (args.has("stream")) {
    stream = std::make_unique<workload::FlowStream>(sizes, senders, receivers, wl);
  } else {
    flows = workload::generate_poisson(sizes, senders, receivers, wl);
    workload::submit(transport, flows);
  }

  // Per-shard link samplers over the links each shard owns (transmit side):
  // shard timelines are disjoint, so the merged timeline is workers-invariant.
  std::vector<std::unique_ptr<obs::LinkTimeline>> shard_timelines;
  std::vector<std::unique_ptr<LinkSampler>> shard_samplers;
  if (tel.link_sampling()) {
    const uint32_t capacity = tel.timeline_capacity(wl.start + wl.duration + 0.3);
    for (uint32_t s = 0; s < psim.num_shards(); ++s) {
      auto timeline = std::make_unique<obs::LinkTimeline>(topo.num_links(), capacity);
      auto sampler = std::make_unique<LinkSampler>();
      sampler->sim = &psim.shard_sim(s);
      sampler->timeline = timeline.get();
      sampler->interval_s = tel.link_sample_s;
      for (topology::LinkId l = 0; l < topo.num_links(); ++l) {
        if (sampler->sim->owns_link(l)) sampler->links.push_back(l);
      }
      if (!sampler->links.empty()) sampler->arm();
      shard_timelines.push_back(std::move(timeline));
      shard_samplers.push_back(std::move(sampler));
    }
  }

  std::unique_ptr<obs::EngineProfiler> profiler;
  if (!tel.profile_path.empty()) {
    profiler = std::make_unique<obs::EngineProfiler>(psim.num_shards() + 1);
    psim.set_profiler(profiler.get());
  }

  if (!trace_path.empty()) {
    obs::RunManifest manifest = obs::RunManifest::make("contrasim");
    manifest.topology = args.has("topo-file")   ? args.get("topo-file")
                        : args.has("topology") ? args.get("topology")
                                               : args.get("builtin", "diamond");
    manifest.nodes = topo.num_nodes();
    manifest.links = topo.num_links();
    manifest.plane = plane;
    manifest.policy = policy_text;
    manifest.workload = args.get("workload", "web-search");
    manifest.seed = seed;
    manifest.load = load;
    manifest.duration_s = duration_s;
    manifest.probe_period_s = probe_period_s;
    manifest.link_bps = link_bps;
    const std::string manifest_path = obs::manifest_path_for(trace_path);
    if (!manifest.write(manifest_path)) {
      std::fprintf(stderr, "cannot write run manifest: %s\n", manifest_path.c_str());
      return 1;
    }
    std::printf("telemetry: trace=%s manifest=%s config_hash=%016llx\n", trace_path.c_str(),
                manifest_path.c_str(),
                static_cast<unsigned long long>(manifest.config_hash()));
  }

  // The three run windows are coarse spans on the scheduler track.
  const auto profiled = [&](const char* name, auto&& fn) {
    const double t0 = profiler ? profiler->now_us() : 0.0;
    fn();
    if (profiler) profiler->add_span(profiler->scheduler_track(), name, t0, profiler->now_us() - t0);
  };

  psim.start();
  profiled("warmup", [&] { psim.run_until(wl.start); });
  const sim::LinkStats window_start = psim.aggregate_fabric_stats();
  profiled("traffic", [&] {
    if (stream) {
      workload::pump_stream(transport, *stream, wl.start + wl.duration,
                            std::max(wl.duration / 256, 1e-3),
                            [&](sim::Time t) { psim.run_until(t); });
    } else {
      psim.run_until(wl.start + wl.duration);
    }
  });
  const sim::LinkStats window_end = psim.aggregate_fabric_stats();
  profiled("drain", [&] { psim.run_until(wl.start + wl.duration + 0.25); });

  const size_t num_flows = stream ? stream->emitted() : flows.size();
  const auto fct = metrics::summarize_fct(transport.completed_flows(), num_flows);
  const auto overhead = metrics::make_overhead_report(window_end, window_start);
  if (args.has("workers") || args.has("shards")) {  // a default run prints no engine line
    std::printf("engine  : %u shards x %u workers (%u fused at partition), "
                "min cut %.3g us, %llu phases (%llu solo)\n",
                psim.num_shards(), psim.num_workers(), psim.partition().fused_shards,
                psim.epoch_width_s() * 1e6,
                static_cast<unsigned long long>(psim.epochs_completed()),
                static_cast<unsigned long long>(psim.solo_phases()));
  }
  std::printf("plane=%s load=%.0f%% flows=%zu\n", plane.c_str(), load * 100, num_flows);
  std::printf("FCT     : %s\n", fct.to_string().c_str());
  std::printf("traffic : %s\n", overhead.to_string().c_str());
  std::printf("drops   : %llu data packets\n",
              static_cast<unsigned long long>(psim.aggregate_fabric_stats().data_drops));
  print_fluid_stats(transport.fluid_engine());

  if (metrics_out != nullptr) {
    *metrics_out << psim.merged_metrics_json(psim.now()) << "\n";
  }

  obs::FlowTracker merged_tracker;
  if (transport.flow_tracking()) {
    merged_tracker = transport.merged_flow_tracker();
    if (!write_flow_outputs(tel, merged_tracker)) return 1;
  }
  obs::LinkTimeline merged_timeline;
  if (tel.link_sampling()) {
    for (const auto& timeline : shard_timelines) merged_timeline.merge_from(*timeline);
    if (!write_link_output(tel, merged_timeline)) return 1;
  }
  if (tel.audit) {
    run_optimality_audit(topo, compiled, *evaluator, merged_tracker, merged_timeline,
                         tel.audit_bucket_s, fail_link, fail_at_s);
  }
  if (profiler) {
    psim.set_profiler(nullptr);
    if (!write_profile_output(tel.profile_path, *profiler)) return 1;
  }

  if (!trace_path.empty()) {
    psim.flush_trace();
    std::printf("trace   : %llu records -> %s\n",
                static_cast<unsigned long long>(trace_sink->records_written()),
                trace_path.c_str());
    std::printf("%s", convergence.report().to_string().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::init_log_level_from_env();
  const tools::Args args(argc, argv);
  if (args.has("help")) return usage(argv[0]);

  std::string error;
  const auto topo = tools::load_topology(args, &error);
  if (!topo) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return usage(argv[0]);
  }

  return run(args, *topo, argv[0]);
}
