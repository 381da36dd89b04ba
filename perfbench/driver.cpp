// perfbench_driver — the benchmark's thin driver. Runs one contrasim
// serial-engine experiment (plane contra) through the library's public calls,
// in the order contrasim's serial path makes them, so that set-up and each
// run window can be timed from outside the library:
//
//   topology builder -> Simulator -> host attach -> compiler::compile ->
//   PolicyEvaluator -> dataplane::install_contra_network -> TransportManager ->
//   workload::generate_poisson/submit or FlowStream -> Simulator::start ->
//   run_until(warmup) -> run_until(traffic) or pump_stream -> run_until(drain)
//
// It takes the contrasim flags that perfbench/run.py's workloads pass, in
// contrasim's spelling, and refuses any other; everything else is fixed at
// contrasim's defaults (10 Gb/s links, web-search flow sizes, the library's
// util quantum, hybrid sampling and fluid quantum). It prints contrasim's result lines
// byte for byte, so perfbench/run.py can check parity against the shipped
// tool. The last stdout line is
//   PERFBENCH_RESULT {json}
// with host timings, simulated metrics and final counters.
//
//   perfbench_driver <contrasim flags> [--setup-only] [--trace-out spans.json]
//
// --setup-only stops after Simulator::start (set-up timing only).
// --trace-out records a span around every public call above, with counter
// snapshots at each span boundary, and writes them at exit as Chrome
// trace-event JSON (loadable in Perfetto); without it no span is recorded.
// The clock time spent on that bookkeeping is reported as trace_overhead_s.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cli_common.h"
#include "compiler/compiler.h"
#include "dataplane/contra_switch.h"
#include "metrics/counters.h"
#include "metrics/fct.h"
#include "pg/policy_eval.h"
#include "sim/fluid.h"
#include "sim/host.h"
#include "sim/transport.h"
#include "workload/generator.h"

using namespace contra;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Counters read at a span boundary: the event core, the metrics registry
/// and the fluid engine.
struct Counters {
  uint64_t events = 0, events_clamped = 0;
  uint64_t probes_received = 0, probes_accepted = 0, fwdt_updates = 0, route_flips = 0;
  uint64_t probes_triggered = 0, probes_holddown_deferred = 0, keepalive_probes = 0;
  uint64_t dense_fallback_hits = 0, data_forwarded = 0, flowlets_switched = 0;
  uint64_t data_dropped_no_route = 0, data_dropped_ttl = 0, loop_breaks = 0;
  uint64_t link_drops = 0, link_ecn_marks = 0;
  uint64_t tcp_rto_fired = 0, tcp_fast_retx = 0;
  sim::FluidStats fluid;

  void write_json(std::ostream& out) const {
    out << "{\"events\":" << events << ",\"events_clamped\":" << events_clamped
        << ",\"probes_received\":" << probes_received
        << ",\"probes_accepted\":" << probes_accepted << ",\"fwdt_updates\":" << fwdt_updates
        << ",\"route_flips\":" << route_flips << ",\"probes_triggered\":" << probes_triggered
        << ",\"probes_holddown_deferred\":" << probes_holddown_deferred
        << ",\"keepalive_probes\":" << keepalive_probes
        << ",\"dense_fallback_hits\":" << dense_fallback_hits
        << ",\"data_forwarded\":" << data_forwarded
        << ",\"flowlets_switched\":" << flowlets_switched
        << ",\"data_dropped_no_route\":" << data_dropped_no_route
        << ",\"data_dropped_ttl\":" << data_dropped_ttl
        << ",\"loop_breaks\":" << loop_breaks << ",\"link_drops\":" << link_drops
        << ",\"link_ecn_marks\":" << link_ecn_marks << ",\"tcp_rto_fired\":" << tcp_rto_fired
        << ",\"tcp_fast_retx\":" << tcp_fast_retx
        << ",\"fluid_flows_started\":" << fluid.flows_started
        << ",\"fluid_flows_completed\":" << fluid.flows_completed
        << ",\"fluid_ticks\":" << fluid.ticks << ",\"fluid_recomputes\":" << fluid.recomputes
        << ",\"fluid_reroutes\":" << fluid.reroutes << ",\"fluid_stalls\":" << fluid.stalls
        << ",\"fluid_peak_active\":" << fluid.peak_active << "}";
  }
};

Counters read_counters(sim::Simulator* sim, const sim::TransportManager* transport) {
  Counters c;
  if (sim == nullptr) return c;
  c.events = sim->events().events_processed();
  c.events_clamped = sim->events().events_clamped();
  const obs::MetricsRegistry& m = sim->telemetry().metrics();
  const obs::CoreMetrics& core = sim->telemetry().core();
  c.probes_received = m.value(core.probes_received);
  c.probes_accepted = m.value(core.probes_accepted);
  c.fwdt_updates = m.value(core.fwdt_updates);
  c.route_flips = m.value(core.route_flips);
  c.probes_triggered = m.value(core.probes_triggered);
  c.probes_holddown_deferred = m.value(core.probes_holddown_deferred);
  c.keepalive_probes = m.value(core.keepalive_probes);
  c.dense_fallback_hits = m.value(core.dense_fallback_hits);
  c.data_forwarded = m.value(core.data_forwarded);
  c.flowlets_switched = m.value(core.flowlets_switched);
  c.data_dropped_no_route = m.value(core.data_dropped_no_route);
  c.data_dropped_ttl = m.value(core.data_dropped_ttl);
  c.loop_breaks = m.value(core.loop_breaks);
  c.link_drops = m.value(core.link_drops);
  c.link_ecn_marks = m.value(core.link_ecn_marks);
  c.tcp_rto_fired = m.value(core.tcp_rto_fired);
  c.tcp_fast_retx = m.value(core.tcp_fast_retx);
  if (transport != nullptr && transport->fluid_engine() != nullptr) {
    c.fluid = transport->fluid_engine()->stats();
  }
  return c;
}

/// In-memory span recorder. Disabled, span() just calls the function.
class SpanRecorder {
 public:
  SpanRecorder(bool enabled, Clock::time_point epoch) : enabled_(enabled), epoch_(epoch) {}

  /// Counter source for boundary snapshots; null pointers read as zero.
  void watch(sim::Simulator* sim, const sim::TransportManager* transport) {
    sim_ = sim;
    transport_ = transport;
  }

  /// Runs fn inside a span. `name` and `layer` must be string literals;
  /// `window` tags the three run windows ("" elsewhere).
  template <typename Fn>
  void span(const char* name, const char* layer, Fn&& fn, const char* window = "") {
    if (!enabled_) {
      fn();
      return;
    }
    const Clock::time_point enter = Clock::now();
    const size_t index = spans_.size();
    spans_.push_back(Span{name, layer, window, stack_.empty() ? -1 : stack_.back(),
                          read_counters(sim_, transport_), {}, Clock::now(), {}});
    stack_.push_back(static_cast<int>(index));
    overhead_s_ += seconds_between(enter, spans_[index].begin);
    fn();
    const Clock::time_point end = Clock::now();
    stack_.pop_back();
    spans_[index].end = end;
    spans_[index].c1 = read_counters(sim_, transport_);
    overhead_s_ += seconds_between(end, Clock::now());
  }

  /// Clock time spent recording spans and reading counters so far.
  double overhead_s() const { return overhead_s_; }

  /// Chrome trace-event JSON: one complete ("X") event per span, with the
  /// span id, its parent and both counter snapshots in "args".
  void write_chrome_trace(std::ostream& out) const {
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char times[96];
      std::snprintf(times, sizeof times, "\"ts\":%.3f,\"dur\":%.3f",
                    seconds_between(epoch_, s.begin) * 1e6, seconds_between(s.begin, s.end) * 1e6);
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.layer
          << "\",\"ph\":\"X\"," << times << ",\"pid\":0,\"tid\":0,\"args\":{\"id\":" << i
          << ",\"parent\":" << s.parent << ",\"window\":\"" << s.window << "\",\"begin\":";
      s.c0.write_json(out);
      out << ",\"end\":";
      s.c1.write_json(out);
      out << "}}";
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  }

 private:
  struct Span {
    const char* name;
    const char* layer;
    const char* window;
    int parent;
    Counters c0, c1;
    Clock::time_point begin, end;
  };
  bool enabled_;
  Clock::time_point epoch_;
  sim::Simulator* sim_ = nullptr;
  const sim::TransportManager* transport_ = nullptr;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  double overhead_s_ = 0.0;
};

/// Peak resident set (VmHWM) of this process in MiB; 0 when unreadable.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

/// The fluid summary line, formatted exactly as contrasim prints it.
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

/// The contrasim flags perfbench/run.py passes, plus the driver's own; any
/// other flag is refused so the benchmark never silently measures a
/// different simulation than it names.
const std::set<std::string> kKnownFlags = {
    "builtin",          "plane",            "policy",          "workload",
    "load",             "seed",             "duration-ms",     "size-scale",
    "probe-period-us",  "triggered",        "keepalive-rounds", "holddown-periods",
    "hybrid",           "stream",           "setup-only",      "trace-out"};

// contrasim's default --link-gbps. Its other defaults for settings the
// benchmark never changes (util quantum, hybrid sampling, fluid quantum) are
// the library's option defaults, which the driver leaves as they are.
constexpr double kLinkBps = 10e9;

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point t_start = Clock::now();
  const tools::Args args(argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0 && kKnownFlags.count(arg.substr(2)) == 0) {
      std::fprintf(stderr, "perfbench_driver: unsupported flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (args.get("plane", "contra") != "contra") {
    std::fprintf(stderr, "perfbench_driver: only --plane contra is measured\n");
    return 2;
  }
  if (args.get("workload", "web-search") != "web-search") {
    std::fprintf(stderr, "perfbench_driver: only --workload web-search is measured\n");
    return 2;
  }
  const std::string trace_path = args.get("trace-out");
  const bool setup_only = args.has("setup-only");
  SpanRecorder rec(!trace_path.empty(), t_start);
  bool ok = true;

  const double load = args.get_double("load", 0.5);
  const double duration_s = args.get_double("duration-ms", 30.0) * 1e-3;
  const double probe_period_s = args.get_double("probe-period-us", 256.0) * 1e-6;
  const uint64_t seed = static_cast<uint64_t>(args.get_int("seed", 1));
  const double size_scale = args.get_double("size-scale", 0.1);
  const bool streaming = args.has("stream");

  // Declared up front so the root span's lambda can build them in
  // contrasim's order; they are destroyed in reverse, as in contrasim.
  std::optional<topology::Topology> topo;
  std::unique_ptr<sim::Simulator> sim;
  std::vector<sim::HostId> hosts;
  compiler::CompileResult compiled;
  std::unique_ptr<pg::PolicyEvaluator> evaluator;
  std::unique_ptr<sim::TransportManager> transport;
  std::unique_ptr<workload::FlowStream> stream;
  std::vector<workload::GeneratedFlow> flows;
  workload::WorkloadConfig wl;
  double setup_s = 0.0, run_until_s = 0.0;
  sim::LinkStats window_start, window_end;
  size_t num_flows = 0;
  metrics::FctSummary fct;

  // Runs one run_until and adds its host time to run_until_s.
  const auto run_until = [&](sim::Time t) {
    const Clock::time_point t0 = Clock::now();
    sim->run_until(t);
    run_until_s += seconds_between(t0, Clock::now());
  };

  rec.span("run", "run", [&] {
    rec.span("topology.build", "topology", [&] {
      std::string error;
      topo = tools::load_topology(args, &error);
      if (!topo) std::fprintf(stderr, "error: %s\n", error.c_str());
    });
    if (!topo) {
      ok = false;
      return;
    }
    sim::SimConfig config;
    config.host_link_bps = kLinkBps;
    config.util_tau_s = 2 * probe_period_s;
    rec.span("sim.construct", "sim", [&] { sim = std::make_unique<sim::Simulator>(*topo, config); });
    rec.watch(sim.get(), nullptr);
    rec.span("sim.attach_hosts", "sim", [&] {
      hosts = sim::attach_hosts_to_fat_tree_edges(*sim, 2);
      if (hosts.empty()) hosts = sim::attach_hosts_to_leaves(*sim, 2);
      if (hosts.empty()) {
        for (topology::NodeId n = 0; n < topo->num_nodes(); ++n) hosts.push_back(sim->add_host(n));
      }
    });
    if (hosts.size() < 2) {
      std::fprintf(stderr, "topology too small to host traffic\n");
      ok = false;
      return;
    }
    rec.span("compiler.compile", "compiler", [&] {
      try {
        compiled = compiler::compile(args.get("policy", "minimize(path.util)"), *topo);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "compile error: %s\n", e.what());
        ok = false;
      }
    });
    if (!ok) return;
    std::printf("compiled: %s\n", compiled.summary().c_str());
    rec.span("compiler.evaluator", "compiler", [&] {
      evaluator = std::make_unique<pg::PolicyEvaluator>(compiled.graph, compiled.decomposition);
    });
    rec.span("dataplane.install", "dataplane", [&] {
      dataplane::ContraSwitchOptions options;
      options.probe_period_s = std::max(probe_period_s, compiled.min_probe_period_s);
      options.triggered_updates = args.has("triggered");
      options.keepalive_rounds = static_cast<uint32_t>(
          args.get_int("keepalive-rounds", static_cast<int64_t>(options.keepalive_rounds)));
      options.holddown_periods = args.get_double("holddown-periods", options.holddown_periods);
      dataplane::install_contra_network(*sim, compiled, *evaluator, options);
    });

    const workload::EmpiricalCdf& sizes = workload::web_search_flow_sizes();
    std::vector<sim::HostId> senders, receivers;
    for (sim::HostId h : hosts) (h % 2 ? receivers : senders).push_back(h);

    rec.span("sim.transport_init", "sim.transport", [&] {
      sim::TransportConfig tconfig;
      tconfig.hybrid = args.has("hybrid");
      transport = std::make_unique<sim::TransportManager>(*sim, tconfig);
    });
    rec.watch(sim.get(), transport.get());

    wl.load = load;
    wl.sender_capacity_bps = kLinkBps / 4;
    wl.start = 20 * probe_period_s;
    wl.duration = duration_s;
    wl.seed = seed;
    wl.size_scale = size_scale;
    rec.span("workload.generate", "workload", [&] {
      if (streaming) {
        stream = std::make_unique<workload::FlowStream>(sizes, senders, receivers, wl);
      } else {
        flows = workload::generate_poisson(sizes, senders, receivers, wl);
      }
    });
    if (!streaming) {
      rec.span("workload.submit", "workload", [&] { workload::submit(*transport, flows); });
    }
    rec.span("sim.start", "sim", [&] { sim->start(); });
    setup_s = seconds_between(t_start, Clock::now());
    if (setup_only) return;

    rec.span("sim.run_until", "sim", [&] { run_until(wl.start); }, "warmup");
    window_start = sim->aggregate_fabric_stats();
    if (streaming) {
      // The pump's own work (materializing and submitting flows) is the
      // span's self time; each engine advance is a child span.
      rec.span("workload.pump_stream", "workload", [&] {
        workload::pump_stream(*transport, *stream, wl.start + wl.duration,
                              std::max(wl.duration / 256, 1e-3), [&](sim::Time t) {
                                rec.span("sim.run_until", "sim", [&] { run_until(t); });
                              });
      }, "traffic");
    } else {
      rec.span("sim.run_until", "sim", [&] { run_until(wl.start + wl.duration); }, "traffic");
    }
    window_end = sim->aggregate_fabric_stats();
    rec.span("sim.run_until", "sim", [&] { run_until(wl.start + wl.duration + 0.25); }, "drain");

    rec.span("metrics.report", "metrics", [&] {
      num_flows = streaming ? stream->emitted() : flows.size();
      fct = metrics::summarize_fct(transport->completed_flows(), num_flows);
      const auto overhead = metrics::make_overhead_report(window_end, window_start);
      std::printf("plane=contra load=%.0f%% flows=%zu\n", load * 100, num_flows);
      std::printf("FCT     : %s\n", fct.to_string().c_str());
      std::printf("traffic : %s\n", overhead.to_string().c_str());
      std::printf("drops   : %llu data packets\n",
                  static_cast<unsigned long long>(sim->aggregate_fabric_stats().data_drops));
      print_fluid_stats(transport->fluid_engine());
      std::fflush(stdout);
    });
  });
  if (!ok) return 1;
  const double run_s = seconds_between(t_start, Clock::now());
  const double trace_overhead_s = rec.overhead_s();

  // Everything below is bookkeeping after the result was printed.
  std::ostringstream out;
  out.precision(17);
  out << "{\"run_s\":" << run_s << ",\"setup_s\":" << setup_s
      << ",\"peak_rss_mib\":" << peak_rss_mib() << ",\"trace_overhead_s\":" << trace_overhead_s;
  if (!setup_only) {
    const auto whole = metrics::make_overhead_report(window_end);
    out << ",\"run_until_s\":" << run_until_s
        << ",\"sim_s\":" << wl.start + wl.duration + 0.25 << ",\"flows\":" << num_flows
        << ",\"incomplete\":" << fct.incomplete << ",\"fct_mean_ms\":" << fct.mean_s * 1e3
        << ",\"fct_p50_ms\":" << fct.median_s * 1e3 << ",\"fct_p99_ms\":" << fct.p99_s * 1e3
        << ",\"probe_bytes_share\":" << whole.probe_fraction()
        << ",\"traffic_probe_bytes_share\":"
        << metrics::make_overhead_report(window_end, window_start).probe_fraction()
        << ",\"pg_nodes\":" << compiled.graph.num_nodes()
        << ",\"pg_edges\":" << compiled.graph.num_edges() << ",\"counters\":";
    read_counters(sim.get(), transport.get()).write_json(out);
    if (transport->fluid_engine() != nullptr) {
      char digest[32];
      std::snprintf(digest, sizeof digest, "%016llx",
                    static_cast<unsigned long long>(transport->fluid_engine()->completion_digest()));
      out << ",\"fluid_digest\":\"" << digest << "\"";
    }
  }
  out << "}";

  if (!trace_path.empty()) {
    std::ofstream trace_file(trace_path);
    rec.write_chrome_trace(trace_file);
    if (!trace_file) {
      std::fprintf(stderr, "cannot write --trace-out file: %s\n", trace_path.c_str());
      return 1;
    }
  }
  std::printf("PERFBENCH_RESULT %s\n", out.str().c_str());
  return 0;
}
