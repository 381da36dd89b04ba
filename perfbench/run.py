#!/usr/bin/env python3
"""End-to-end benchmark of the contra simulator (see perfbench/README.md).

    python3 perfbench/run.py --workload ft8_periodic --seed 3 --seconds 12 --trace 0

Builds the library, contrasim and perfbench_driver (Release) into
.bench_build/, then repeats one workload through perfbench_driver for
--seconds, and at least three times, and checks that every simulated output
is identical across those runs and equal to contrasim's for the same flags
and seed.

--trace 0 prints the end-to-end metrics; it also sets up 30 more times for
set-up timing and checks parity on the workload's smoke variant. --trace 1
records spans (files land in .bench_build/traces/), prints the per-layer
metrics, and checks parity on the full workload. --smoke swaps in a tiny
variant of the workload. Human-readable lines come first; the last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. A flow is the
operation: attempted = flows started, failed = flows unfinished after drain.
"""
import argparse
import collections
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
CONTRASIM = os.path.join(BUILD, "tools", "contrasim")

DEFAULT_SEED = 3
# Held out for claim checks (choosing-metrics guide section 6.3): a change
# that claims a gain must also show it at this seed, which tuning never uses.
HELDOUT_SEED = 1009
SETUP_REPEATS = 30
# Timed runs per invocation whatever --seconds says: the medians and the
# determinism check need more than one.
MIN_REPEATS = 3
DEADLINE = float("inf")
# Every run ends within 180 s after the build; a child still running at the
# deadline is killed and the run fails.
RUN_DEADLINE_S = 175

# contrasim flags per workload, in contrasim's spelling; the seed is appended
# per run and goes only to the workload generator. "smoke" overrides give a
# tiny variant that takes the same code paths in about a second.
UTIL_POLICY = {"--plane": "contra", "--policy": "minimize(path.util)",
               "--workload": "web-search"}
WORKLOADS = {
    "ft8_periodic": {
        "flags": {"--builtin": "fat-tree:8", **UTIL_POLICY, "--load": "0.6",
                  "--size-scale": "0.02", "--duration-ms": "20"},
        "smoke": {"--builtin": "fat-tree:4", "--duration-ms": "3"},
    },
    "ft8_triggered": {
        "flags": {"--builtin": "fat-tree:8", **UTIL_POLICY, "--load": "0.6",
                  "--size-scale": "0.02", "--duration-ms": "20", "--triggered": None,
                  "--keepalive-rounds": "32", "--holddown-periods": "4"},
        "smoke": {"--builtin": "fat-tree:4", "--duration-ms": "3"},
    },
    "abilene_data": {
        "flags": {"--builtin": "abilene", **UTIL_POLICY, "--load": "0.8",
                  "--size-scale": "0.02", "--duration-ms": "200"},
        "smoke": {"--duration-ms": "10"},
    },
    "ft16_hybrid": {
        "flags": {"--builtin": "fat-tree:16", "--plane": "contra",
                  "--policy": "minimize(path.len)", "--load": "0.5", "--size-scale": "0.01",
                  "--hybrid": None, "--stream": None, "--triggered": None,
                  "--probe-period-us": "1024", "--keepalive-rounds": "512",
                  "--duration-ms": "200"},
        "smoke": {"--builtin": "fat-tree:4", "--duration-ms": "5"},
    },
}

# name -> unit. The end-to-end set is printed by --trace 0, the per-layer set
# by --trace 1; perfbench/tests checks both against BENCHMARK.json.
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "host_s_per_sim_s": "s/s",
    "peak_rss_mib": "MiB",
    "fct_mean_ms": "ms",
    "fct_p50_ms": "ms",
    "fct_p99_ms": "ms",
    "probe_bytes_share": "fraction",
}
WINDOWS = ("warmup", "traffic", "drain")
LAYERS = ("topology", "compiler", "dataplane", "workload", "sim", "sim.transport", "metrics")
PER_LAYER = {}
for _w in WINDOWS:
    PER_LAYER.update({f"sim.{_w}.wall_s": "s", f"sim.{_w}.events": "count",
                      f"sim.{_w}.ns_per_event": "ns", f"dataplane.{_w}.probes_received": "count",
                      f"dataplane.{_w}.events_per_probe": "events/probe"})
PER_LAYER.update({
    "dataplane.probe_accept_ratio": "fraction",
    "dataplane.fwdt_updates": "count",
    "dataplane.route_flips": "count",
    "dataplane.probes_triggered": "count",
    "dataplane.probes_holddown_deferred": "count",
    "dataplane.keepalive_probes": "count",
    "dataplane.data_forwarded": "count",
    "dataplane.flowlets_switched": "count",
    "dataplane.traffic.probe_bytes_share": "fraction",
    "sim.link.drops": "count",
    "sim.link.ecn_marks": "count",
    "sim.transport.rto_fired": "count",
    "sim.transport.fast_retx": "count",
    "dataplane.data_dropped_no_route": "count",
    "dataplane.data_dropped_ttl": "count",
    "dataplane.loop_breaks": "count",
    "sim.fluid.ticks": "count",
    "sim.fluid.recomputes": "count",
    "sim.fluid.reroutes": "count",
    "sim.fluid.stalls": "count",
    "sim.fluid.peak_active": "count",
    "sim.fluid.ns_per_flow": "ns",
    "topology.build_s": "s",
    "compiler.compile_s": "s",
    "compiler.pg_nodes": "count",
    "compiler.pg_edges": "count",
    "dataplane.install_s": "s",
    "workload.generate_s": "s",
    "workload.flows": "count",
    "workload.flows_incomplete_frac": "fraction",
    "sim.events_clamped": "count",
    "dataplane.dense_fallback_hits": "count",
})
for _layer in LAYERS:
    PER_LAYER.update({f"{_layer}.self_s": "s", f"{_layer}.share": "fraction"})
PER_LAYER.update({"trace.span_coverage": "fraction", "trace.overhead_s": "s"})

# Lines of driver/contrasim stdout that must agree byte for byte.
PARITY_PREFIXES = ("compiled:", "plane=", "FCT     :", "traffic :", "drops   :", "fluid   :")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds into .bench_build; quiet unless it fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no contra sources under {ROOT}; run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench_driver"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                fail(f"build failed: {' '.join(step)} (log: {log_path})")


def flag_list(workload, smoke):
    flags = dict(WORKLOADS[workload]["flags"])
    if smoke:
        flags.update(WORKLOADS[workload]["smoke"])
    out = []
    for key, value in flags.items():
        out += [key] if value is None else [key, value]
    return out


def run_program(argv):
    timeout = max(1.0, DEADLINE - time.monotonic())
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        fail(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def run_driver(flags, extra=()):
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="milliseconds")
    stdout = run_program([DRIVER, *flags, *extra])
    lines = stdout.splitlines()
    if not lines or not lines[-1].startswith("PERFBENCH_RESULT "):
        fail(f"driver printed no result:\n{stdout}")
    result = json.loads(lines[-1][len("PERFBENCH_RESULT "):])
    result["parity_lines"] = [l for l in lines if l.startswith(PARITY_PREFIXES)]
    result["started_utc"] = stamp
    return result


def simulated_outputs(rep):
    """Everything a rep computes in simulated time; must repeat exactly."""
    keys = ("parity_lines", "flows", "incomplete", "fct_mean_ms", "fct_p50_ms", "fct_p99_ms",
            "probe_bytes_share", "traffic_probe_bytes_share", "counters", "fluid_digest")
    return json.dumps({k: rep.get(k) for k in keys}, sort_keys=True)


def compiler_version():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    compiler = "c++"
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                compiler = line.split("=", 1)[1].strip()
    proc = subprocess.run([compiler, "--version"], capture_output=True, text=True)
    return f"{compiler}: {proc.stdout.splitlines()[0] if proc.stdout else 'unknown'}"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_rev():
    if shutil.which("git") and os.path.exists(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    return "unknown (not a git checkout)"


def load_trace(path):
    with open(path) as f:
        return json.load(f)["traceEvents"]


def per_layer_metrics(trace, rep):
    """Per-layer numbers from one traced rep's spans and counter snapshots."""
    child_time = collections.Counter()
    for e in trace:
        child_time[e["args"]["parent"]] += e["dur"]
    root = next(e for e in trace if e["args"]["parent"] < 0)
    root_s = root["dur"] * 1e-6
    first = {}
    for e in trace:
        first.setdefault(e["name"], e)

    def delta(e, key):
        return e["args"]["end"][key] - e["args"]["begin"][key]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for e in trace:
        window = e["args"]["window"]
        if window:
            wall = e["dur"] * 1e-6
            events = delta(e, "events")
            probes = delta(e, "probes_received")
            m[f"sim.{window}.wall_s"] = wall
            m[f"sim.{window}.events"] = events
            m[f"sim.{window}.ns_per_event"] = ratio(wall * 1e9, events)
            m[f"dataplane.{window}.probes_received"] = probes
            m[f"dataplane.{window}.events_per_probe"] = ratio(events, probes)
            if window == "traffic":
                m["sim.fluid.ns_per_flow"] = ratio(wall * 1e9, delta(e, "fluid_flows_started"))
    end = root["args"]["end"]
    m.update({
        "dataplane.probe_accept_ratio": ratio(end["probes_accepted"], end["probes_received"]),
        "dataplane.fwdt_updates": end["fwdt_updates"],
        "dataplane.route_flips": end["route_flips"],
        "dataplane.probes_triggered": end["probes_triggered"],
        "dataplane.probes_holddown_deferred": end["probes_holddown_deferred"],
        "dataplane.keepalive_probes": end["keepalive_probes"],
        "dataplane.data_forwarded": end["data_forwarded"],
        "dataplane.flowlets_switched": end["flowlets_switched"],
        "dataplane.traffic.probe_bytes_share": rep["traffic_probe_bytes_share"],
        "sim.link.drops": end["link_drops"],
        "sim.link.ecn_marks": end["link_ecn_marks"],
        "sim.transport.rto_fired": end["tcp_rto_fired"],
        "sim.transport.fast_retx": end["tcp_fast_retx"],
        "dataplane.data_dropped_no_route": end["data_dropped_no_route"],
        "dataplane.data_dropped_ttl": end["data_dropped_ttl"],
        "dataplane.loop_breaks": end["loop_breaks"],
        "sim.fluid.ticks": end["fluid_ticks"],
        "sim.fluid.recomputes": end["fluid_recomputes"],
        "sim.fluid.reroutes": end["fluid_reroutes"],
        "sim.fluid.stalls": end["fluid_stalls"],
        "sim.fluid.peak_active": end["fluid_peak_active"],
        "topology.build_s": first["topology.build"]["dur"] * 1e-6,
        "compiler.compile_s": first["compiler.compile"]["dur"] * 1e-6,
        "compiler.pg_nodes": rep["pg_nodes"],
        "compiler.pg_edges": rep["pg_edges"],
        "dataplane.install_s": first["dataplane.install"]["dur"] * 1e-6,
        "workload.generate_s": sum(first[n]["dur"] for n in ("workload.generate", "workload.submit")
                                   if n in first) * 1e-6,
        "workload.flows": rep["flows"],
        "workload.flows_incomplete_frac": ratio(rep["incomplete"], rep["flows"]),
        "sim.events_clamped": end["events_clamped"],
        "dataplane.dense_fallback_hits": end["dense_fallback_hits"],
    })
    m.setdefault("sim.fluid.ns_per_flow", 0.0)
    for layer in LAYERS:
        self_us = sum(e["dur"] - child_time[e["args"]["id"]] for e in trace if e["cat"] == layer)
        m[f"{layer}.self_s"] = self_us * 1e-6
        m[f"{layer}.share"] = ratio(self_us * 1e-6, root_s)
    covered = sum(e["dur"] for e in trace if e["args"]["parent"] == root["args"]["id"])
    m["trace.span_coverage"] = ratio(covered, root["dur"])
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny variant of the workload")
    args = parser.parse_args()

    build()
    global DEADLINE
    DEADLINE = time.monotonic() + RUN_DEADLINE_S
    flags = flag_list(args.workload, args.smoke) + ["--seed", str(args.seed)]
    traced = args.trace == 1
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    manifest = {
        "workload": args.workload, "smoke": args.smoke, "seed": args.seed,
        "heldout_seed": HELDOUT_SEED, "trace": args.trace, "seconds": args.seconds,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(), "compiler": compiler_version(),
        "build_type": "Release", "git_rev": git_rev(),
        "loadavg_start": os.getloadavg()[0],
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="milliseconds"),
        "flags": flags,
    }

    # Timed runs, all traced or all untraced. After MIN_REPEATS, another run
    # starts only if one more of the last run's length still fits in --seconds.
    reps = []
    t0 = time.monotonic()
    last_s = 0.0
    while len(reps) < MIN_REPEATS or time.monotonic() - t0 + last_s <= args.seconds:
        started = time.monotonic()
        if traced:
            path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}-{len(reps)}.json")
            rep = run_driver(flags, ["--trace-out", path])
            rep["trace"] = load_trace(path)
        else:
            rep = run_driver(flags)
        reps.append(rep)
        last_s = time.monotonic() - started

    # Parity with contrasim at the same seed. A traced run checks the full
    # workload. An untraced run checks the smoke variant, because one more
    # full ft8_periodic simulation would not fit the run budget.
    parity_flags = flags if traced or args.smoke else (
        flag_list(args.workload, smoke=True) + ["--seed", str(args.seed)])
    reference = [l for l in run_program([CONTRASIM, *parity_flags]).splitlines()
                 if l.startswith(PARITY_PREFIXES)]
    mirror = reps[0] if parity_flags is flags else run_driver(parity_flags)
    setups = [] if traced else [run_driver(flags, ["--setup-only"])
                                for _ in range(SETUP_REPEATS)]
    manifest["rep_started_utc"] = [r["started_utc"] for r in reps + setups]
    manifest["parity_flags"] = parity_flags
    manifest["loadavg_end"] = os.getloadavg()[0]

    first = reps[0]
    parity = mirror["parity_lines"] == reference
    deterministic = len({simulated_outputs(r) for r in reps}) == 1
    counters = first["counters"]
    sentinels_zero = counters["events_clamped"] == 0 and counters["dense_fallback_hits"] == 0
    correct = parity and deterministic and sentinels_zero

    if traced:
        per_rep = [per_layer_metrics(r["trace"], r) for r in reps]
        metrics = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
        metrics["trace.overhead_s"] = statistics.median(r["trace_overhead_s"] for r in reps)
        units = PER_LAYER
    else:
        metrics = {
            "run_s": statistics.median(r["run_s"] for r in reps),
            "setup_s": statistics.median(r["setup_s"] for r in reps + setups),
            "host_s_per_sim_s": statistics.median(r["run_until_s"] / r["sim_s"] for r in reps),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in reps),
            "fct_mean_ms": first["fct_mean_ms"],
            "fct_p50_ms": first["fct_p50_ms"],
            "fct_p99_ms": first["fct_p99_ms"],
            "probe_bytes_share": first["probe_bytes_share"],
        }
        units = END_TO_END

    for line in first["parity_lines"]:
        print(line)
    print(f"runs    : {len(reps)} {'traced' if traced else 'untraced'}, "
          f"{len(setups)} set-up only")
    print(f"checks  : parity({'full' if parity_flags is flags else 'smoke'})="
          f"{'ok' if parity else 'MISMATCH'} "
          f"determinism={'ok' if deterministic else 'DRIFT'} "
          f"events_clamped={counters['events_clamped']} "
          f"dense_fallback_hits={counters['dense_fallback_hits']} "
          f"flows={first['flows']} flows_incomplete_frac="
          f"{first['incomplete'] / max(first['flows'], 1):.6g}")
    if not parity:
        print("contrasim reference:\n  " + "\n  ".join(reference))
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:>16.6g} {unit}")
    print("manifest: " + json.dumps(manifest))
    print(json.dumps({
        "correct": correct,
        "attempted": first["flows"],
        "failed": first["incomplete"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
