// Multi-seed sweep runner: runs the fat-tree (or Abilene) experiment across a
// seed range on a worker thread pool and writes a machine-readable JSON
// summary (per-seed results + aggregate events/sec + parallel efficiency).
//
// Each seed is an independent simulation with its own Simulator/EventQueue,
// so the sweep parallelizes embarrassingly; efficiency below ~1 measures
// scheduler + memory-bandwidth friction, not algorithmic contention. With
// --merge the sweep is appended as a "sweep" section to an existing
// BENCH_core.json so one file carries both the microbenchmarks and the
// end-to-end sweep.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct SeedResult {
  uint64_t seed = 0;
  uint64_t events = 0;
  double wall_s = 0.0;
  double fct_mean_s = 0.0;
  double fct_p99_s = 0.0;
  size_t completed = 0;
};

struct SweepConfig {
  std::string topology = "fat_tree";  // or "abilene"
  uint64_t first_seed = 1;
  int num_seeds = 8;
  int threads = 0;  // 0 = hardware_concurrency
  double load = 0.4;
  double duration_s = 10e-3;
  /// > 0: run each seed on the sharded parallel engine with this many
  /// worker threads (deterministic; orthogonal to the seed-level --threads
  /// pool). 0 = one shard, the serial engine.
  int workers = 0;
  int shards = 0;  ///< shard count when workers > 0; 0 = topology default
};

SeedResult run_one(const SweepConfig& cfg, uint64_t seed) {
  SeedResult out;
  out.seed = seed;
  const auto start = Clock::now();
  contra::bench::ExperimentResult result;
  if (cfg.topology == "abilene") {
    contra::bench::AbileneExperiment exp;
    exp.seed = seed;
    exp.load = cfg.load;
    exp.duration_s = cfg.duration_s;
    exp.workers = static_cast<uint32_t>(cfg.workers);
    exp.shards = static_cast<uint32_t>(cfg.shards);
    result = contra::bench::run_abilene_experiment(exp);
  } else {
    contra::bench::FatTreeExperiment exp;
    exp.seed = seed;
    exp.load = cfg.load;
    exp.duration_s = cfg.duration_s;
    exp.drain_s = 0.05;
    exp.workers = static_cast<uint32_t>(cfg.workers);
    exp.shards = static_cast<uint32_t>(cfg.shards);
    result = contra::bench::run_fat_tree_experiment(exp);
  }
  out.wall_s = seconds_since(start);
  out.events = result.events_processed;
  out.fct_mean_s = result.fct.mean_s;
  out.fct_p99_s = result.fct.p99_s;
  out.completed = result.fct.completed;
  return out;
}

std::string render_json(const SweepConfig& cfg, const std::vector<SeedResult>& seeds,
                        double wall_s, int threads) {
  uint64_t total_events = 0;
  double sum_task_s = 0.0;
  for (const SeedResult& r : seeds) {
    total_events += r.events;
    sum_task_s += r.wall_s;
  }
  // Speedup over serial execution = sum of task times / elapsed wall;
  // efficiency normalizes by the worker count.
  const double efficiency = wall_s > 0 ? sum_task_s / (wall_s * threads) : 0.0;

  std::ostringstream os;
  os << "{\n";
  os << "  \"bench\": \"seed_sweep\",\n";
  os << "  \"topology\": \"" << cfg.topology << "\",\n";
  os << "  \"threads\": " << threads << ",\n";
  os << "  \"engine_workers\": " << cfg.workers << ",\n";
  os << "  \"engine_shards\": " << cfg.shards << ",\n";
  os << "  \"load\": " << cfg.load << ",\n";
  os << "  \"duration_s\": " << cfg.duration_s << ",\n";
  os << "  \"per_seed\": [\n";
  for (size_t i = 0; i < seeds.size(); ++i) {
    const SeedResult& r = seeds[i];
    os << "    {\"seed\": " << r.seed << ", \"events\": " << r.events
       << ", \"wall_s\": " << r.wall_s << ", \"completed_flows\": " << r.completed
       << ", \"fct_mean_s\": " << r.fct_mean_s << ", \"fct_p99_s\": " << r.fct_p99_s << "}"
       << (i + 1 < seeds.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"total_events\": " << total_events << ",\n";
  os << "  \"wall_s\": " << wall_s << ",\n";
  os << "  \"events_per_sec\": " << (wall_s > 0 ? total_events / wall_s : 0.0) << ",\n";
  os << "  \"sum_task_s\": " << sum_task_s << ",\n";
  os << "  \"parallel_efficiency\": " << efficiency << "\n";
  os << "}";
  return os.str();
}

/// Splices `sweep` into `path` as a top-level "sweep" key (the file must be a
/// JSON object; the existing contents are preserved).
bool merge_into(const std::string& path, const std::string& sweep) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_runner: cannot read %s\n", path.c_str());
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string body = buffer.str();
  const size_t brace = body.find_last_of('}');
  if (brace == std::string::npos) {
    std::fprintf(stderr, "bench_runner: %s is not a JSON object\n", path.c_str());
    return false;
  }
  body.resize(brace);  // drop the final '}' (and anything after)
  while (!body.empty() && (body.back() == '\n' || body.back() == ' ')) body.pop_back();
  std::ofstream out(path);
  out << body << ",\n  \"sweep\": " << sweep << "\n}\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  SweepConfig cfg;
  std::string out_path = "BENCH_sweep.json";
  std::string merge_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--topo") cfg.topology = value();
    else if (arg == "--seeds") cfg.num_seeds = std::atoi(value());
    else if (arg == "--first-seed") cfg.first_seed = std::strtoull(value(), nullptr, 10);
    else if (arg == "--threads") cfg.threads = std::atoi(value());
    else if (arg == "--workers") cfg.workers = std::atoi(value());
    else if (arg == "--shards") cfg.shards = std::atoi(value());
    else if (arg == "--load") cfg.load = std::atof(value());
    else if (arg == "--duration") cfg.duration_s = std::atof(value());
    else if (arg == "--out") out_path = value();
    else if (arg == "--merge") merge_path = value();
    else {
      std::fprintf(stderr,
                   "usage: bench_runner [--topo fat_tree|abilene] [--seeds N] [--first-seed S]\n"
                   "                    [--threads N] [--load F] [--duration SEC]\n"
                   "                    [--workers N] [--shards N]   (parallel engine per seed)\n"
                   "                    [--out FILE] [--merge BENCH_core.json]\n");
      return 2;
    }
  }

  if (cfg.topology != "fat_tree" && cfg.topology != "abilene") {
    std::fprintf(stderr, "bench_runner: unknown --topo %s (want fat_tree or abilene)\n",
                 cfg.topology.c_str());
    return 2;
  }

  // With the parallel engine active, the engine owns the cores: default the
  // seed-level pool to one task at a time instead of oversubscribing.
  int threads = cfg.threads > 0 ? cfg.threads
                : cfg.workers > 0 ? 1
                                  : static_cast<int>(std::thread::hardware_concurrency());
  if (threads < 1) threads = 1;
  if (threads > cfg.num_seeds) threads = cfg.num_seeds;

  std::vector<SeedResult> results(static_cast<size_t>(cfg.num_seeds));
  std::atomic<int> next{0};
  const auto start = Clock::now();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (int i = next.fetch_add(1); i < cfg.num_seeds; i = next.fetch_add(1)) {
        results[static_cast<size_t>(i)] = run_one(cfg, cfg.first_seed + static_cast<uint64_t>(i));
      }
    });
  }
  for (std::thread& t : pool) t.join();
  const double wall_s = seconds_since(start);

  const std::string json = render_json(cfg, results, wall_s, threads);
  if (!merge_path.empty()) {
    if (!merge_into(merge_path, json)) return 1;
    std::printf("merged sweep into %s\n", merge_path.c_str());
  } else {
    std::ofstream out(out_path);
    out << json << "\n";
    std::printf("wrote %s\n", out_path.c_str());
  }

  uint64_t total_events = 0;
  double sum_task_s = 0.0;
  for (const SeedResult& r : results) {
    total_events += r.events;
    sum_task_s += r.wall_s;
  }
  std::printf("%s: %d seeds on %d threads: %llu events in %.3f s (%.0f ev/s), efficiency %.2f\n",
              cfg.topology.c_str(), cfg.num_seeds, threads,
              static_cast<unsigned long long>(total_events), wall_s,
              wall_s > 0 ? total_events / wall_s : 0.0,
              wall_s > 0 ? sum_task_s / (wall_s * threads) : 0.0);
  return 0;
}
