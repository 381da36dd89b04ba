// Engine profiling: wall-clock spans exported in the Chrome trace-event JSON
// format, loadable in Perfetto / chrome://tracing (`contrasim
// --engine-profile out.json`).
//
// Tracks map to trace `tid`s: one per shard (spans for mailbox drains and
// phase execution, recorded by the shard's own worker thread) plus one
// scheduler track for the main thread's planning, fork-join barriers and
// the caller's run windows.
// Thread safety is by construction — each track is written by exactly one
// thread, matching the engine's single-writer discipline — so add_span is a
// plain push_back with no synchronization. Profiling is opt-in; with no
// profiler attached the engine pays one null-check per phase.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace contra::obs {

class EngineProfiler {
 public:
  /// `num_tracks` = shards + 1; the last track is the scheduler.
  explicit EngineProfiler(uint32_t num_tracks);

  uint32_t num_tracks() const { return static_cast<uint32_t>(tracks_.size()); }
  uint32_t scheduler_track() const { return num_tracks() - 1; }

  /// Wall-clock µs since the profiler was constructed: the shared epoch of
  /// every span, whoever records it (engine phases, the caller's windows).
  double now_us() const {
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Records one complete span. `name` must outlive the profiler (the
  /// engine passes string literals). Times are µs on the now_us() clock.
  void add_span(uint32_t track, const char* name, double ts_us, double dur_us);

  size_t num_spans() const;

  /// Chrome trace-event JSON: {"traceEvents":[{"name","ph":"X","ts","dur",
  /// "pid":0,"tid":track}, …]} — complete-event ("X") spans only.
  void write_chrome_trace(std::ostream& out) const;

 private:
  struct Span {
    const char* name;
    double ts_us;
    double dur_us;
  };

  std::vector<std::vector<Span>> tracks_;
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
};

}  // namespace contra::obs
