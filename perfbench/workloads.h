// The benchmark's workloads and the per-interval record they fill.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // where the traced run writes its per-message spans
};

/// The measured time is cut into intervals of equal length; every timing
/// metric is the median over intervals of the per-interval value, so a
/// burst of host noise that hits a minority of intervals moves nothing.
/// With --trace 1 the first half of the intervals is untraced, the second
/// half traced.
struct Interval {
  uint64_t first_seq = 0;  // published sequences [first_seq, end_seq)
  uint64_t end_seq = 0;
  uint64_t t_begin = 0;  // CLOCK_MONOTONIC ns at the bracketing marks
  uint64_t t_end = 0;
  bool traced = false;

  Reservoir latency;  // due -> callback start, one sample per delivery
  std::array<Reservoir, kNumSpans> spans;  // self times, ns

  uint64_t expected = 0;  // deliveries the interval's publishes owe
  uint64_t verified = 0;  // delivered once, in order, payload intact
  uint64_t corrupt = 0;
  uint64_t misordered = 0;

  ProcCounters pub;  // publisher-process counter deltas
  ProcCounters sub;  // subscriber-process deltas (zero when co-located)
  double cpu_pub_ns = 0;
  double cpu_sub_ns = 0;
  uint64_t arena_live_max = 0;  // both processes; sampled when traced
  uint64_t shm_live_max = 0;
  uint64_t pub_dropped = 0;
  uint64_t sub_dropped = 0;
  uint64_t threads_pub = 0;
  uint64_t threads_sub = 0;

  explicit Interval(size_t reservoir) : latency(reservoir) {
    spans.fill(Reservoir(reservoir));
  }
  [[nodiscard]] uint64_t msgs() const noexcept { return end_seq - first_seq; }
  [[nodiscard]] double seconds() const noexcept {
    return static_cast<double>(t_end - t_begin) * 1e-9;
  }
};

/// Where a run's time goes: warm-up, then `count` intervals.
struct Schedule {
  uint64_t warmup_ns = 0;
  uint64_t interval_ns = 0;
  int count = 0;   // intervals in the run
  int traced = 0;  // the first traced interval (== count when untraced)

  Schedule(const Config& config, uint64_t warmup, uint64_t target_interval);
  /// Interval index of time offset `t` from the run start; -1 in warm-up.
  [[nodiscard]] int IndexAt(uint64_t t) const noexcept {
    return t < warmup_ns ? -1 : static_cast<int>((t - warmup_ns) / interval_ns);
  }
  [[nodiscard]] uint64_t total_ns() const noexcept {
    return warmup_ns + interval_ns * static_cast<uint64_t>(count);
  }
};

/// What one run of a workload produced.
struct Outcome {
  std::vector<std::string> errors;  // any entry makes the run incorrect
  std::vector<double> setup_s;      // one per set-up round
  std::vector<Interval> intervals;
  // Layer-exercise ratios over the whole measured round, read once every
  // delivery has landed (so both sides of each ratio are quiescent).
  double shm_descriptor_ratio = 0;
  double shm_zero_copy_ratio = 0;
  double intra_zero_copy_ratio = 0;
  double arena_direct_ratio = 0;
  uint64_t rss_setup_kib = 0;  // RSS once connected, both processes
  uint64_t rss_peak_kib = 0;   // peak RSS, both processes
  std::vector<int> pids;  // processes whose shm segments must be gone
  std::string trace_csv;  // per-message spans of the traced intervals
};

/// Same-host image stream, publisher here, subscriber a fork+exec'd child.
Outcome RunImageXproc(const Config& config, bool shm);
/// Child entry point of RunImageXproc (argv after the child flag).
int ImageSubscriberChild(int argc, char** argv);

/// In-process IMU fan-out to three subscriptions, closed loop.
Outcome RunImuIntra(const Config& config);

}  // namespace perfbench
