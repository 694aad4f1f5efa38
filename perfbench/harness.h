// Shared pieces of the repository benchmark: CLOCK_MONOTONIC stamps, the
// seed-derived payload pattern, per-delivery ordering checks, bounded sample
// reservoirs, per-process counter snapshots and host facts.
//
// Everything here sits OUTSIDE the middleware: the benchmark times its own
// calls into `sfm`, `ros` and `net` and differences their public counters.
#pragma once

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// ---- clock ----

/// CLOCK_MONOTONIC nanoseconds: shared by every process on the host, never
/// stepped by NTP.  Message stamps carry this value, not wall-clock time.
inline uint64_t NowNs() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// NowNs() when a span is being recorded, 0 otherwise.
inline uint64_t StampIf(bool traced) noexcept { return traced ? NowNs() : 0; }

/// Sleeps until the absolute CLOCK_MONOTONIC time `deadline_ns`.
void SleepUntilNs(uint64_t deadline_ns);

// ---- CPU placement ----
//
// The publisher side of a workload runs on the first allowed CPU and the
// subscriber side on the second: the whole subscriber process on the
// cross-process workloads, the spinner thread on the in-process one.  Left
// to the scheduler, where the threads landed changed from run to run and
// was the largest source of run-to-run spread.

/// The CPUs this process may use, read once at first call (call it before
/// restricting anything).
const std::vector<int>& AllowedCpus();
/// Restricts the calling thread, and every thread it creates from now on,
/// to the index-th allowed CPU (wrapping around on a one-CPU host).
void UseCpu(int index);
/// Lifts the restriction again (between fork and exec, so a child starts
/// from the full set).
void UseAllCpus();

// ---- inputs derived from the seed ----

/// splitmix64 finalizer.
inline uint64_t Mix(uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// The word a message with sequence `seq` carries at slot `index`.
inline uint64_t Pattern(uint64_t seed, uint64_t seq, uint64_t index) noexcept {
  return Mix(Mix(seed) ^ Mix(seq * 0x100000001B3ull + index));
}

/// Stamps a payload of `size` bytes (>= 8): one pattern word at the start
/// of every 4 KiB page, so every page is touched, plus one in the last
/// eight bytes.
void WritePayload(uint8_t* data, size_t size, uint64_t seed, uint64_t seq);
/// Checks the first and last words and 16 pages chosen by seq.
bool CheckPayload(const uint8_t* data, size_t size, uint64_t seed,
                  uint64_t seq);

/// A double in [0, 1) derived from the same pattern (IMU fields).
inline double PatternDouble(uint64_t seed, uint64_t seq,
                            uint64_t index) noexcept {
  return static_cast<double>(Pattern(seed, seq, index) >> 11) * 0x1.0p-53;
}

// ---- delivery verification ----

/// Per-delivery outcome bits.
enum DeliveryFlags : uint32_t {
  kDelivered = 1u << 0,
  kVerified = 1u << 1,  // payload intact, first delivery, in order
  kCorrupt = 1u << 2,   // payload or metadata mismatch
  kMisordered = 1u << 3,  // duplicate or arrived after a later sequence
};

/// Exactly-once, in-order check for one subscriber.
class OrderCheck {
 public:
  /// Returns true when `seq` is the next new sequence (gaps are allowed —
  /// the skipped sequences simply never verify).
  bool Accept(uint64_t seq) noexcept {
    if (seq < next_) return false;
    next_ = seq + 1;
    return true;
  }

 private:
  uint64_t next_ = 0;
};

// ---- statistics ----

/// Bounded uniform sample of a stream (Algorithm R) so long, fast runs keep
/// a fixed footprint: the benchmark's own memory shows up in the RSS metrics.
class Reservoir {
 public:
  explicit Reservoir(size_t capacity = 1u << 15) : capacity_(capacity) {}

  void Add(double value) {
    ++seen_;
    if (samples_.size() < capacity_) {
      samples_.push_back(static_cast<float>(value));
      return;
    }
    rng_ = Mix(rng_);
    const uint64_t slot = rng_ % seen_;
    if (slot < capacity_) samples_[slot] = static_cast<float>(value);
  }

  /// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
  [[nodiscard]] double Quantile(double q) const {
    if (samples_.empty()) return 0.0;
    std::vector<float> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
  }

 private:
  size_t capacity_;
  std::vector<float> samples_;
  uint64_t seen_ = 0;
  uint64_t rng_ = 0x5EED;
};

/// The benchmark's spans, in causal order.  A span's self time is its
/// duration minus the child spans inside it; only app.fill has a child
/// (sfm.expand, the `data.resize` inside the fill).
enum Span : int {
  kGenLag,      // due time -> generator woke (open loops)
  kNewMessage,  // sfm::make_message<M>()
  kExpand,      // the one growing field write (data.resize / frame_id)
  kFill,        // field writes, self time (excludes sfm.expand)
  kPublish,     // Publisher::publish()
  kHandoff,     // publish() return -> callback start
  kCallback,    // callback start -> end (verification included)
  kNumSpans,
};
extern const char* const kSpanNames[kNumSpans];

// ---- counters ----

/// One process's public counters at an instant.  All fields are plain
/// integers so the subscriber child can ship snapshots over a pipe as-is.
struct ProcCounters {
  uint64_t cpu_ns = 0;  // user + sys, whole process
  uint64_t threads = 0;
  uint64_t io_syscalls = 0;
  uint64_t io_sendmsg = 0;
  uint64_t io_recv = 0;
  uint64_t io_epoll_waits = 0;
  uint64_t io_uring_enters = 0;
  uint64_t frame_builds = 0;
  uint64_t descriptor_builds = 0;
  uint64_t scratch_allocations = 0;
  uint64_t arena_direct = 0;
  uint64_t mm_allocations = 0;
  uint64_t mm_borrows = 0;
  uint64_t shm_gen_fence_rejections = 0;

  static ProcCounters Take();
  /// Field-wise this - earlier.
  [[nodiscard]] ProcCounters Since(const ProcCounters& earlier) const;
};

/// Live arena blocks over every size class (heap and shm backed).
uint64_t ArenaLiveBlocks();
/// Live blocks of this process's shm pool.
uint64_t ShmLiveBlocks();
/// A numeric field of /proc/<pid>/status ("Threads"; "VmRSS" and "VmHWM",
/// the peak, in KiB); pid 0 is this process.
uint64_t ProcStatus(const char* field, int pid = 0);

// ---- output ----

/// Host facts recorded with every result, as a JSON object.
std::string HostFactsJson(uint64_t threads_pub, uint64_t threads_sub);

/// Minimal JSON number formatting: full precision, never NaN/inf.
std::string JsonNumber(double value);

}  // namespace perfbench
