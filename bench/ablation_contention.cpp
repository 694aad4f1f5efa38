// Ablation: message-manager contention scaling (the hot-path cost the paper
// says must stay below serialization, §4.2).  N publisher threads each cycle
// their own messages through ONE shared manager — Allocate, many Expands
// (sfm::string / sfm::vector payload grants), Publish, Release — which is
// exactly the multi-publisher fan-out shape of Fig. 14 / the SLAM pipeline
// (Fig. 18).
//
// Two managers run the identical workload:
//   seed_mutex : a faithful replica of the seed's manager — one global
//                std::mutex, std::map binary search per Expand, memset
//                inside the critical section.
//   rossf      : the current sfm::MessageManager — shared_mutex index,
//                thread-local record cache, CAS size bump, memset outside
//                the lock.
//
// Prints a table and writes BENCH_contention.json into the working
// directory.
#include <algorithm>
#include <barrier>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "sfm/message_manager.h"

namespace {

// ---- the seed's manager, replicated for the baseline ----
class SeedMutexManager {
 public:
  void* Allocate(const char* datatype, size_t capacity, size_t skeleton) {
    sfm::PooledBlock pooled = sfm::AcquireArenaBlock(capacity);
    auto block = std::shared_ptr<uint8_t[]>(pooled.release(),
                                            sfm::PooledDeleter{capacity});
    uint8_t* start = block.get();
    std::memset(start, 0, skeleton);
    Record record;
    record.start = start;
    record.capacity = capacity;
    record.size = skeleton;
    record.buffer = std::move(block);
    record.datatype = datatype;
    std::lock_guard<std::mutex> lock(mutex_);
    records_.emplace(reinterpret_cast<uintptr_t>(start), std::move(record));
    return start;
  }

  void* Expand(const void* field_addr, size_t bytes, size_t align) {
    if (align == 0 || (align & (align - 1)) != 0) return nullptr;
    std::lock_guard<std::mutex> lock(mutex_);
    const auto key = reinterpret_cast<uintptr_t>(field_addr);
    auto it = records_.upper_bound(key);
    if (it == records_.begin()) return nullptr;
    --it;
    Record& record = it->second;
    if (key >= it->first + record.capacity) return nullptr;
    const size_t aligned_end = (record.size + align - 1) & ~(align - 1);
    if (aligned_end + bytes > record.capacity) return nullptr;
    uint8_t* out = record.start + aligned_end;
    std::memset(out, 0, bytes);  // seed zeroed inside the lock
    record.size = aligned_end + bytes;
    ++expansions_;  // seed kept stats under the same lock
    return out;
  }

  sfm::BufferRef Publish(const void* start) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = records_.find(reinterpret_cast<uintptr_t>(start));
    it->second.state = 1;
    ++publishes_;
    return {std::shared_ptr<const uint8_t[]>(it->second.buffer),
            it->second.size};
  }

  bool Release(void* start) {
    std::lock_guard<std::mutex> lock(mutex_);
    return records_.erase(reinterpret_cast<uintptr_t>(start)) > 0;
  }

 private:
  struct Record {
    uint8_t* start = nullptr;
    size_t capacity = 0;
    size_t size = 0;
    int state = 0;
    std::shared_ptr<uint8_t[]> buffer;
    const char* datatype = "";
  };
  std::mutex mutex_;
  std::map<uintptr_t, Record> records_;
  uint64_t expansions_ = 0;  // the seed's ManagerStats lived under the lock
  uint64_t publishes_ = 0;
};

// Thin adapter so both managers run the template below.
struct RossfManager {
  sfm::MessageManager mm;
  void* Allocate(const char* d, size_t c, size_t s) {
    return mm.Allocate(d, c, s);
  }
  void* Expand(const void* a, size_t b, size_t al) {
    return mm.Expand(a, b, al);
  }
  sfm::BufferRef Publish(const void* s) { return *mm.Publish(s); }
  bool Release(void* s) { return mm.Release(s); }
};

struct Workload {
  // Long enough that the 1-thread timed region spans many scheduler ticks;
  // millisecond-scale runs are dominated by where the tick happens to land.
  int messages_per_thread = 3000;
  int expands_per_message = 64;
  // Small grants: the bench isolates the MANAGER's bookkeeping cost (the
  // paper's §4.2 concern), not memset bandwidth, which both variants pay
  // identically.  Think header stamps, frame ids, small strings.
  size_t grant_bytes = 32;
  size_t skeleton = 64;
  // Messages held live for the whole run, emulating in-flight transport
  // references and other topics' arenas (the paper quotes its lookup cost
  // at 512 live messages).  Depth for the seed's per-Expand binary search;
  // the rossf thread cache skips the search entirely.
  int standing_live = 512;

  [[nodiscard]] size_t capacity() const {
    return skeleton + expands_per_message * grant_bytes + 64;
  }
  [[nodiscard]] uint64_t OpsPerThread() const {
    // The metric the paper cares about: manager touches per message — every
    // Expand plus the Publish (Allocate/Release ride along uncounted).
    return static_cast<uint64_t>(messages_per_thread) *
           (expands_per_message + 1);
  }
};

/// Runs the workload on `threads` publisher threads sharing one `manager`;
/// returns aggregate Expand+Publish operations per second.
template <typename Manager>
double RunContended(Manager& manager, int threads, const Workload& load) {
  std::barrier start_line(threads + 1);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      start_line.arrive_and_wait();
      for (int m = 0; m < load.messages_per_thread; ++m) {
        void* msg =
            manager.Allocate("bench/Contention", load.capacity(), load.skeleton);
        for (int e = 0; e < load.expands_per_message; ++e) {
          void* granted = manager.Expand(msg, load.grant_bytes, 8);
          static_cast<uint8_t*>(granted)[0] = 1;  // touch the grant
        }
        auto buffer = manager.Publish(msg);
        (void)buffer;
        manager.Release(msg);
      }
    });
  }
  // Start the clock BEFORE releasing the barrier: on a loaded (or one-core)
  // host the workers can run to completion before this thread is
  // rescheduled, which would undercount the elapsed time to ~zero.
  const rsf::Stopwatch watch;
  start_line.arrive_and_wait();
  for (auto& worker : workers) worker.join();
  const double seconds = watch.ElapsedNanos() * 1e-9;
  return static_cast<double>(load.OpsPerThread()) * threads / seconds;
}

}  // namespace

int main(int argc, char** argv) {
  Workload load;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--full") {
      load.messages_per_thread = 4000;
    } else if (arg == "--msgs" && i + 1 < argc) {
      load.messages_per_thread = std::atoi(argv[++i]);
    } else if (arg == "--expands" && i + 1 < argc) {
      load.expands_per_message = std::atoi(argv[++i]);
    } else if (arg == "--standing" && i + 1 < argc) {
      load.standing_live = std::atoi(argv[++i]);
    }
  }
  // Zero or negative values would divide by zero (NaN speedups, malformed
  // JSON); clamp instead of crashing on a typo.
  load.messages_per_thread = std::max(load.messages_per_thread, 1);
  load.expands_per_message = std::max(load.expands_per_message, 1);
  load.standing_live = std::max(load.standing_live, 0);

  std::printf(
      "=== Ablation: manager contention, %d msgs/thread x %d expands "
      "(grant %zuB, %d standing live) ===\n\n",
      load.messages_per_thread, load.expands_per_message, load.grant_bytes,
      load.standing_live);
  std::printf("  %-8s %18s %18s %10s\n", "threads", "seed-mutex ops/s",
              "ros-sf ops/s", "speedup");

  struct Row {
    int threads;
    double seed_ops;
    double rossf_ops;
    double speedup;
  };
  // Pin the CPU at its working frequency before any timed region; otherwise
  // governor ramp-up flatters whichever variant happens to run later.
  {
    const rsf::Stopwatch spin;
    volatile uint64_t sink = 0;
    while (spin.ElapsedNanos() < 300'000'000) sink = sink + 1;
  }

  // Seeds a standing population of live arenas (in-flight transport
  // references, other topics' messages) so the per-Expand index search has
  // realistic depth, then runs one warmup pass.
  const auto prepare = [&load](auto& manager, std::vector<void*>& standing) {
    standing.reserve(load.standing_live);
    for (int i = 0; i < load.standing_live; ++i) {
      standing.push_back(
          manager.Allocate("bench/Standing", load.capacity(), load.skeleton));
    }
    Workload warmup = load;
    warmup.messages_per_thread = 64;
    (void)RunContended(manager, 1, warmup);
  };

  std::vector<Row> rows;
  for (const int threads : {1, 2, 4, 8}) {
    // Fresh managers per cell so record counts start identical.
    SeedMutexManager seed;
    RossfManager rossf;
    std::vector<void*> seed_standing, rossf_standing;
    prepare(seed, seed_standing);
    prepare(rossf, rossf_standing);
    // Interleave the timed reps (seed, rossf, seed, rossf, ...).  The two
    // runs of a pair execute back to back, so they see the same ambient
    // load; the MEDIAN of the per-pair ratios cancels the machine-level
    // drift that makes absolute ops/s jitter by ±30% on a shared host.
    double seed_ops = 0.0;
    double rossf_ops = 0.0;
    std::vector<double> ratios;
    for (int rep = 0; rep < 5; ++rep) {
      const double seed_run = RunContended(seed, threads, load);
      const double rossf_run = RunContended(rossf, threads, load);
      seed_ops = std::max(seed_ops, seed_run);
      rossf_ops = std::max(rossf_ops, rossf_run);
      ratios.push_back(rossf_run / seed_run);
    }
    std::sort(ratios.begin(), ratios.end());
    const double speedup = ratios[ratios.size() / 2];
    for (void* msg : seed_standing) seed.Release(msg);
    for (void* msg : rossf_standing) rossf.Release(msg);
    rows.push_back({threads, seed_ops, rossf_ops, speedup});
    std::printf("  %-8d %18.0f %18.0f %9.2fx\n", threads, seed_ops, rossf_ops,
                speedup);
  }

  FILE* json = std::fopen("BENCH_contention.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"ablation_contention\",\n"
                 "  \"unit\": \"expand+publish ops/sec, aggregate\",\n"
                 "  \"speedup\": \"median of paired-run ratios\",\n"
                 "  \"messages_per_thread\": %d,\n"
                 "  \"expands_per_message\": %d,\n"
                 "  \"grant_bytes\": %zu,\n  \"standing_live\": %d,\n"
                 "  \"results\": [\n",
                 load.messages_per_thread, load.expands_per_message,
                 load.grant_bytes, load.standing_live);
    for (size_t i = 0; i < rows.size(); ++i) {
      std::fprintf(json,
                   "    {\"threads\": %d, \"seed_mutex_ops_per_sec\": %.0f, "
                   "\"rossf_ops_per_sec\": %.0f, \"speedup\": %.3f}%s\n",
                   rows[i].threads, rows[i].seed_ops, rows[i].rossf_ops,
                   rows[i].speedup, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("\n  wrote BENCH_contention.json\n");
  }
  return 0;
}
