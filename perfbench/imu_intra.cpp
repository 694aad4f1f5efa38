// imu_intra_fanout: sensor_msgs/sfm/Imu published as shared_ptr (the intra
// zero-copy tier) to three subscriptions of one subscriber node in this
// process, which share that node's single spinner.  Closed loop: at most
// kInFlight messages are in flight, well under the queue depth, so
// drop-oldest never fires.
//
// Per-message stamps live in a ring indexed by seq.  The publisher thread
// folds a slot into its interval's statistics just before reusing it; the
// in-flight bound guarantees all three callbacks of that message are done.
#include <linux/futex.h>
#include <pthread.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string_view>
#include <thread>

#include "ros/ros.h"
#include "sensor_msgs/sfm/Imu.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Imu = sensor_msgs::sfm::Imu;

constexpr const char* kTopic = "/perfbench/imu";
constexpr int kFanout = 3;
constexpr uint64_t kInFlight = 16;  // messages in flight, at most
constexpr uint64_t kRing = 64;
constexpr size_t kQueueDepth = 64;
constexpr uint64_t kWarmupNs = 300'000'000;
constexpr uint64_t kIntervalNs = 1'000'000'000;
constexpr size_t kReservoir = 4096;  // per interval: p99 keeps 40 beyond
constexpr uint64_t kStallNs = 5'000'000'000ull;
constexpr int kSetupRounds = 31;

struct alignas(64) Slot {
  uint64_t seq = ~0ull;
  int interval = -1;  // -1 is the warm-up
  uint64_t due = 0;
  uint64_t new_end = 0;
  uint64_t expand_start = 0;
  uint64_t expand_end = 0;
  uint64_t fill_end = 0;
  uint64_t pub_end = 0;
  uint64_t cb_start[kFanout] = {};
  uint64_t cb_end[kFanout] = {};
  uint32_t flags[kFanout] = {};
  std::atomic<int> done{0};
};

uint64_t ThreadCpuNs(pthread_t thread) {
  clockid_t clock;
  if (pthread_getcpuclockid(thread, &clock) != 0) return 0;
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Every IMU field is a function of (seed, seq, field index).
constexpr int kImuDoubles = 4 + 9 + 3 + 9 + 3 + 9;

template <typename F>
void ForEachDouble(const Imu& msg, F&& f) {
  int i = 0;
  f(i++, msg.orientation.x);
  f(i++, msg.orientation.y);
  f(i++, msg.orientation.z);
  f(i++, msg.orientation.w);
  for (const double& v : msg.orientation_covariance) f(i++, v);
  f(i++, msg.angular_velocity.x);
  f(i++, msg.angular_velocity.y);
  f(i++, msg.angular_velocity.z);
  for (const double& v : msg.angular_velocity_covariance) f(i++, v);
  f(i++, msg.linear_acceleration.x);
  f(i++, msg.linear_acceleration.y);
  f(i++, msg.linear_acceleration.z);
  for (const double& v : msg.linear_acceleration_covariance) f(i++, v);
}

void FillImu(Imu& msg, uint64_t seed, uint64_t seq, uint64_t due, bool traced,
             Slot* slot) {
  msg.header.seq = static_cast<uint32_t>(seq);
  msg.header.stamp = rsf::Time::FromNanos(due);
  slot->expand_start = StampIf(traced);
  msg.header.frame_id = "imu";
  slot->expand_end = StampIf(traced);
  ForEachDouble(msg, [&](int i, const double& field) {
    const_cast<double&>(field) = PatternDouble(seed, seq, i);
  });
}

bool VerifyImu(const Imu& msg, uint64_t seed, uint64_t seq) {
  if (!(msg.header.frame_id == std::string_view("imu"))) return false;
  bool ok = true;
  ForEachDouble(msg, [&](int i, const double& field) {
    ok = ok && field == PatternDouble(seed, seq, i);
  });
  return ok;
}
static_assert(kImuDoubles == 37);

long Futex(std::atomic<uint32_t>* word, int op, uint32_t value,
           const timespec* timeout) {
  return ::syscall(SYS_futex, reinterpret_cast<uint32_t*>(word), op, value,
                   timeout, nullptr, 0);
}

/// The graph: one publisher node, one subscriber node with three
/// subscriptions on its callback queue.
struct Graph {
  std::unique_ptr<ros::NodeHandle> pub_node;
  std::unique_ptr<ros::NodeHandle> sub_node;
  ros::Publisher pub;
  std::vector<ros::Subscriber> subs;
  double setup_s = 0;

  bool Connect(const std::function<void(int, const Imu::ConstPtr&)>& callback) {
    const uint64_t start = NowNs();
    pub_node = std::make_unique<ros::NodeHandle>("perfbench_imu_pub");
    sub_node = std::make_unique<ros::NodeHandle>("perfbench_imu_sub");
    pub = pub_node->advertise<Imu>(kTopic, kQueueDepth);
    for (int k = 0; k < kFanout; ++k) {
      subs.push_back(sub_node->subscribe<Imu>(
          kTopic, kQueueDepth,
          std::function<void(const Imu::ConstPtr&)>(
              [callback, k](const Imu::ConstPtr& msg) { callback(k, msg); })));
    }
    const uint64_t deadline = start + 10'000'000'000ull;
    while (pub.getNumSubscribers() != kFanout) {
      if (NowNs() > deadline) return false;
      std::this_thread::yield();
    }
    setup_s = static_cast<double>(NowNs() - start) * 1e-9;
    return true;
  }

  void Teardown(std::thread* spinner = nullptr) {
    sub_node->shutdown();
    if (spinner != nullptr) spinner->join();
    for (auto& sub : subs) sub.shutdown();
    subs.clear();
    pub.shutdown();
    sub_node.reset();
    pub_node.reset();
  }
};

}  // namespace

Outcome RunImuIntra(const Config& config) {
  Outcome out;
  out.pids.push_back(static_cast<int>(::getpid()));
  UseCpu(0);  // the generator and the middleware's threads

  for (int r = 0; r + 1 < kSetupRounds; ++r) {
    Graph graph;
    if (!graph.Connect([](int, const Imu::ConstPtr&) {})) {
      out.errors.push_back("set-up round: subscribers never connected");
      return out;
    }
    out.setup_s.push_back(graph.setup_s);
    graph.Teardown();
  }

  const Schedule schedule(config, kWarmupNs, kIntervalNs);
  std::vector<Slot> ring(kRing);
  std::atomic<uint32_t> deliveries{0};  // futex word
  std::atomic<uint32_t> wake_at{0};     // publisher sleeps until deliveries reach it
  std::atomic<bool> traced_now{false};
  uint64_t corrupt = 0;
  OrderCheck order[kFanout];

  const auto callback = [&](int k, const Imu::ConstPtr& msg) {
    const uint64_t start = NowNs();
    const uint64_t seq = msg->header.seq;
    uint32_t flags = kDelivered;
    if (!VerifyImu(*msg, config.seed, seq)) {
      flags |= kCorrupt;
      ++corrupt;
      std::fprintf(stderr, "perfbench: CORRUPT imu message, seq %llu\n",
                   static_cast<unsigned long long>(seq));
    }
    if (!order[k].Accept(seq)) flags |= kMisordered;
    if ((flags & (kCorrupt | kMisordered)) == 0) flags |= kVerified;
    Slot& slot = ring[seq % kRing];
    if (slot.seq == seq) {
      slot.cb_start[k] = start;
      slot.cb_end[k] = StampIf(traced_now.load(std::memory_order_relaxed));
      slot.flags[k] = flags;
      slot.done.fetch_add(1, std::memory_order_release);
    }
    const uint32_t now = deliveries.fetch_add(1) + 1;
    uint32_t target = wake_at.load();
    // Clear only the target we read: the publisher may already be waiting
    // for a newer one.
    if (target != 0 && now >= target &&
        wake_at.compare_exchange_strong(target, 0)) {
      Futex(&deliveries, FUTEX_WAKE_PRIVATE, 1, nullptr);
    }
  };

  Graph graph;
  if (!graph.Connect(callback)) {
    out.errors.push_back("subscribers never connected");
    return out;
  }
  out.setup_s.push_back(graph.setup_s);
  out.rss_setup_kib = ProcStatus("VmRSS");
  std::thread spinner([&graph] {
    UseCpu(1);  // the subscriber side, as in the cross-process workloads
    graph.sub_node->spin();
  });
  const pthread_t spinner_handle = spinner.native_handle();

  std::vector<ProcCounters> marks;
  std::vector<uint64_t> mark_seq;
  std::vector<uint64_t> mark_time;
  std::vector<uint64_t> mark_spinner_cpu;
  std::vector<uint64_t> mark_pub_dropped;
  std::vector<uint64_t> mark_sub_dropped;
  const auto mark = [&](uint64_t seq) {
    mark_time.push_back(NowNs());
    mark_seq.push_back(seq);
    marks.push_back(ProcCounters::Take());
    mark_spinner_cpu.push_back(ThreadCpuNs(spinner_handle));
    mark_pub_dropped.push_back(graph.pub.getStats().dropped);
    uint64_t dropped = 0;
    for (const auto& sub : graph.subs) dropped += sub.droppedCount();
    mark_sub_dropped.push_back(dropped);
  };
  std::vector<uint64_t> arena_max(schedule.count, 0);

  // Waits until at least `need` deliveries happened; false on a stall.
  const auto wait_for = [&](uint64_t need) {
    const uint64_t deadline = NowNs() + kStallNs;
    for (;;) {
      const uint32_t have = deliveries.load();
      if (have >= need) return true;
      if (NowNs() > deadline) return false;
      wake_at.store(static_cast<uint32_t>(need));
      if (deliveries.load() >= need) continue;
      const timespec timeout{0, 100'000'000};
      Futex(&deliveries, FUTEX_WAIT_PRIVATE, have, &timeout);
    }
  };

  const auto wait_done = [](const Slot& slot) {
    const uint64_t deadline = NowNs() + kStallNs;
    while (slot.done.load(std::memory_order_acquire) != kFanout) {
      if (NowNs() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  };

  const auto fold = [&](Slot& slot) {
    if (slot.interval < 0) return;
    Interval& iv = out.intervals[static_cast<size_t>(slot.interval)];
    const bool traced = iv.traced;
    iv.expected += kFanout;
    iv.spans[kPublish].Add(static_cast<double>(slot.pub_end - slot.fill_end));
    if (traced) {
      iv.spans[kNewMessage].Add(static_cast<double>(slot.new_end - slot.due));
      const uint64_t expand = slot.expand_end - slot.expand_start;
      iv.spans[kExpand].Add(static_cast<double>(expand));
      iv.spans[kFill].Add(
          static_cast<double>(slot.fill_end - slot.new_end - expand));
    }
    for (int k = 0; k < kFanout; ++k) {
      if (slot.flags[k] & kCorrupt) ++iv.corrupt;
      if (slot.flags[k] & kMisordered) ++iv.misordered;
      if (!(slot.flags[k] & kVerified)) continue;
      ++iv.verified;
      iv.latency.Add(static_cast<double>(slot.cb_start[k] - slot.due));
      if (traced) {
        iv.spans[kHandoff].Add(static_cast<double>(slot.cb_start[k]) -
                                static_cast<double>(slot.pub_end));
        iv.spans[kCallback].Add(
            static_cast<double>(slot.cb_end[k] - slot.cb_start[k]));
      }
    }
  };

  const uint64_t t0 = NowNs();
  int current = -1;
  uint64_t seq = 0;
  bool stalled = false;
  for (;; ++seq) {
    const uint64_t now = NowNs();
    if (now >= t0 + schedule.total_ns()) break;
    const int index = schedule.IndexAt(now - t0);
    while (current < index) {  // a stall may skip an interval
      mark(seq);
      ++current;
      out.intervals.emplace_back(kReservoir).traced =
          current >= schedule.traced;
      traced_now.store(current >= schedule.traced);
    }
    const bool traced = index >= schedule.traced;
    // Publishing seq must leave at most kInFlight messages in flight.
    if (seq >= kInFlight && !wait_for(kFanout * (seq + 1 - kInFlight))) {
      stalled = true;
      break;
    }
    Slot& slot = ring[seq % kRing];
    if (slot.seq != ~0ull) {
      if (!wait_done(slot)) {
        stalled = true;
        break;
      }
      fold(slot);
    }
    slot.seq = seq;
    slot.interval = index;
    slot.done.store(0, std::memory_order_relaxed);
    slot.due = NowNs();
    auto msg = sfm::make_message<Imu>();
    slot.new_end = StampIf(traced);
    FillImu(*msg, config.seed, seq, slot.due, traced, &slot);
    slot.fill_end = NowNs();
    graph.pub.publish(std::shared_ptr<const Imu>(std::move(msg)));
    slot.pub_end = NowNs();
    if (traced && seq % 256 == 0) {
      arena_max[index] = std::max(arena_max[index], ArenaLiveBlocks());
    }
  }
  const uint64_t published = seq;
  if (!stalled && !wait_for(kFanout * published)) stalled = true;
  mark(published);
  if (stalled) {
    out.errors.push_back("imu_intra_fanout: deliveries stalled (a message was lost)");
  } else {
    for (Slot& slot : ring) {
      if (slot.seq == ~0ull) continue;
      if (!wait_done(slot)) {
        out.errors.push_back("imu_intra_fanout: a delivery never arrived");
        break;
      }
      fold(slot);
    }
  }

  // Layer-exercise proof over the whole measured round (quiescent now).
  const auto stats = graph.pub.getStats();
  out.intra_zero_copy_ratio =
      stats.intra_delivered == 0
          ? 0.0
          : static_cast<double>(stats.intra_zero_copy) /
                static_cast<double>(stats.intra_delivered);
  const uint64_t net_sends = marks.back().io_sendmsg - marks.front().io_sendmsg;
  if (stats.intra_delivered == 0 ||
      stats.intra_zero_copy != stats.intra_delivered || net_sends != 0) {
    out.errors.push_back(
        "imu_intra_fanout: needs ros.intra_zero_copy_ratio == 1 and no net "
        "sends");
  }
  if (corrupt > 0) {
    out.errors.push_back("corrupted messages delivered: " +
                         std::to_string(corrupt));
  }

  for (size_t k = 0; k < out.intervals.size(); ++k) {
    Interval& iv = out.intervals[k];
    iv.first_seq = mark_seq[k];
    iv.end_seq = mark_seq[k + 1];
    iv.t_begin = mark_time[k];
    iv.t_end = mark_time[k + 1];
    iv.pub = marks[k + 1].Since(marks[k]);
    const auto spinner_cpu =
        static_cast<double>(mark_spinner_cpu[k + 1] - mark_spinner_cpu[k]);
    iv.cpu_sub_ns = spinner_cpu;
    iv.cpu_pub_ns = static_cast<double>(iv.pub.cpu_ns) - spinner_cpu;
    iv.arena_live_max = arena_max[k];
    iv.pub_dropped = mark_pub_dropped[k + 1] - mark_pub_dropped[k];
    iv.sub_dropped = mark_sub_dropped[k + 1] - mark_sub_dropped[k];
    iv.threads_pub = marks[k + 1].threads;
    iv.threads_sub = marks[k + 1].threads;
  }

  graph.Teardown(&spinner);
  if (const uint64_t live = ArenaLiveBlocks(); live != 0) {
    out.errors.push_back("arena blocks live after teardown: " +
                         std::to_string(live));
  }
  out.rss_peak_kib = ProcStatus("VmHWM");
  return out;
}

}  // namespace perfbench
