// image_shm_xproc / image_tcp_xproc: sensor_msgs/sfm/Image at 800x600 rgb8
// (~1.4 MB) from this process to a fork+exec'd subscriber, open loop at a
// fixed rate.  The two workloads differ only in RSF_TRANSPORT_SHM: with it
// on, a 48-byte descriptor crosses the socket; with it at its default (off)
// the whole payload rides loopback TCP.
//
// Parent <-> child protocol: the child's stdin is a control pipe ('M' takes
// a counter mark, 'Q' + u64 total drains and quits) and its stdout is the
// report pipe (a ChildSummary, its marks, then one DeliveryRecord per
// sequence).
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <thread>

#include "ros/ros.h"
#include "sensor_msgs/sfm/Image.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Image = sensor_msgs::sfm::Image;

constexpr const char* kTopic = "/perfbench/image";
constexpr uint32_t kWidth = 800;
constexpr uint32_t kHeight = 600;
constexpr size_t kBytes = size_t{kWidth} * kHeight * 3;
constexpr double kRateHz = 500;
constexpr uint64_t kWarmupNs = 500'000'000;
constexpr uint64_t kIntervalNs = 2'000'000'000;  // 1000 messages: p99 has 10 beyond
constexpr size_t kReservoir = 2048;  // holds every sample of an interval
constexpr uint64_t kDrainNs = 20'000'000;
constexpr int kSetupRounds = 9;
constexpr size_t kQueueDepth = 64;
constexpr uint64_t kReportMagic = 0x50455246494D4731ull;
constexpr uint64_t kChildTimeoutNs = 20'000'000'000ull;

struct ChildSummary {
  uint64_t magic = kReportMagic;
  uint64_t num_marks = 0;
  uint64_t num_records = 0;
  uint64_t received = 0;  // totals at quiescence
  uint64_t shm_zero_copy = 0;
  uint64_t arena_direct = 0;
  uint64_t corrupt = 0;
  uint64_t arena_live_after = 0;  // after teardown; must be 0
  uint64_t max_rss_kib = 0;
};

struct ChildMark {
  ProcCounters counters;
  uint64_t arena_live_max = 0;  // since the previous mark (traced intervals)
  uint64_t sub_dropped = 0;
};

struct DeliveryRecord {
  uint64_t cb_start = 0;
  uint64_t cb_end = 0;
  uint32_t flags = 0;
  uint32_t pad = 0;
};

struct PubRecord {
  uint64_t due = 0;
  uint64_t wake = 0;
  uint64_t new_end = 0;
  uint64_t expand_start = 0;
  uint64_t expand_end = 0;
  uint64_t fill_end = 0;
  uint64_t pub_end = 0;
};

void FillImage(Image& msg, uint64_t seed, uint64_t seq, uint64_t due,
               bool traced, PubRecord* rec) {
  msg.header.seq = static_cast<uint32_t>(seq);
  msg.header.stamp = rsf::Time::FromNanos(due);
  msg.header.frame_id = "cam";
  msg.height = kHeight;
  msg.width = kWidth;
  msg.encoding = "rgb8";
  msg.is_bigendian = 0;
  msg.step = kWidth * 3;
  rec->expand_start = StampIf(traced);
  msg.data.resize(kBytes);
  rec->expand_end = StampIf(traced);
  WritePayload(msg.data.data(), kBytes, seed, seq);
}

bool VerifyImage(const Image& msg, uint64_t seed, uint64_t seq) {
  if (msg.width != kWidth || msg.height != kHeight ||
      msg.step != kWidth * 3 || msg.data.size() != kBytes ||
      !(msg.encoding == std::string_view("rgb8")) ||
      !(msg.header.frame_id == std::string_view("cam"))) {
    return false;
  }
  return CheckPayload(msg.data.data(), kBytes, seed, seq);
}

bool WriteFull(int fd, const void* data, size_t size) {
  const auto* p = static_cast<const uint8_t*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

bool ReadFull(int fd, void* data, size_t size) {
  auto* p = static_cast<uint8_t*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

/// The subscriber process as seen from the parent.  Killed and reaped on
/// destruction if still running, so no exit path leaks it.
class Child {
 public:
  Child() = default;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child() {
    if (ctl_ >= 0) ::close(ctl_);
    if (report_ >= 0) ::close(report_);
    if (pid_ > 0 && !reaped_) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }

  bool Spawn(const std::string& exe, const std::vector<std::string>& args) {
    int ctl[2];
    int report[2];
    if (::pipe2(ctl, O_CLOEXEC) != 0) return false;
    if (::pipe2(report, O_CLOEXEC) != 0) {
      ::close(ctl[0]);
      ::close(ctl[1]);
      return false;
    }
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(exe.c_str()));
    for (const auto& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ == 0) {
      UseAllCpus();
      ::dup2(ctl[0], STDIN_FILENO);
      ::dup2(report[1], STDOUT_FILENO);
      ::execv(exe.c_str(), argv.data());
      _exit(127);
    }
    ::close(ctl[0]);
    ::close(report[1]);
    ctl_ = ctl[1];
    report_ = report[0];
    return pid_ > 0;
  }

  bool Mark() { return WriteFull(ctl_, "M", 1); }

  /// Asks the child to drain `total` deliveries and quit; collects its
  /// report and exit status.  False (with `error` set) on any failure.
  bool Quit(uint64_t total, std::string* report, std::string* error) {
    char cmd[9] = {'Q'};
    std::memcpy(cmd + 1, &total, sizeof(total));
    if (!WriteFull(ctl_, cmd, sizeof(cmd))) {
      *error = "subscriber control pipe closed";
      return false;
    }
    const uint64_t deadline = NowNs() + kChildTimeoutNs;
    char buf[65536];
    for (;;) {
      const uint64_t now = NowNs();
      if (now >= deadline) {
        *error = "subscriber report timed out";
        return false;
      }
      pollfd pfd{report_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>((deadline - now) / 1000000) + 1);
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) continue;
      const ssize_t n = ::read(report_, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      report->append(buf, static_cast<size_t>(n));
    }
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    reaped_ = true;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      *error = "subscriber exited abnormally (status " +
               std::to_string(status) + ")";
      return false;
    }
    return true;
  }

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }

 private:
  pid_t pid_ = -1;
  bool reaped_ = false;
  int ctl_ = -1;
  int report_ = -1;
};

std::string SelfExe() {
  char path[4096] = {0};
  const ssize_t n = ::readlink("/proc/self/exe", path, sizeof(path) - 1);
  return n > 0 ? std::string(path, static_cast<size_t>(n)) : std::string();
}

/// One publisher + subscriber-process pairing, connected.
struct Round {
  std::unique_ptr<ros::NodeHandle> node;
  ros::Publisher pub;
  Child child;
  double setup_s = 0;
};

/// Set-up: advertise, fork+exec the subscriber, wait until its link (and,
/// on the shm workload, the shm tier) is established.
bool Connect(const Config& config, bool shm, const Schedule& schedule,
             uint64_t capacity, Round* round, std::string* error) {
  const uint64_t start = NowNs();
  round->node = std::make_unique<ros::NodeHandle>("perfbench_pub");
  round->pub = round->node->advertise<Image>(kTopic, kQueueDepth);
  const auto endpoints = ros::master().PublishersOf(kTopic);
  if (endpoints.size() != 1) {
    *error = "expected one registered publisher";
    return false;
  }
  if (!round->child.Spawn(SelfExe(),
                          {"--image-subscriber", std::to_string(endpoints[0].port),
                           std::to_string(config.seed),
                           std::to_string(schedule.traced),
                           std::to_string(schedule.count),
                           std::to_string(capacity)})) {
    *error = "cannot spawn the subscriber process";
    return false;
  }
  const uint64_t deadline = start + 30'000'000'000ull;
  for (;;) {
    const auto stats = round->pub.getStats();
    if (stats.tcp_links == 1 && (!shm || stats.shm_links == 1)) break;
    if (NowNs() > deadline) {
      *error = "subscriber never connected";
      return false;
    }
    SleepUntilNs(NowNs() + 100'000);
  }
  round->setup_s = static_cast<double>(NowNs() - start) * 1e-9;
  return true;
}

/// Parses the child's report.
bool ParseReport(const std::string& report, ChildSummary* summary,
                 std::vector<ChildMark>* marks,
                 std::vector<DeliveryRecord>* records) {
  if (report.size() < sizeof(ChildSummary)) return false;
  std::memcpy(summary, report.data(), sizeof(ChildSummary));
  if (summary->magic != kReportMagic) return false;
  const size_t need = sizeof(ChildSummary) +
                      summary->num_marks * sizeof(ChildMark) +
                      summary->num_records * sizeof(DeliveryRecord);
  if (report.size() != need) return false;
  const char* p = report.data() + sizeof(ChildSummary);
  marks->resize(summary->num_marks);
  std::memcpy(marks->data(), p, summary->num_marks * sizeof(ChildMark));
  p += summary->num_marks * sizeof(ChildMark);
  records->resize(summary->num_records);
  std::memcpy(records->data(), p, summary->num_records * sizeof(DeliveryRecord));
  return true;
}

}  // namespace

int ImageSubscriberChild(int argc, char** argv) {
  if (argc < 5) return 2;
  const auto port = static_cast<uint16_t>(std::atoi(argv[0]));
  const uint64_t seed = std::strtoull(argv[1], nullptr, 10);
  // Intervals [first_traced, count) are traced; mark k opens interval k.
  const int first_traced = std::atoi(argv[2]);
  const int count = std::atoi(argv[3]);
  const uint64_t capacity = std::strtoull(argv[4], nullptr, 10);
  rsf::SetLogLevel(rsf::LogLevel::kError);
  UseCpu(1);

  if (!ros::master()
           .RegisterPublisher(kTopic, Image::DataType(),
                              ros::TransportChecksum<Image>(),
                              ros::TopicEndpoint{"127.0.0.1", port,
                                                 "perfbench_pub"})
           .ok()) {
    return 2;
  }

  std::vector<DeliveryRecord> records(capacity);
  std::atomic<uint64_t> received{0};
  std::atomic<uint64_t> max_seq_plus_one{0};
  std::atomic<uint64_t> corrupt{0};
  std::atomic<uint64_t> arena_live_max{0};
  std::atomic<int> marks_taken{0};
  OrderCheck order;
  std::vector<ChildMark> marks;
  ChildSummary summary;

  {
    ros::NodeHandle node("perfbench_sub");
    auto callback = [&](const Image::ConstPtr& msg) {
      const uint64_t start = NowNs();
      const uint64_t seq = msg->header.seq;
      uint32_t flags = kDelivered;
      if (!VerifyImage(*msg, seed, seq)) {
        flags |= kCorrupt;
        corrupt.fetch_add(1);
        std::fprintf(stderr, "perfbench: CORRUPT image payload, seq %llu\n",
                     static_cast<unsigned long long>(seq));
      }
      if (!order.Accept(seq)) flags |= kMisordered;
      if ((flags & (kCorrupt | kMisordered)) == 0) flags |= kVerified;
      const int interval = marks_taken.load(std::memory_order_relaxed) - 1;
      const bool traced = interval >= first_traced && interval < count;
      if (seq < records.size()) {
        DeliveryRecord& rec = records[seq];
        if (rec.flags & kDelivered) {
          rec.flags = (rec.flags | kMisordered) & ~kVerified;
        } else {
          rec = {start, StampIf(traced), flags, 0};
        }
        uint64_t seen = max_seq_plus_one.load(std::memory_order_relaxed);
        if (seq + 1 > seen) max_seq_plus_one.store(seq + 1);
      }
      if (traced) {
        const uint64_t live = ArenaLiveBlocks();
        if (live > arena_live_max.load()) arena_live_max.store(live);
      }
      received.fetch_add(1, std::memory_order_release);
    };
    auto sub = node.subscribe<Image>(
        kTopic, kQueueDepth,
        std::function<void(const Image::ConstPtr&)>(callback));
    std::thread spinner([&node] { node.spin(); });

    bool quit = false;
    while (!quit) {
      char cmd = 0;
      if (!ReadFull(STDIN_FILENO, &cmd, 1)) break;
      if (cmd == 'M') {
        ChildMark mark;
        mark.counters = ProcCounters::Take();
        mark.arena_live_max = arena_live_max.exchange(0);
        mark.sub_dropped = sub.droppedCount();
        marks.push_back(mark);
        marks_taken.fetch_add(1);
      } else if (cmd == 'Q') {
        uint64_t total = 0;
        if (!ReadFull(STDIN_FILENO, &total, sizeof(total))) break;
        const uint64_t deadline = NowNs() + 5'000'000'000ull;
        while (received.load(std::memory_order_acquire) < total &&
               NowNs() < deadline) {
          SleepUntilNs(NowNs() + 200'000);
        }
        quit = true;
      }
    }
    summary.received = sub.receivedCount();
    summary.shm_zero_copy = sub.shmZeroCopyCount();
    summary.arena_direct = ros::shim::arena_direct.load();
    node.shutdown();
    spinner.join();
    sub.shutdown();
    if (!quit) return 4;  // the parent went away mid-run
  }

  summary.num_marks = marks.size();
  summary.num_records = max_seq_plus_one.load();
  summary.corrupt = corrupt.load();
  summary.arena_live_after = ArenaLiveBlocks();
  summary.max_rss_kib = ProcStatus("VmHWM");
  const bool ok =
      WriteFull(STDOUT_FILENO, &summary, sizeof(summary)) &&
      WriteFull(STDOUT_FILENO, marks.data(), marks.size() * sizeof(ChildMark)) &&
      WriteFull(STDOUT_FILENO, records.data(),
                summary.num_records * sizeof(DeliveryRecord));
  return ok ? 0 : 3;
}

Outcome RunImageXproc(const Config& config, bool shm) {
  Outcome out;
  if (shm) {
    ::setenv("RSF_TRANSPORT_SHM", "1", 1);
  } else {
    ::unsetenv("RSF_TRANSPORT_SHM");
  }
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  UseCpu(0);
  out.pids.push_back(static_cast<int>(::getpid()));

  const Schedule schedule(config, kWarmupNs, kIntervalNs);
  const auto period_ns = static_cast<uint64_t>(1e9 / kRateHz);
  const uint64_t capacity = schedule.total_ns() / period_ns + 2;
  std::string error;

  // Set-up rounds: connect, quit, tear down.  The measured round is the last.
  for (int r = 0; r + 1 < kSetupRounds; ++r) {
    Round round;
    std::string report;
    if (!Connect(config, shm, schedule, capacity, &round, &error) ||
        !round.child.Quit(0, &report, &error)) {
      out.errors.push_back("set-up round: " + error);
      return out;
    }
    out.pids.push_back(round.child.pid());
    out.setup_s.push_back(round.setup_s);
  }

  Round round;
  if (!Connect(config, shm, schedule, capacity, &round, &error)) {
    out.errors.push_back(error);
    return out;
  }
  out.pids.push_back(round.child.pid());
  out.setup_s.push_back(round.setup_s);
  out.rss_setup_kib =
      ProcStatus("VmRSS") + ProcStatus("VmRSS", round.child.pid());

  // The stream.  Mark k opens interval k; the last mark closes the last
  // interval after a short drain.
  std::vector<PubRecord> records(capacity);
  std::vector<ProcCounters> pub_marks;
  std::vector<uint64_t> mark_seq;
  std::vector<uint64_t> mark_time;
  std::vector<uint64_t> mark_dropped;
  std::vector<uint64_t> arena_max(schedule.count, 0);
  std::vector<uint64_t> shm_max(schedule.count, 0);
  bool marks_ok = true;
  const auto mark = [&](uint64_t seq) {
    mark_time.push_back(NowNs());
    mark_seq.push_back(seq);
    mark_dropped.push_back(round.pub.getStats().dropped);
    pub_marks.push_back(ProcCounters::Take());
    marks_ok = round.child.Mark() && marks_ok;
  };

  const uint64_t t0 = NowNs() + 1'000'000;
  int current = -1;  // -1 is the warm-up
  uint64_t seq = 0;
  for (;; ++seq) {
    const uint64_t due = t0 + seq * period_ns;
    if (due >= t0 + schedule.total_ns()) break;
    const int index = schedule.IndexAt(due - t0);
    if (index != current) {
      mark(seq);
      current = index;
    }
    const bool traced = index >= schedule.traced;
    PubRecord& rec = records[seq];
    SleepUntilNs(due);
    rec.due = due;
    rec.wake = StampIf(traced);
    auto msg = sfm::make_message<Image>();
    rec.new_end = StampIf(traced);
    FillImage(*msg, config.seed, seq, due, traced, &rec);
    rec.fill_end = NowNs();
    round.pub.publish(*msg);
    rec.pub_end = NowNs();
    msg.reset();
    if (traced) {
      arena_max[index] = std::max(arena_max[index], ArenaLiveBlocks());
      shm_max[index] = std::max(shm_max[index], ShmLiveBlocks());
    }
  }
  const uint64_t published = seq;
  SleepUntilNs(NowNs() + kDrainNs);
  mark(published);

  std::string report;
  if (!marks_ok || !round.child.Quit(published, &report, &error)) {
    out.errors.push_back(marks_ok ? error : "subscriber control pipe closed");
    return out;
  }
  ChildSummary summary;
  std::vector<ChildMark> child_marks;
  std::vector<DeliveryRecord> deliveries;
  if (!ParseReport(report, &summary, &child_marks, &deliveries) ||
      child_marks.size() != pub_marks.size()) {
    out.errors.push_back("malformed subscriber report");
    return out;
  }
  if (summary.corrupt > 0) {
    out.errors.push_back("corrupted payloads delivered: " +
                         std::to_string(summary.corrupt));
  }
  if (summary.arena_live_after != 0) {
    out.errors.push_back("subscriber arena blocks live after teardown: " +
                         std::to_string(summary.arena_live_after));
  }

  // Layer-exercise proof over the whole measured round (quiescent now).
  const auto stats = round.pub.getStats();
  const uint64_t wire = stats.enqueued - stats.intra_delivered;
  const auto ratio = [](uint64_t part, uint64_t whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
  };
  out.shm_descriptor_ratio = ratio(stats.shm_descriptors, wire);
  out.shm_zero_copy_ratio = ratio(summary.shm_zero_copy, summary.received);
  out.arena_direct_ratio = ratio(summary.arena_direct, summary.received);
  if (shm && (wire == 0 || stats.shm_descriptors != wire)) {
    out.errors.push_back("image_shm_xproc: ros.shm_descriptor_ratio != 1");
  }
  if (!shm && (stats.shm_descriptors != 0 || summary.received == 0 ||
               summary.arena_direct != summary.received)) {
    out.errors.push_back(
        "image_tcp_xproc: needs ros.shm_descriptor_ratio == 0 and "
        "ros.arena_direct_ratio == 1");
  }

  for (int k = 0; k < schedule.count; ++k) {
    Interval& iv = out.intervals.emplace_back(kReservoir);
    iv.traced = k >= schedule.traced;
    iv.first_seq = mark_seq[k];
    iv.end_seq = mark_seq[k + 1];
    iv.t_begin = mark_time[k];
    iv.t_end = mark_time[k + 1];
    iv.pub = pub_marks[k + 1].Since(pub_marks[k]);
    iv.sub = child_marks[k + 1].counters.Since(child_marks[k].counters);
    iv.cpu_pub_ns = static_cast<double>(iv.pub.cpu_ns);
    iv.cpu_sub_ns = static_cast<double>(iv.sub.cpu_ns);
    iv.arena_live_max = arena_max[k] + child_marks[k + 1].arena_live_max;
    iv.shm_live_max = shm_max[k];
    iv.pub_dropped = mark_dropped[k + 1] - mark_dropped[k];
    iv.sub_dropped =
        child_marks[k + 1].sub_dropped - child_marks[k].sub_dropped;
    iv.threads_pub = pub_marks[k + 1].threads;
    iv.threads_sub = child_marks[k + 1].counters.threads;
    for (uint64_t s = iv.first_seq; s < iv.end_seq; ++s) {
      const PubRecord& p = records[s];
      const DeliveryRecord d =
          s < deliveries.size() ? deliveries[s] : DeliveryRecord{};
      ++iv.expected;
      iv.spans[kPublish].Add(static_cast<double>(p.pub_end - p.fill_end));
      if (d.flags & kCorrupt) ++iv.corrupt;
      if (d.flags & kMisordered) ++iv.misordered;
      if (d.flags & kVerified) {
        ++iv.verified;
        iv.latency.Add(static_cast<double>(d.cb_start - p.due));
      }
      if (!iv.traced) continue;
      iv.spans[kGenLag].Add(static_cast<double>(p.wake - p.due));
      iv.spans[kNewMessage].Add(static_cast<double>(p.new_end - p.wake));
      const uint64_t expand = p.expand_end - p.expand_start;
      iv.spans[kExpand].Add(static_cast<double>(expand));
      iv.spans[kFill].Add(static_cast<double>(p.fill_end - p.new_end - expand));
      if (d.flags & kVerified) {
        iv.spans[kHandoff].Add(static_cast<double>(d.cb_start) -
                               static_cast<double>(p.pub_end));
        iv.spans[kCallback].Add(static_cast<double>(d.cb_end - d.cb_start));
      }
      char row[256];
      std::snprintf(row, sizeof(row),
                    "%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%u\n",
                    static_cast<unsigned long long>(s),
                    static_cast<unsigned long long>(p.due),
                    static_cast<unsigned long long>(p.wake),
                    static_cast<unsigned long long>(p.new_end),
                    static_cast<unsigned long long>(p.expand_start),
                    static_cast<unsigned long long>(p.expand_end),
                    static_cast<unsigned long long>(p.fill_end),
                    static_cast<unsigned long long>(p.pub_end),
                    static_cast<unsigned long long>(d.cb_start),
                    static_cast<unsigned long long>(d.cb_end), d.flags);
      out.trace_csv += row;
    }
  }
  if (!out.trace_csv.empty()) {
    out.trace_csv =
        "seq,due,wake,new_end,expand_start,expand_end,fill_end,pub_end,"
        "cb_start,cb_end,flags\n" +
        out.trace_csv;
  }

  // Teardown: once the publication and every message are gone, nothing
  // may hold an arena or shm block.
  round.pub.shutdown();
  round.node.reset();
  if (const uint64_t live = ArenaLiveBlocks(); live != 0) {
    out.errors.push_back("publisher arena blocks live after teardown: " +
                         std::to_string(live));
  }
  if (const uint64_t live = ShmLiveBlocks(); live != 0) {
    out.errors.push_back("publisher shm blocks live after teardown: " +
                         std::to_string(live));
  }
  out.rss_peak_kib = ProcStatus("VmHWM") + summary.max_rss_kib;
  return out;
}

}  // namespace perfbench
