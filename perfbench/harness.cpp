#include "harness.h"

#include <sched.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "net/io_backend.h"
#include "net/poller.h"
#include "ros/message_traits.h"
#include "sfm/message_manager.h"
#include "sfm/shm_pool.h"

extern char** environ;

namespace perfbench {

const char* const kSpanNames[kNumSpans] = {
    "gen.lag",   "sfm.new_message", "sfm.expand",   "app.fill",
    "ros.publish", "ros.handoff",   "app.callback",
};

void SleepUntilNs(uint64_t deadline_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(deadline_ns / 1000000000ull);
  ts.tv_nsec = static_cast<long>(deadline_ns % 1000000000ull);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> list;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) list.push_back(cpu);
      }
    }
    if (list.empty()) list.push_back(0);
    return list;
  }();
  return cpus;
}

void UseCpu(int index) {
  const auto& cpus = AllowedCpus();
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[static_cast<size_t>(index) % cpus.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

void UseAllCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : AllowedCpus()) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

namespace {

constexpr size_t kPage = 4096;
constexpr int kSampledPages = 16;

size_t StampedPages(size_t size) { return (size - 8) / kPage + 1; }

}  // namespace

void WritePayload(uint8_t* data, size_t size, uint64_t seed, uint64_t seq) {
  const size_t pages = StampedPages(size);
  for (size_t page = 0; page < pages; ++page) {
    const uint64_t word = Pattern(seed, seq, page);
    std::memcpy(data + page * kPage, &word, sizeof(word));
  }
  const uint64_t last = Pattern(seed, seq, pages);
  std::memcpy(data + size - 8, &last, sizeof(last));
}

bool CheckPayload(const uint8_t* data, size_t size, uint64_t seed,
                  uint64_t seq) {
  const size_t pages = StampedPages(size);
  const auto word_at = [&](size_t offset) {
    uint64_t word = 0;
    std::memcpy(&word, data + offset, sizeof(word));
    return word;
  };
  if (word_at(0) != Pattern(seed, seq, 0) ||
      word_at(size - 8) != Pattern(seed, seq, pages)) {
    return false;
  }
  for (int k = 0; k < kSampledPages; ++k) {
    const uint64_t page = Pattern(seed, seq, pages + 1 + k) % pages;
    if (word_at(page * kPage) != Pattern(seed, seq, page)) return false;
  }
  return true;
}

namespace {

uint64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

ProcCounters ProcCounters::Take() {
  ProcCounters c;
  c.cpu_ns = ClockNs(CLOCK_PROCESS_CPUTIME_ID);
  c.threads = ProcStatus("Threads");
  const auto io = rsf::net::GlobalIoCounters();
  c.io_syscalls = io.TotalSyscalls();
  c.io_sendmsg = io.sendmsg_calls;
  c.io_recv = io.recv_calls;
  c.io_epoll_waits = io.epoll_waits;
  c.io_uring_enters = io.enter_calls;
  c.frame_builds = ros::shim::frame_builds.load();
  c.descriptor_builds = ros::shim::descriptor_builds.load();
  c.scratch_allocations = ros::shim::scratch_allocations.load();
  c.arena_direct = ros::shim::arena_direct.load();
  const auto mm = sfm::gmm().Stats();
  c.mm_allocations = mm.allocations;
  c.mm_borrows = mm.borrows;
  c.shm_gen_fence_rejections = sfm::shm::GetPoolStats().gen_fence_rejections;
  return c;
}

ProcCounters ProcCounters::Since(const ProcCounters& e) const {
  ProcCounters d;
  d.cpu_ns = cpu_ns - e.cpu_ns;
  d.threads = threads;
  d.io_syscalls = io_syscalls - e.io_syscalls;
  d.io_sendmsg = io_sendmsg - e.io_sendmsg;
  d.io_recv = io_recv - e.io_recv;
  d.io_epoll_waits = io_epoll_waits - e.io_epoll_waits;
  d.io_uring_enters = io_uring_enters - e.io_uring_enters;
  d.frame_builds = frame_builds - e.frame_builds;
  d.descriptor_builds = descriptor_builds - e.descriptor_builds;
  d.scratch_allocations = scratch_allocations - e.scratch_allocations;
  d.arena_direct = arena_direct - e.arena_direct;
  d.mm_allocations = mm_allocations - e.mm_allocations;
  d.mm_borrows = mm_borrows - e.mm_borrows;
  d.shm_gen_fence_rejections =
      shm_gen_fence_rejections - e.shm_gen_fence_rejections;
  return d;
}

uint64_t ArenaLiveBlocks() {
  uint64_t live = 0;
  for (const auto& cls : sfm::ArenaPoolSnapshot()) live += cls.live;
  return live;
}

uint64_t ShmLiveBlocks() { return sfm::shm::GetPoolStats().live_blocks; }

uint64_t ProcStatus(const char* field, int pid) {
  const std::string path = pid == 0 ? "/proc/self/status"
                                    : "/proc/" + std::to_string(pid) + "/status";
  const std::string prefix = std::string(field) + ":";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtoull(line.c_str() + prefix.size(), nullptr, 10);
    }
  }
  return 0;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string HostFactsJson(uint64_t threads_pub, uint64_t threads_sub) {
  utsname uts{};
  uname(&uts);
  std::string env = "{";
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "RSF_", 4) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    if (eq == nullptr) continue;
    if (env.size() > 1) env += ", ";
    env += JsonString(std::string(*e, static_cast<size_t>(eq - *e))) + ": " +
           JsonString(eq + 1);
  }
  env += "}";
  const auto& cpus = AllowedCpus();
  return "{\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"cpu_pub\": " + std::to_string(cpus[0]) +
         ", \"cpu_sub\": " + std::to_string(cpus[1 % cpus.size()]) +
         ", \"kernel\": " + JsonString(uts.release) +
         ", \"io_backend\": " +
         JsonString(rsf::net::IoBackendKindName(
             rsf::net::ResolveIoBackendKind())) +
         ", \"reactor_threads\": " +
         std::to_string(rsf::net::Reactor::Get().NumLoops()) +
         ", \"rsf_env\": " + env +
         ", \"threads_pub\": " + std::to_string(threads_pub) +
         ", \"threads_sub\": " + std::to_string(threads_sub) + "}";
}

}  // namespace perfbench
