// The repository benchmark: runs one workload and prints every
// metric by name with its unit.  See README.md in this directory.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// --trace 0 reports the end-to-end metrics of untraced intervals.
// --trace 1 spends the first half of the time untraced and the second half
// traced, and reports the per-layer metrics of the traced half plus the
// tracing overhead (traced minus untraced latency p50).
//
// The last stdout line is the result object; the line before it carries
// the host facts.  Per-message spans of a traced run go to --out.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/log.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Ratio(double part, double whole) { return whole == 0 ? 0 : part / whole; }

/// The intervals of one half of the run.
std::vector<const Interval*> Select(const Outcome& out, bool traced) {
  std::vector<const Interval*> picked;
  for (const auto& iv : out.intervals) {
    if (iv.traced == traced) picked.push_back(&iv);
  }
  return picked;
}

/// Median over intervals of a per-interval value.
template <typename F>
double MedianOf(const std::vector<const Interval*>& ivs, F&& f) {
  std::vector<double> values;
  for (const Interval* iv : ivs) values.push_back(f(*iv));
  return Median(std::move(values));
}

/// Median over intervals of a quantile, in microseconds.
double QuantileUs(const std::vector<const Interval*>& ivs,
                  const Reservoir Interval::*member, double q) {
  return MedianOf(ivs, [&](const Interval& iv) {
           return (iv.*member).Quantile(q);
         }) * 1e-3;
}
double SpanUs(const std::vector<const Interval*>& ivs, int span, double q) {
  return MedianOf(ivs, [&](const Interval& iv) {
           return iv.spans[span].Quantile(q);
         }) * 1e-3;
}

template <typename F>
uint64_t Sum(const std::vector<const Interval*>& ivs, F&& f) {
  uint64_t total = 0;
  for (const Interval* iv : ivs) total += f(*iv);
  return total;
}

std::vector<Metric> EndToEnd(const Outcome& out) {
  const auto ivs = Select(out, false);
  const auto expected = Sum(ivs, [](const Interval& iv) { return iv.expected; });
  const auto verified = Sum(ivs, [](const Interval& iv) { return iv.verified; });
  return {
      {"latency_p50_us", QuantileUs(ivs, &Interval::latency, 0.50), "us"},
      {"publish_p50_us", SpanUs(ivs, kPublish, 0.50), "us"},
      {"throughput_msgs_per_s",
       MedianOf(ivs,
                [](const Interval& iv) {
                  return Ratio(static_cast<double>(iv.verified), iv.seconds());
                }),
       "1/s"},
      {"cpu_us_per_msg",
       MedianOf(ivs,
                [](const Interval& iv) {
                  return Ratio((iv.cpu_pub_ns + iv.cpu_sub_ns) * 1e-3,
                               static_cast<double>(iv.verified));
                }),
       "us"},
      {"delivered_ratio",
       Ratio(static_cast<double>(verified), static_cast<double>(expected)),
       "ratio"},
      {"rss_setup_mb", static_cast<double>(out.rss_setup_kib) / 1024.0, "MB"},
      {"setup_s", Median(out.setup_s), "s"},
  };
}

std::vector<Metric> PerLayer(const Outcome& out) {
  const auto ivs = Select(out, true);
  const auto msgs = static_cast<double>(
      Sum(ivs, [](const Interval& iv) { return iv.msgs(); }));
  // Counter totals over the traced intervals, both processes.
  const auto counter = [&](uint64_t ProcCounters::*field) {
    return static_cast<double>(Sum(ivs, [&](const Interval& iv) {
      return iv.pub.*field + iv.sub.*field;
    }));
  };
  const auto per_msg = [&](uint64_t ProcCounters::*field) {
    return Ratio(counter(field), msgs);
  };
  const auto max_of = [&](uint64_t Interval::*field) {
    uint64_t best = 0;
    for (const Interval* iv : ivs) best = std::max(best, iv->*field);
    return static_cast<double>(best);
  };
  const auto total = [&](uint64_t Interval::*field) {
    return static_cast<double>(
        Sum(ivs, [&](const Interval& iv) { return iv.*field; }));
  };
  const auto cpu_us = [&](double Interval::*field) {
    return MedianOf(ivs, [&](const Interval& iv) {
      return Ratio(iv.*field * 1e-3, static_cast<double>(iv.verified));
    });
  };
  // The end-to-end tail and peak memory, from the untraced half.  On a
  // shared host both are set by scheduling stalls (a stall queues messages,
  // and every queued message holds an arena block), too unsteady across
  // runs to carry a bound, so they are reported here instead.
  const auto untraced = Select(out, false);
  std::vector<Metric> m = {
      {"latency_p90_us", QuantileUs(untraced, &Interval::latency, 0.90), "us"},
      {"latency_p99_us", QuantileUs(untraced, &Interval::latency, 0.99), "us"},
      {"proc.rss_peak_mb", static_cast<double>(out.rss_peak_kib) / 1024.0,
       "MB"},
  };
  for (int s = 0; s < kNumSpans; ++s) {
    const std::string name = kSpanNames[s];
    m.push_back({name + "_p50_us", SpanUs(ivs, s, 0.50), "us"});
    m.push_back({name + "_p99_us", SpanUs(ivs, s, 0.99), "us"});
  }
  const std::vector<Metric> rest = {
      {"sfm.allocations_per_msg", per_msg(&ProcCounters::mm_allocations),
       "count/msg"},
      {"sfm.borrows_per_msg", per_msg(&ProcCounters::mm_borrows), "count/msg"},
      {"sfm.arena_live_blocks_max", max_of(&Interval::arena_live_max), "count"},
      {"sfm.shm.live_blocks_max", max_of(&Interval::shm_live_max), "count"},
      {"sfm.shm.gen_fence_rejections",
       counter(&ProcCounters::shm_gen_fence_rejections), "count"},
      {"ros.frame_builds_per_msg", per_msg(&ProcCounters::frame_builds),
       "count/msg"},
      {"ros.descriptor_builds_per_msg",
       per_msg(&ProcCounters::descriptor_builds), "count/msg"},
      {"ros.shm_descriptor_ratio", out.shm_descriptor_ratio, "ratio"},
      {"ros.shm_zero_copy_ratio", out.shm_zero_copy_ratio, "ratio"},
      {"ros.intra_zero_copy_ratio", out.intra_zero_copy_ratio, "ratio"},
      {"ros.arena_direct_ratio", out.arena_direct_ratio, "ratio"},
      {"ros.scratch_allocations",
       counter(&ProcCounters::scratch_allocations), "count"},
      {"ros.pub_dropped", total(&Interval::pub_dropped), "count"},
      {"ros.sub_dropped", total(&Interval::sub_dropped), "count"},
      {"net.syscalls_per_msg", per_msg(&ProcCounters::io_syscalls),
       "count/msg"},
      {"net.sendmsg_per_msg", per_msg(&ProcCounters::io_sendmsg), "count/msg"},
      {"net.recv_per_msg", per_msg(&ProcCounters::io_recv), "count/msg"},
      {"net.epoll_waits_per_msg", per_msg(&ProcCounters::io_epoll_waits),
       "count/msg"},
      {"net.uring_enters_per_msg", per_msg(&ProcCounters::io_uring_enters),
       "count/msg"},
      {"proc.cpu_pub_us_per_msg", cpu_us(&Interval::cpu_pub_ns), "us"},
      {"proc.cpu_sub_us_per_msg", cpu_us(&Interval::cpu_sub_ns), "us"},
      {"proc.threads_pub", max_of(&Interval::threads_pub), "count"},
      {"proc.threads_sub", max_of(&Interval::threads_sub), "count"},
      {"trace.overhead_us",
       QuantileUs(ivs, &Interval::latency, 0.50) -
           QuantileUs(untraced, &Interval::latency, 0.50),
       "us"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string json = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  return json + "}";
}

template <typename T>
std::string JsonArray(const std::vector<T>& values) {
  std::string json = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    json += (i > 0 ? ", " : "") + JsonNumber(static_cast<double>(values[i]));
  }
  return json + "]";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "image_shm_xproc|image_tcp_xproc|imu_intra_fanout "
               "--seed N --seconds S --trace 0|1 [--out DIR]\n");
  return 2;
}

}  // namespace

Schedule::Schedule(const Config& config, uint64_t warmup,
                   uint64_t target_interval)
    : warmup_ns(warmup) {
  const int halves = config.trace ? 2 : 1;
  const auto half_ns = static_cast<uint64_t>(config.seconds * 1e9) / halves;
  const int per_half =
      std::max<int>(1, static_cast<int>(half_ns / target_interval));
  interval_ns = half_ns / static_cast<uint64_t>(per_half);
  count = per_half * halves;
  traced = config.trace ? per_half : count;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  AllowedCpus();  // record the full set before any thread is pinned
  if (argc >= 2 && std::strcmp(argv[1], "--image-subscriber") == 0) {
    return ImageSubscriberChild(argc - 2, argv + 2);
  }
  Config config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--out") {
      config.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (config.seconds <= 0) return Usage();
  rsf::SetLogLevel(rsf::LogLevel::kError);

  Outcome out;
  if (config.workload == "image_shm_xproc") {
    out = RunImageXproc(config, /*shm=*/true);
  } else if (config.workload == "image_tcp_xproc") {
    out = RunImageXproc(config, /*shm=*/false);
  } else if (config.workload == "imu_intra_fanout") {
    out = RunImuIntra(config);
  } else {
    return Usage();
  }
  for (const auto& error : out.errors) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  }
  if (out.intervals.empty() || out.intervals.back().traced != config.trace) {
    std::fprintf(stderr, "perfbench: run aborted before measuring\n");
    return 1;
  }

  uint64_t attempted = 0;
  uint64_t verified = 0;
  for (const auto& iv : out.intervals) {
    attempted += iv.expected;
    verified += iv.verified;
  }
  const std::vector<Metric> metrics =
      config.trace ? PerLayer(out) : EndToEnd(out);
  for (const auto& m : metrics) {
    std::fprintf(stderr, "  %-32s %14.4f %s\n", m.name.c_str(), m.value,
                 m.unit);
  }

  const Interval& last = out.intervals.back();
  const std::string host = HostFactsJson(last.threads_pub, last.threads_sub);
  if (!config.out_dir.empty()) {
    const std::string stem = config.out_dir + "/" + config.workload + "-seed" +
                             std::to_string(config.seed) + "-trace" +
                             (config.trace ? "1" : "0");
    std::ofstream(stem + ".json")
        << "{\"host\": " << host << ", \"setup_s\": "
        << JsonArray(out.setup_s) << ", \"metrics\": " << MetricsJson(metrics)
        << "}\n";
    if (!out.trace_csv.empty()) std::ofstream(stem + "-spans.csv") << out.trace_csv;
  }

  std::printf("{\"host\": %s, \"pids\": %s}\n", host.c_str(),
              JsonArray(out.pids).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      out.errors.empty() ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(attempted - verified),
      MetricsJson(metrics).c_str());
  return 0;
}
