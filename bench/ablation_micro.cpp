// Micro-ablations (google-benchmark): isolates the costs the figure-level
// benches aggregate, so each design choice in DESIGN.md can be attributed:
//
//   * serialization / de-serialization per format and size (what ROS-SF
//     eliminates)
//   * SFM construction vs regular construction (what ROS-SF adds: arena
//     registration + manager expansions)
//   * message-manager operations (interior-address lookup, expansion)
//   * whole-message copy (the generated copy constructor)
//   * FlatData member-scan access vs SFM direct field access
#include <benchmark/benchmark.h>

#include "paper_msgs/Image.h"
#include "paper_msgs/sfm/Image.h"
#include "sensor_msgs/Image.h"
#include "sensor_msgs/sfm/Image.h"
#include "serialization/flatbuf_mini.h"
#include "serialization/protobuf_mini.h"
#include "serialization/ros1.h"
#include "serialization/xcdr2.h"
#include "sfm/sfm.h"

namespace {

sensor_msgs::Image MakeImage(size_t bytes) {
  sensor_msgs::Image img;
  img.header.frame_id = "cam";
  img.encoding = "rgb8";
  img.height = 1;
  img.width = static_cast<uint32_t>(bytes / 3);
  img.data.resize(bytes);
  return img;
}

void BM_Ros1Serialize(benchmark::State& state) {
  const auto img = MakeImage(static_cast<size_t>(state.range(0)));
  std::vector<uint8_t> out(rsf::ser::ros1::SerializedLength(img));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsf::ser::ros1::Serialize(img, out.data()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Ros1Serialize)->Arg(200 * 1024)->Arg(1024 * 1024)->Arg(6 * 1024 * 1024);

void BM_Ros1Deserialize(benchmark::State& state) {
  const auto img = MakeImage(static_cast<size_t>(state.range(0)));
  const auto wire = rsf::ser::ros1::SerializeToVector(img);
  sensor_msgs::Image out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rsf::ser::ros1::Deserialize(wire.data(), wire.size(), out));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Ros1Deserialize)->Arg(200 * 1024)->Arg(1024 * 1024)->Arg(6 * 1024 * 1024);

void BM_ProtobufEncode(benchmark::State& state) {
  const auto img = MakeImage(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsf::ser::pb::Encode(img));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ProtobufEncode)->Arg(1024 * 1024)->Arg(6 * 1024 * 1024);

void BM_Xcdr2Serialize(benchmark::State& state) {
  const auto img = MakeImage(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsf::ser::xcdr2::Serialize(img));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Xcdr2Serialize)->Arg(1024 * 1024)->Arg(6 * 1024 * 1024);

// SFM "serialization" is the aliased buffer-pointer copy: O(1).
void BM_SfmPublishAlias(benchmark::State& state) {
  auto img = sfm::make_message<sensor_msgs::sfm::Image>();
  img->data.resize(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sfm::gmm().Publish(img.get()));
  }
}
BENCHMARK(BM_SfmPublishAlias)->Arg(1024 * 1024)->Arg(6 * 1024 * 1024);

void BM_ConstructRegular(benchmark::State& state) {
  const auto bytes = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    sensor_msgs::Image img;
    img.encoding = "rgb8";
    img.data.resize(bytes);
    benchmark::DoNotOptimize(img.data.data());
  }
}
BENCHMARK(BM_ConstructRegular)->Arg(1024 * 1024)->Arg(6 * 1024 * 1024);

void BM_ConstructSfm(benchmark::State& state) {
  const auto bytes = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto img = sfm::make_message<sensor_msgs::sfm::Image>();
    img->encoding = "rgb8";
    img->data.resize(bytes);
    benchmark::DoNotOptimize(img->data.data());
  }
}
BENCHMARK(BM_ConstructSfm)->Arg(1024 * 1024)->Arg(6 * 1024 * 1024);

void BM_ManagerLookupByInteriorAddress(benchmark::State& state) {
  // Populate the manager with `range` live arenas, then probe one.
  const int live = static_cast<int>(state.range(0));
  std::vector<std::shared_ptr<paper_msgs::sfm::Image>> arenas;
  arenas.reserve(live);
  for (int i = 0; i < live; ++i) {
    arenas.push_back(sfm::make_message<paper_msgs::sfm::Image>());
  }
  const auto* probe =
      reinterpret_cast<const uint8_t*>(arenas[live / 2].get()) + 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sfm::gmm().Find(probe));
  }
}
BENCHMARK(BM_ManagerLookupByInteriorAddress)->Arg(8)->Arg(64)->Arg(512);

void BM_ManagerExpand(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    auto img = sfm::make_message<paper_msgs::sfm::Image>();
    state.ResumeTiming();
    img->data.resize(256);
    benchmark::DoNotOptimize(img->data.data());
  }
}
BENCHMARK(BM_ManagerExpand);

void BM_WholeMessageCopy(benchmark::State& state) {
  auto src = sfm::make_message<sensor_msgs::sfm::Image>();
  src->encoding = "rgb8";
  src->data.resize(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto dst = sfm::make_message<sensor_msgs::sfm::Image>(*src);
    benchmark::DoNotOptimize(dst.get());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_WholeMessageCopy)->Arg(1024 * 1024);

void BM_AccessSfmField(benchmark::State& state) {
  auto img = sfm::make_message<paper_msgs::sfm::Image>();
  img->encoding = "rgb8";
  img->data.resize(300);
  for (auto _ : state) {
    // Direct struct-field access: the transparency win of §4.1.
    benchmark::DoNotOptimize(img->height);
    benchmark::DoNotOptimize(img->data[150]);
    benchmark::DoNotOptimize(img->encoding.c_str());
  }
}
BENCHMARK(BM_AccessSfmField);

void BM_AccessFlatDataScan(benchmark::State& state) {
  rsf::ser::xcdr2::Builder builder;
  builder.AddString(2, "rgb8");
  builder.AddScalar<uint32_t>(0, 10);
  builder.AddScalar<uint32_t>(1, 10);
  std::vector<uint8_t> pixels(300, 1);
  builder.AddVector(3, pixels.data(), pixels.size());
  const auto buffer = builder.Finish();
  const rsf::ser::xcdr2::View view(buffer.data(), buffer.size());
  for (auto _ : state) {
    // Member-scan access: must traverse headers to find each index (§3.2).
    benchmark::DoNotOptimize(view.GetScalar<uint32_t>(1));
    benchmark::DoNotOptimize(view.GetVector<uint8_t>(3));
    benchmark::DoNotOptimize(view.GetString(2));
  }
}
BENCHMARK(BM_AccessFlatDataScan);

}  // namespace

BENCHMARK_MAIN();
