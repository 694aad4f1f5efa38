// Unit tests for sfm::string and sfm::vector against the generated message
// classes — the memory-layout guarantees of paper §4.1 (Fig. 7) and the
// one-shot assumptions of §4.3.3.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>

#include "sensor_msgs/sfm/Image.h"
#include "sensor_msgs/sfm/PointCloud.h"
#include "sfm/sfm.h"
#include "std_msgs/sfm/Header.h"

namespace {

using sensor_msgs::sfm::Image;
using sensor_msgs::sfm::PointCloud;

TEST(SfmString, StartsUnassigned) {
  auto msg = sfm::make_message<Image>();
  EXPECT_TRUE(msg->encoding.empty());
  EXPECT_EQ(msg->encoding.size(), 0u);
  EXPECT_STREQ(msg->encoding.c_str(), "");
  EXPECT_EQ(msg->encoding.wire_length(), 0u);
  EXPECT_EQ(msg->encoding.wire_offset(), 0u);
}

TEST(SfmString, AssignmentStoresContentWithPaddedWireLength) {
  auto msg = sfm::make_message<Image>();
  msg->encoding = "rgb8";
  EXPECT_EQ(msg->encoding.size(), 4u);
  EXPECT_STREQ(msg->encoding.c_str(), "rgb8");
  // Paper Fig. 7: "rgb8" occupies 8 bytes (content + NUL + padding).
  EXPECT_EQ(msg->encoding.wire_length(), 8u);
}

TEST(SfmString, OffsetIsRelativeToTheOffsetWord) {
  auto msg = sfm::make_message<Image>();
  msg->encoding = "mono16";
  const auto* offset_word =
      reinterpret_cast<const uint8_t*>(&msg->encoding) + 4;
  const char* content = reinterpret_cast<const char*>(offset_word) +
                        msg->encoding.wire_offset();
  EXPECT_STREQ(content, "mono16");
}

TEST(SfmString, StdStringInterop) {
  auto msg = sfm::make_message<Image>();
  const std::string source = "bayer_rggb8";
  msg->encoding = source;
  const std::string round_trip = msg->encoding;
  EXPECT_EQ(round_trip, source);
  EXPECT_EQ(msg->encoding, source);
  EXPECT_EQ(msg->encoding, "bayer_rggb8");
  EXPECT_EQ(std::string_view(msg->encoding), "bayer_rggb8");
  EXPECT_EQ(msg->encoding.substr(0, 5), "bayer");
  EXPECT_EQ(msg->encoding[5], '_');
  EXPECT_EQ(msg->encoding.at(0), 'b');
  EXPECT_THROW((void)msg->encoding.at(99), std::out_of_range);
  EXPECT_EQ(msg->encoding.front(), 'b');
  EXPECT_EQ(msg->encoding.back(), '8');
}

TEST(SfmString, IterationMatchesContent) {
  auto msg = sfm::make_message<Image>();
  msg->encoding = "abc";
  std::string collected;
  for (char c : msg->encoding) collected.push_back(c);
  EXPECT_EQ(collected, "abc");
}

TEST(SfmString, ReassignmentRaisesOneShotAlert) {
  auto msg = sfm::make_message<Image>();
  msg->encoding = "rgb8";
  EXPECT_THROW(msg->encoding = "mono8", sfm::AlertError);
}

TEST(SfmString, ReassignmentFallbackUnderLogPolicy) {
  sfm::ScopedAlertAction scoped(sfm::AlertAction::kSilent);
  sfm::ResetAlertStats();
  auto msg = sfm::make_message<Image>();
  msg->encoding = "rgb8";
  msg->encoding = "mono8";  // counted, falls back
  EXPECT_STREQ(msg->encoding.c_str(), "mono8");
  msg->encoding = "x";  // shorter: reuses the block in place
  EXPECT_STREQ(msg->encoding.c_str(), "x");
  EXPECT_EQ(
      sfm::GetAlertStats().For(sfm::Violation::kStringReassignment), 2u);
}

TEST(SfmVector, ResizeClaimsZeroedElements) {
  auto msg = sfm::make_message<Image>();
  msg->data.resize(300);
  EXPECT_EQ(msg->data.size(), 300u);
  EXPECT_EQ(msg->data.wire_count(), 300u);
  for (size_t i = 0; i < 300; ++i) ASSERT_EQ(msg->data[i], 0) << i;
}

TEST(SfmVector, ElementsAreContiguousAndWritable) {
  auto msg = sfm::make_message<Image>();
  msg->data.resize(16);
  for (size_t i = 0; i < 16; ++i) msg->data[i] = static_cast<uint8_t>(i * 3);
  EXPECT_EQ(msg->data.front(), 0);
  EXPECT_EQ(msg->data.back(), 45);
  EXPECT_EQ(msg->data.data() + 16, msg->data.end());
  size_t index = 0;
  for (uint8_t value : msg->data) {
    EXPECT_EQ(value, static_cast<uint8_t>(index * 3));
    ++index;
  }
}

TEST(SfmVector, AtThrowsOutOfRange) {
  auto msg = sfm::make_message<Image>();
  msg->data.resize(4);
  EXPECT_EQ(msg->data.at(3), 0);
  EXPECT_THROW(msg->data.at(4), std::out_of_range);
}

TEST(SfmVector, ResizeZeroFirstDoesNotConsumeTheOneShot) {
  // Mirrors the paper's failure case 3 precondition: `points.resize(0)` at
  // the top of a routine must not make a later proper resize a violation.
  auto msg = sfm::make_message<Image>();
  msg->data.resize(0);
  EXPECT_EQ(msg->data.size(), 0u);
  msg->data.resize(10);  // first real sizing: no alert
  EXPECT_EQ(msg->data.size(), 10u);
}

TEST(SfmVector, SecondResizeRaisesOneShotAlert) {
  auto msg = sfm::make_message<Image>();
  msg->data.resize(10);
  EXPECT_THROW(msg->data.resize(20), sfm::AlertError);
}

TEST(SfmVector, SecondResizeFallbackPreservesPrefix) {
  sfm::ScopedAlertAction scoped(sfm::AlertAction::kSilent);
  sfm::ResetAlertStats();
  auto msg = sfm::make_message<Image>();
  msg->data.resize(4);
  for (size_t i = 0; i < 4; ++i) msg->data[i] = static_cast<uint8_t>(i + 1);

  msg->data.resize(2);  // shrink in place
  EXPECT_EQ(msg->data.size(), 2u);
  EXPECT_EQ(msg->data[1], 2);

  msg->data.resize(6);  // regrow: prefix must survive
  EXPECT_EQ(msg->data.size(), 6u);
  EXPECT_EQ(msg->data[0], 1);
  EXPECT_EQ(msg->data[1], 2);
  EXPECT_EQ(sfm::GetAlertStats().For(sfm::Violation::kVectorMultiResize), 2u);
}

TEST(SfmVector, AssignFromStdVector) {
  auto msg = sfm::make_message<Image>();
  const std::vector<uint8_t> source = {9, 8, 7, 6};
  msg->data = source;
  ASSERT_EQ(msg->data.size(), 4u);
  EXPECT_EQ(msg->data[0], 9);
  EXPECT_EQ(msg->data[3], 6);
}

TEST(SfmVector, NestedMessageElementsExpandTheSameArena) {
  auto cloud = sfm::make_message<PointCloud>();
  cloud->points.resize(3);
  cloud->points[0].x = 1.5f;
  cloud->points[2].z = -2.0f;
  EXPECT_FLOAT_EQ(cloud->points[0].x, 1.5f);
  EXPECT_FLOAT_EQ(cloud->points[2].z, -2.0f);

  cloud->channels.resize(2);
  cloud->channels[0].name = "intensity";   // nested string -> same arena
  cloud->channels[0].values.resize(3);
  cloud->channels[0].values[1] = 0.25f;
  cloud->channels[1].name = "curvature";
  EXPECT_EQ(cloud->channels[0].name, "intensity");
  EXPECT_FLOAT_EQ(cloud->channels[0].values[1], 0.25f);
  EXPECT_EQ(cloud->channels[1].name, "curvature");

  // Everything landed inside one arena record.
  const auto info = sfm::gmm().Find(cloud.get());
  ASSERT_TRUE(info.has_value());
  EXPECT_GT(info->size, sizeof(PointCloud));
  EXPECT_LE(info->size, info->capacity);
}

TEST(SfmMessage, StackDeclarationIsDiagnosed) {
  // Without the ROS-SF Converter rewriting it to heap allocation, using a
  // variable-size field of a stack message must raise the unmanaged alert
  // with remediation guidance (paper §4.3.2).
  Image img;
  EXPECT_THROW(img.encoding = "rgb8", sfm::AlertError);
}

TEST(SfmMessage, FixedSkeletonFieldsOfStackMessagesStillWork) {
  // Fixed-size fields never touch the manager, so a stack skeleton is
  // harmless until a variable-size field needs arena memory.
  Image img;
  img.height = 42;
  img.width = 7;
  EXPECT_EQ(img.height, 42u);
}

TEST(SfmMessage, WholeMessageCopyConstruction) {
  auto src = sfm::make_message<Image>();
  src->height = 480;
  src->width = 640;
  src->encoding = "rgb8";
  src->data.resize(640 * 480 * 3);
  src->data[100] = 0xCD;

  auto dst = sfm::make_message<Image>(*src);  // generated copy constructor
  EXPECT_EQ(dst->height, 480u);
  EXPECT_EQ(dst->encoding, "rgb8");
  ASSERT_EQ(dst->data.size(), src->data.size());
  EXPECT_EQ(dst->data[100], 0xCD);

  // Deep copy: mutating the source must not affect the copy.
  src->data[100] = 0x11;
  EXPECT_EQ(dst->data[100], 0xCD);
}

TEST(SfmMessage, WholeMessageAssignmentResetsDestination) {
  auto src = sfm::make_message<Image>();
  src->encoding = "mono8";
  src->data.resize(64);

  auto dst = sfm::make_message<Image>();
  dst->encoding = "rgb8";
  dst->data.resize(8);

  *dst = *src;  // top-level assignment: whole copy, NOT a reassignment alert
  EXPECT_EQ(dst->encoding, "mono8");
  EXPECT_EQ(dst->data.size(), 64u);
}

TEST(SfmMessage, NestedFieldAssignmentIsFieldWise) {
  auto a = sfm::make_message<Image>();
  a->header.seq = 5;
  a->header.frame_id = "camera";

  auto b = sfm::make_message<Image>();
  b->header = a->header;  // nested target: deep copy into b's arena
  EXPECT_EQ(b->header.seq, 5u);
  EXPECT_EQ(b->header.frame_id, "camera");

  const auto info_b = sfm::gmm().Find(b.get());
  ASSERT_TRUE(info_b.has_value());
  // b's frame_id content must live in b's arena, not alias a's.
  const char* content = b->header.frame_id.c_str();
  EXPECT_GE(reinterpret_cast<const uint8_t*>(content), info_b->start);
  EXPECT_LT(reinterpret_cast<const uint8_t*>(content),
            info_b->start + info_b->capacity);
}

TEST(SfmMessage, LifeCycleDeleteBeforeAndAfterPublish) {
  const size_t before = sfm::gmm().LiveCount();
  auto msg = sfm::make_message<Image>();
  msg->data.resize(128);
  EXPECT_EQ(sfm::gmm().LiveCount(), before + 1);

  // Publish: transport takes an aliased buffer pointer.
  const auto buffer = sfm::gmm().Publish(msg.get());
  ASSERT_TRUE(buffer.has_value());

  msg.reset();  // developer releases the object (Fig. 8)
  EXPECT_EQ(sfm::gmm().LiveCount(), before);
  // The bytes survive until the transport drops its reference.
  EXPECT_EQ(buffer->data.get()[0], 0);
}

TEST(SfmMessage, ArenaCapacityOverflowIsReportedWithGuidance) {
  sfm::SetArenaCapacity("sensor_msgs/Image", sizeof(Image) + 64);
  auto msg = sfm::make_message<Image>();
  try {
    msg->data.resize(4096);
    FAIL() << "expected overflow alert";
  } catch (const sfm::AlertError& e) {
    EXPECT_EQ(e.violation(), sfm::Violation::kArenaOverflow);
    EXPECT_NE(std::string(e.what()).find("arena"), std::string::npos);
  }
  sfm::SetArenaCapacity("sensor_msgs/Image", 0);
}

TEST(SfmMessage, SkeletonLayoutMatchesPaperFig7Shape) {
  // For the simplified Image of the paper (string, uint32, uint32, bytes[])
  // the skeleton must be 24 bytes with fields at 0/8/12/16.  Our full
  // sensor_msgs/Image embeds a Header first; check the generated offsets
  // via the static_asserts in the header plus spot checks here.
  EXPECT_EQ(sizeof(std_msgs::sfm::Header), 20u);  // seq 4 + stamp 8 + string 8
  EXPECT_EQ(offsetof(Image, height), 20u);
  EXPECT_EQ(offsetof(Image, width), 24u);
  EXPECT_EQ(offsetof(Image, encoding), 28u);
  EXPECT_EQ(offsetof(Image, data), 44u);
  EXPECT_EQ(sizeof(Image), 52u);
}

TEST(SfmMessage, ReceivePathInterpretsBytesInPlace) {
  // Build a message, snapshot its published bytes, "receive" them into a
  // fresh arena, and read the fields without any de-serialization.
  auto src = sfm::make_message<Image>();
  src->height = 10;
  src->width = 10;
  src->encoding = "rgb8";
  src->data.resize(300);
  src->data[299] = 0x77;
  const auto wire = sfm::gmm().Publish(src.get());
  ASSERT_TRUE(wire.has_value());

  auto block = std::make_unique<uint8_t[]>(wire->size);
  std::memcpy(block.get(), wire->data.get(), wire->size);
  const uint8_t* start = sfm::gmm().AdoptReceived(
      "sensor_msgs/Image", std::move(block), wire->size, wire->size);
  auto received = sfm::WrapReceived<Image>(start);

  EXPECT_EQ(received->height, 10u);
  EXPECT_EQ(received->encoding, "rgb8");
  ASSERT_EQ(received->data.size(), 300u);
  EXPECT_EQ(received->data[299], 0x77);

  const size_t live_before = sfm::gmm().LiveCount();
  received.reset();
  EXPECT_EQ(sfm::gmm().LiveCount(), live_before - 1);
}

}  // namespace
