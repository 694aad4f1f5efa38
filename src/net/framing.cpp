#include "net/framing.h"

#include <algorithm>

#include "common/endian.h"

namespace rsf::net {

// Both writers gather the length prefix and the payload spans into one
// WritevAll call, so a frame normally costs a single sendmsg syscall (the
// kernel splits it only when the socket buffer fills).  The seed paid two
// write syscalls per message — a measurable per-message tax at high rates.

Status WriteFrame(TcpConnection& conn, std::span<const uint8_t> payload) {
  uint8_t header[4];
  StoreLE<uint32_t>(header, static_cast<uint32_t>(payload.size()));
  const iovec iov[2] = {
      {header, sizeof(header)},
      {const_cast<uint8_t*>(payload.data()), payload.size()},
  };
  return conn.WritevAll(std::span<const iovec>(iov, payload.empty() ? 1 : 2));
}

Status WriteFrameScattered(TcpConnection& conn, std::span<const uint8_t> head,
                           std::span<const uint8_t> body) {
  uint8_t header[4];
  StoreLE<uint32_t>(header, static_cast<uint32_t>(head.size() + body.size()));
  const iovec iov[3] = {
      {header, sizeof(header)},
      {const_cast<uint8_t*>(head.data()), head.size()},
      {const_cast<uint8_t*>(body.data()), body.size()},
  };
  return conn.WritevAll(iov);
}

Status ReadFrame(TcpConnection& conn, const FrameAllocator& alloc,
                 uint32_t* length) {
  uint8_t header[4];
  RSF_RETURN_IF_ERROR(conn.ReadExact(header));
  const uint32_t raw = LoadLE<uint32_t>(header);
  if (FrameTag(raw) != kFrameTagData) {
    return OutOfRangeError("unexpected frame tag on blocking read: " +
                           std::to_string(FrameTag(raw)));
  }
  const uint32_t len = FrameLength(raw);
  uint8_t* dst = alloc(len);
  if (dst == nullptr && len > 0) {
    return ResourceExhaustedError("frame allocator returned null");
  }
  if (len > 0) {
    RSF_RETURN_IF_ERROR(conn.ReadExact(std::span<uint8_t>(dst, len)));
  }
  *length = len;
  return Status::Ok();
}

void FrameReader::Reset() noexcept {
  state_ = State::kHeader;
  header_got_ = 0;
  payload_ = nullptr;
  raw_len_ = 0;
  payload_len_ = 0;
  payload_got_ = 0;
}

Result<FrameReader::Step> FrameReader::Poll(TcpConnection& conn,
                                            const FrameAllocator& alloc,
                                            uint32_t* length) {
  for (;;) {
    if (state_ == State::kHeader) {
      auto n = conn.ReadSome(
          std::span<uint8_t>(header_ + header_got_, 4 - header_got_));
      if (!n.ok()) {
        if (n.status().code() == StatusCode::kUnavailable &&
            header_got_ > 0) {
          return Status(StatusCode::kUnavailable,
                        "connection closed mid-frame (header)");
        }
        return n.status();
      }
      if (*n == 0) return Step::kNeedMore;
      header_got_ += *n;
      if (header_got_ < 4) continue;

      const uint32_t raw = LoadLE<uint32_t>(header_);
      if (FrameTag(raw) > kFrameTagMax) {
        return OutOfRangeError("unknown frame tag (corrupted length?): " +
                               std::to_string(raw));
      }
      raw_len_ = raw;
      payload_len_ = FrameLength(raw);
      payload_got_ = 0;
      payload_ = alloc(raw);
      if (payload_ == nullptr && payload_len_ > 0) {
        return ResourceExhaustedError("frame allocator returned null");
      }
      if (payload_len_ == 0) {
        *length = raw;
        Reset();
        return Step::kFrame;
      }
      state_ = State::kPayload;
    }

    auto n = conn.ReadSome(std::span<uint8_t>(payload_ + payload_got_,
                                              payload_len_ - payload_got_));
    if (!n.ok()) {
      if (n.status().code() == StatusCode::kUnavailable) {
        return Status(StatusCode::kUnavailable,
                      "connection closed mid-frame (payload)");
      }
      return n.status();
    }
    if (*n == 0) return Step::kNeedMore;
    payload_got_ += *n;
    if (payload_got_ == payload_len_) {
      const uint32_t raw = raw_len_;
      Reset();
      *length = raw;
      return Step::kFrame;
    }
  }
}

bool FrameWriter::Enqueue(std::shared_ptr<const uint8_t[]> payload,
                          uint32_t size, size_t max_pending) {
  bool evicted = false;
  if (max_pending > 0 && pending_.size() >= max_pending) {
    // Drop-oldest, but never a frame already (partially) on the wire: the
    // front frame may be mid-write.
    const size_t victim = pending_.front().offset > 0 ? 1 : 0;
    if (victim < pending_.size()) {
      pending_.erase(pending_.begin() + static_cast<long>(victim));
      evicted = true;
    }
  }
  PendingFrame frame;
  // The raw value (tag | length) goes on the wire; the writer's own
  // byte accounting uses the masked payload length.
  StoreLE<uint32_t>(frame.header, size);
  frame.payload = std::move(payload);
  frame.size = FrameLength(size);
  pending_.push_back(std::move(frame));
  return evicted;
}

void FrameWriter::AdaptGatherBudget() noexcept {
  // Deep queue: the socket is the bottleneck, so amortize the syscall over
  // more frames.  Shallow queue: shrink back so the common one-or-two-frame
  // flush never walks an oversized iovec array.
  if (pending_.size() > gather_budget_) {
    gather_budget_ = std::min(gather_budget_ * 2, kGatherFramesMax);
  } else if (gather_budget_ > kGatherFramesMin &&
             pending_.size() <= gather_budget_ / 4) {
    gather_budget_ = std::max(gather_budget_ / 2, kGatherFramesMin);
  }
}

void FrameWriter::Gather() {
  iov_.clear();
  const size_t count = std::min(pending_.size(), gather_budget_);
  for (size_t i = 0; i < count; ++i) {
    const PendingFrame& frame = pending_[i];
    size_t skip = frame.offset;  // only ever non-zero for i == 0
    if (skip < sizeof(frame.header)) {
      iov_.push_back({const_cast<uint8_t*>(frame.header) + skip,
                      sizeof(frame.header) - skip});
      skip = 0;
    } else {
      skip -= sizeof(frame.header);
    }
    if (frame.size > skip) {
      iov_.push_back({const_cast<uint8_t*>(frame.payload.get()) + skip,
                      frame.size - skip});
    }
  }
}

void FrameWriter::Consume(size_t bytes) noexcept {
  bytes_written_ += bytes;
  while (!pending_.empty()) {
    PendingFrame& front = pending_.front();
    const size_t wire = sizeof(front.header) + front.size;
    const size_t take = std::min(bytes, wire - front.offset);
    front.offset += take;
    bytes -= take;
    if (front.offset < wire) break;
    pending_.pop_front();
    ++frames_written_;
  }
}

Status FrameWriter::Flush(TcpConnection& conn) {
  // Gather up to the adaptive budget of queued frames (header + payload
  // each) into one sendmsg; resume mid-frame via the front frame's offset.
  AdaptGatherBudget();
  while (!pending_.empty()) {
    Gather();
    auto written =
        conn.WriteSome(std::span<const iovec>(iov_.data(), iov_.size()));
    if (!written.ok()) return written.status();
    if (*written == 0) return Status::Ok();  // socket full: resume later
    Consume(*written);
  }
  return Status::Ok();
}

}  // namespace rsf::net
