#include "net/link.h"

#include <sys/socket.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/log.h"

namespace rsf::net {

uint64_t WriteTimeoutNanos() noexcept {
  uint64_t millis = 30'000;
  if (const char* env = std::getenv("RSF_WRITE_TIMEOUT_MS")) {
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(env, &end, 10);
    if (end != env) millis = parsed;
  }
  return millis * 1'000'000ull;
}

Link::Link(EventLoop* loop, Options options, Callbacks callbacks)
    : loop_(loop),
      options_(options),
      callbacks_(std::move(callbacks)) {
  // Counted at construction, not registration, so a dial burst spreads
  // across the pool before any of the links finish binding.
  loop_->NoteLinkBound();
  loop_slot_held_.store(true, std::memory_order_release);
}

Link::~Link() { ReleaseLoopSlot(); }

void Link::ReleaseLoopSlot() noexcept {
  if (loop_slot_held_.exchange(false, std::memory_order_acq_rel)) {
    loop_->NoteLinkClosed();
  }
}

std::shared_ptr<Link> Link::Accepted(TcpConnection conn, EventLoop* loop,
                                     Options options, Callbacks callbacks) {
  auto link = std::make_shared<Link>(loop, options, std::move(callbacks));
  link->role_ = Role::kServer;
  link->conn_ = std::move(conn);
  link->state_.store(State::kHandshaking, std::memory_order_release);
  loop->RunInLoop([link] { link->StartServerOnLoop(); });
  return link;
}

std::shared_ptr<Link> Link::Dial(const std::string& host, uint16_t port,
                                 EventLoop* loop, Options options,
                                 Callbacks callbacks) {
  auto link = std::make_shared<Link>(loop, options, std::move(callbacks));
  link->role_ = Role::kClient;
  bool in_progress = false;
  auto conn = TcpConnection::ConnectStart(host, port, &in_progress);
  if (conn.ok()) {
    link->conn_ = std::move(*conn);
    link->state_.store(in_progress ? State::kConnecting : State::kHandshaking,
                       std::memory_order_release);
  } else {
    RSF_WARN("link: dial %s:%u failed: %s", host.c_str(), port,
             conn.status().message().c_str());
    // Not kClosed (CloseOnLoop would no-op): StartClientOnLoop sees the
    // invalid conn and surfaces the failure through on_closed like every
    // other error.
    link->state_.store(State::kConnecting, std::memory_order_release);
  }
  loop->RunInLoop([link, in_progress] { link->StartClientOnLoop(in_progress); });
  return link;
}

void Link::StartServerOnLoop() {
  if (state() == State::kClosed) return;
  if (auto s = conn_.SetNonBlocking(true); !s.ok()) {
    RSF_WARN("link: set nonblocking failed: %s", s.message().c_str());
    CloseOnLoop(true);
    return;
  }
  if (auto s = ApplyTransportSocketOptions(conn_); !s.ok()) {
    RSF_WARN("link: socket options failed: %s", s.message().c_str());
  }
  Register();
}

void Link::StartClientOnLoop(bool in_progress) {
  if (!conn_.valid()) {
    // The dial failed synchronously (bad address, fd exhaustion).
    CloseOnLoop(true);
    return;
  }
  if (auto s = ApplyTransportSocketOptions(conn_); !s.ok()) {
    RSF_WARN("link: socket options failed: %s", s.message().c_str());
  }
  if (in_progress) {
    Register();
    // No cancellation handle needed: the timer holds a weak_ptr and a
    // firing after the link left kConnecting is a no-op.
    std::weak_ptr<Link> weak = shared_from_this();
    loop_->RunAfter(options_.connect_timeout_nanos, [weak] {
      auto link = weak.lock();
      if (link && link->state() == State::kConnecting) {
        RSF_WARN("link: connect timed out (fd %d)", link->fd());
        link->CloseOnLoop(true);
      }
    });
    return;
  }
  // Loopback connects often complete synchronously — go straight to the
  // handshake.
  EnterClientHandshake();
  if (state() != State::kClosed) Register();
}

void Link::MaybeArmWriteDeadline() {
  if (options_.write_timeout_nanos == 0 || write_deadline_armed_) return;
  const State s = state();
  if (s == State::kClosed || s == State::kConnecting) return;
  uint64_t snapshot;
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    if (!writer_.HasPending()) return;
    snapshot = writer_.BytesWritten();
  }
  write_deadline_armed_ = true;
  std::weak_ptr<Link> weak = shared_from_this();
  loop_->RunAfter(options_.write_timeout_nanos, [weak, snapshot] {
    if (auto link = weak.lock()) link->OnWriteDeadline(snapshot);
  });
}

void Link::OnWriteDeadline(uint64_t bytes_snapshot) {
  write_deadline_armed_ = false;
  if (state() == State::kClosed) return;
  bool pending;
  uint64_t written;
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    pending = writer_.HasPending();
    written = writer_.BytesWritten();
  }
  if (!pending) return;  // queue drained since arming — all good
  if (written == bytes_snapshot) {
    // The peer accepted nothing for a full period: it stopped reading.
    // Close so queued frames stop accruing; the owner counts the stranded
    // frames as drops.
    RSF_WARN("link: no write progress in %llu ms with frames queued; "
             "closing (fd %d)",
             static_cast<unsigned long long>(options_.write_timeout_nanos /
                                             1'000'000ull),
             conn_.fd());
    CloseOnLoop(true);
    return;
  }
  MaybeArmWriteDeadline();  // slow but moving: re-arm on a fresh snapshot
}

void Link::Register() {
  loop_->Add(conn_.fd(), CurrentInterest(),
             [self = shared_from_this()](uint32_t events) {
               self->OnEvent(events);
             });
  registered_ = true;
}

uint32_t Link::CurrentInterest() {
  bool write_pending;
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    write_pending = writer_.HasPending();
  }
  switch (state()) {
    case State::kConnecting:
      return kEventWritable;
    case State::kHandshaking:
      return kEventReadable | (write_pending ? kEventWritable : 0u);
    case State::kEstablished:
      return (paused_ ? 0u : kEventReadable) |
             (write_pending ? kEventWritable : 0u);
    case State::kDraining:
      return write_pending ? kEventWritable : 0u;
    case State::kClosed:
      return 0;
  }
  return 0;
}

void Link::UpdateInterest() {
  if (registered_ && state() != State::kClosed) {
    loop_->SetInterest(conn_.fd(), CurrentInterest());
  }
}

void Link::OnEvent(uint32_t events) {
  if (state() == State::kClosed) return;
  // kEventError needs no branch of its own: the loop folds it into the
  // armed directions, and the read/write below surfaces the errno.
  if (events & kEventWritable) {
    if (state() == State::kConnecting) {
      ResolveConnect();
    } else {
      FlushWriter();
    }
  }
  if (state() == State::kClosed) return;
  if (events & kEventReadable) {
    if (state() == State::kEstablished && paused_) {
      // Read interest is off, so this is an EPOLLERR/HUP fold-in: peek for
      // EOF without consuming frame bytes the resume will want.
      PeekForEof();
    } else {
      if (state() == State::kHandshaking) HandshakeReadable();
      // Fall through: bytes buffered behind the handshake reply (a fast
      // publisher) drain in the same event.
      if (state() == State::kEstablished && !paused_) ReadEstablished();
    }
  }
  if (state() != State::kClosed) UpdateInterest();
}

void Link::ResolveConnect() {
  const int error = conn_.TakeConnectError();
  if (error != 0) {
    RSF_DEBUG("link: connect failed: %s", std::strerror(error));
    CloseOnLoop(true);
    return;
  }
  state_.store(State::kHandshaking, std::memory_order_release);
  EnterClientHandshake();
}

void Link::EnterClientHandshake() {
  state_.store(State::kHandshaking, std::memory_order_release);
  if (callbacks_.make_handshake_request) {
    const std::vector<uint8_t> request = callbacks_.make_handshake_request();
    auto payload = std::shared_ptr<uint8_t[]>(new uint8_t[request.size()]);
    std::memcpy(payload.get(), request.data(), request.size());
    {
      std::lock_guard<std::mutex> lock(write_mutex_);
      writer_.Enqueue(std::move(payload),
                      static_cast<uint32_t>(request.size()));
    }
  }
  FlushWriter();
}

void Link::HandshakeReadable() {
  // One frame each way: a request (server role) or a reply (client role).
  const FrameAllocator alloc = [this](uint32_t length) -> uint8_t* {
    if (length > kMaxHandshakeFrame) return nullptr;
    handshake_buf_.resize(length);
    return handshake_buf_.data();
  };
  uint32_t length = 0;
  auto step = reader_.Poll(conn_, alloc, &length);
  if (!step.ok()) {
    CloseOnLoop(true);
    return;
  }
  if (*step == FrameReader::Step::kNeedMore) return;

  if (role_ == Role::kServer) {
    std::vector<uint8_t> reply;
    const bool accepted = callbacks_.on_handshake_request &&
                          callbacks_.on_handshake_request(
                              handshake_buf_.data(), length, &reply);
    if (!reply.empty()) {
      auto payload = std::shared_ptr<uint8_t[]>(new uint8_t[reply.size()]);
      std::memcpy(payload.get(), reply.data(), reply.size());
      std::lock_guard<std::mutex> lock(write_mutex_);
      writer_.Enqueue(std::move(payload), static_cast<uint32_t>(reply.size()));
    }
    if (accepted) {
      EnterEstablished();
    } else {
      // Flush the error reply to the peer, then close (kDraining).
      state_.store(State::kDraining, std::memory_order_release);
      FlushWriter();
    }
  } else {
    const bool accepted = callbacks_.on_handshake_reply &&
                          callbacks_.on_handshake_reply(handshake_buf_.data(),
                                                        length);
    if (accepted) {
      EnterEstablished();
    } else {
      CloseOnLoop(true);
    }
  }
  handshake_buf_.clear();
  handshake_buf_.shrink_to_fit();
}

void Link::EnterEstablished() {
  state_.store(State::kEstablished, std::memory_order_release);
  if (callbacks_.on_established) callbacks_.on_established(shared_from_this());
  if (state() == State::kClosed) return;  // on_established may close
  FlushWriter();
}

void Link::ReadEstablished() {
  if (!callbacks_.on_frame) {
    DrainDiscard();
    return;
  }
  while (state() == State::kEstablished && !paused_) {
    uint32_t length = 0;
    auto step = reader_.Poll(conn_, callbacks_.alloc, &length);
    if (!step.ok()) {
      CloseOnLoop(true);
      return;
    }
    if (*step == FrameReader::Step::kNeedMore) return;
    received_.fetch_add(1, std::memory_order_relaxed);
    callbacks_.on_frame(length);  // may pause or close the link
  }
}

void Link::DrainDiscard() {
  // Publisher side of a link: the peer sends nothing after the handshake,
  // so any readability is either EOF or junk to discard.
  uint8_t scratch[4096];
  for (;;) {
    auto n = conn_.ReadSome(scratch);
    if (!n.ok()) {
      CloseOnLoop(true);
      return;
    }
    if (*n == 0) return;  // drained
  }
}

void Link::PeekForEof() {
  uint8_t byte;
  const ssize_t n = ::recv(conn_.fd(), &byte, 1, MSG_PEEK);
  if (n > 0) return;  // data waiting for the resume — not an error
  if (n < 0 &&
      (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
    return;
  }
  CloseOnLoop(true);
}

bool Link::EnqueueFrame(std::shared_ptr<const uint8_t[]> payload,
                        uint32_t size) {
  enqueued_.fetch_add(1, std::memory_order_relaxed);
  if (state() == State::kClosed) {
    evicted_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  bool evicted;
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    evicted = writer_.Enqueue(std::move(payload), size,
                              options_.max_pending_frames);
  }
  if (evicted) evicted_.fetch_add(1, std::memory_order_relaxed);
  return evicted;
}

void Link::FlushOnLoop() {
  if (state() == State::kClosed) return;
  if (state() == State::kConnecting) return;  // nothing to flush yet
  FlushWriter();
  if (state() != State::kClosed) UpdateInterest();
}

void Link::FlushWriter() {
  Status status;
  bool pending;
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    status = writer_.Flush(conn_);
    pending = writer_.HasPending();
    sent_.store(writer_.FramesWritten(), std::memory_order_relaxed);
  }
  if (!status.ok()) {
    CloseOnLoop(true);
    return;
  }
  if (state() == State::kDraining && !pending) {
    CloseOnLoop(true);
    return;
  }
  if (pending) MaybeArmWriteDeadline();
}

void Link::PauseReading() {
  if (state() != State::kEstablished || paused_) return;
  paused_ = true;
  UpdateInterest();
}

void Link::ResumeReading() {
  if (state() != State::kEstablished || !paused_) return;
  paused_ = false;
  UpdateInterest();
  // Bytes that arrived while paused are already in the kernel buffer;
  // level-triggered epoll re-reports them, so no manual read is needed.
}

void Link::CloseNow() { CloseOnLoop(false); }

void Link::CloseSync() {
  auto self = shared_from_this();
  loop_->RunSync([self] { self->CloseOnLoop(false); });
}

void Link::CloseOnLoop(bool notify) {
  if (state() == State::kClosed) return;
  state_.store(State::kClosed, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    stranded_.store(writer_.PendingFrames(), std::memory_order_relaxed);
  }
  // Remove BEFORE close, while the fd number still names this socket.
  if (registered_) {
    loop_->Remove(conn_.fd());
    registered_ = false;
  }
  ReleaseLoopSlot();
  conn_.Close();
  if (notify && callbacks_.on_closed) callbacks_.on_closed(shared_from_this());
  // Release the callbacks (they capture the owner: Link ⇄ owner cycle).
  // Deferred via Post: CloseOnLoop may be running INSIDE one of these
  // std::functions (on_frame → CloseOnLoop), and destroying the function
  // currently executing is UB.  The posted task runs after this event
  // dispatch finishes, on the same loop.  Post only fails once the loop
  // has stopped — at which point no callback frame is live and clearing
  // inline is safe.
  if (!loop_->Post([self = shared_from_this()] { self->callbacks_ = {}; })) {
    callbacks_ = {};
  }
}

Link::Stats Link::stats() const noexcept {
  Stats s;
  s.frames_enqueued = enqueued_.load(std::memory_order_relaxed);
  s.frames_evicted = evicted_.load(std::memory_order_relaxed);
  s.frames_sent = sent_.load(std::memory_order_relaxed);
  s.frames_received = received_.load(std::memory_order_relaxed);
  s.frames_stranded = stranded_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace rsf::net
