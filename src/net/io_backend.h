// Readiness bits and process-wide transport syscall counters for the
// reactor (net/poller.h), whose EventLoop owns one epoll instance per loop.
//
// IoBackendKind, ResolveIoBackendKind, IoBackendKindName and
// IoSyscallCounters::enter_calls stay only because perfbench/harness.cpp
// reads them (it records the backend name and io_uring enters per
// message).  There is one backend, epoll, and enter_calls is always 0.
#pragma once

#include <cstdint>

namespace rsf::net {

/// Readiness bits passed to an fd's event callback (re-exported by
/// net/poller.h).
inline constexpr uint32_t kEventReadable = 1u << 0;
inline constexpr uint32_t kEventWritable = 1u << 1;
/// Error/hangup fired.  EventLoop folds it into the armed read/write bits
/// (readable when nothing is armed), so handlers need no error branch: the
/// next read or write syscall surfaces the errno.
inline constexpr uint32_t kEventError = 1u << 2;

/// Process-wide syscall counters for the transport data path: every
/// loop's epoll calls plus the socket-layer sendmsg/recv shims.  The
/// connection bench differences this around a run and divides by
/// deliveries.
struct IoSyscallCounters {
  uint64_t enter_calls = 0;  // always 0: there is no submission backend
  uint64_t epoll_waits = 0;
  uint64_t epoll_ctls = 0;
  uint64_t sendmsg_calls = 0;  // socket.cpp WriteSyscallCount
  uint64_t recv_calls = 0;     // socket.cpp RecvSyscallCount

  /// Transport syscalls: what a delivery actually pays the kernel.
  [[nodiscard]] uint64_t TotalSyscalls() const noexcept {
    return epoll_waits + epoll_ctls + sendmsg_calls + recv_calls;
  }
};
IoSyscallCounters GlobalIoCounters() noexcept;

enum class IoBackendKind : uint8_t { kEpoll };

[[nodiscard]] constexpr IoBackendKind ResolveIoBackendKind() noexcept {
  return IoBackendKind::kEpoll;
}
[[nodiscard]] constexpr const char* IoBackendKindName(IoBackendKind) noexcept {
  return "epoll";
}

}  // namespace rsf::net
