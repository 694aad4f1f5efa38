// Tests for net/io_backend.h: the backend name perfbench records and the
// process-wide transport syscall counters the connection bench divides by
// deliveries, plus the reactor's least-loaded link accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/log.h"
#include "backend_param.h"
#include "net/io_backend.h"
#include "net/link.h"
#include "net/poller.h"
#include "net/socket.h"

namespace rsf::net {
namespace {

// Spins until `predicate` holds or ~5 s pass.
template <typename Predicate>
bool WaitFor(Predicate predicate) {
  for (int i = 0; i < 5000; ++i) {
    if (predicate()) return true;
    SleepForNanos(1'000'000);
  }
  return predicate();
}

TEST(IoBackendSelection, EpollIsTheDefault) {
  EXPECT_EQ(ResolveIoBackendKind(), IoBackendKind::kEpoll);
  EXPECT_STREQ(IoBackendKindName(ResolveIoBackendKind()), "epoll");
}

class IoBackendLoop : public BackendParamTest {};
RSF_INSTANTIATE_BACKEND_SUITE(IoBackendLoop);

TEST_P(IoBackendLoop, ReactorAssignsLeastLoadedLoop) {
  // Two loops, three links: the third must land on whichever loop the
  // first close vacated — live-link counts, not blind rotation.
  EventLoop& a = loop_;
  EventLoop b;
  a.Start();
  b.Start();
  EXPECT_EQ(a.LiveLinks(), 0u);
  a.NoteLinkBound();
  a.NoteLinkBound();
  b.NoteLinkBound();
  EXPECT_EQ(a.LiveLinks(), 2u);
  EXPECT_EQ(b.LiveLinks(), 1u);
  a.NoteLinkClosed();
  EXPECT_EQ(a.LiveLinks(), 1u);
  b.Stop();
}

/// One echo-less pub/sub pair: a server-role link that sends frames and a
/// client-role link that receives them, both on the same loop.
struct LinkPair {
  std::shared_ptr<Link> sender;
  std::shared_ptr<Link> receiver;
  std::atomic<int> received{0};
  std::vector<uint8_t> buf;
};

TEST_P(IoBackendLoop, SubmissionBatchingCutsSyscallsPerDelivery) {
  // The shim-counter baseline: 32 sender→receiver pairs on one loop,
  // several stop-and-wait delivery rounds, syscalls differenced around the
  // steady state.  Readiness mode pays per-link syscalls — at least one
  // sendmsg and one recv per delivered frame — and the counters must see
  // them; a batching backend would have to come in under this figure.
  constexpr int kPairs = 32;
  constexpr int kRounds = 20;
  constexpr uint32_t kPayload = 512;

  EventLoop& loop = loop_;
  loop.Start();
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());

  std::vector<std::unique_ptr<LinkPair>> pairs;
  std::atomic<int> established{0};
  for (int i = 0; i < kPairs; ++i) {
    auto pair = std::make_unique<LinkPair>();
    LinkPair* raw = pair.get();

    Link::Callbacks client_cb;
    client_cb.make_handshake_request = [] {
      return std::vector<uint8_t>{'h', 'i'};
    };
    client_cb.on_handshake_reply = [](const uint8_t*, uint32_t length) {
      return length > 0;
    };
    client_cb.alloc = [raw](uint32_t length) {
      raw->buf.resize(length == 0 ? 1 : length);
      return raw->buf.data();
    };
    client_cb.on_frame = [raw](uint32_t) { raw->received.fetch_add(1); };
    client_cb.on_established = [&established](const std::shared_ptr<Link>&) {
      established.fetch_add(1);
    };
    pair->receiver = Link::Dial("127.0.0.1", listener->port(), &loop,
                                Link::Options{}, std::move(client_cb));

    auto conn = listener->Accept();
    ASSERT_TRUE(conn.ok());
    Link::Callbacks server_cb;
    server_cb.on_handshake_request = [](const uint8_t*, uint32_t,
                                        std::vector<uint8_t>* reply) {
      *reply = {'o', 'k'};
      return true;
    };
    server_cb.on_established = [&established](const std::shared_ptr<Link>&) {
      established.fetch_add(1);
    };
    pair->sender = Link::Accepted(*std::move(conn), &loop, Link::Options{},
                                  std::move(server_cb));
    pairs.push_back(std::move(pair));
  }
  ASSERT_TRUE(WaitFor([&] { return established.load() == 2 * kPairs; }));

  // Warm-up round (arena/adaptive state), then measure.
  const auto run_round = [&](int round) {
    for (auto& pair : pairs) {
      auto payload = std::shared_ptr<uint8_t[]>(new uint8_t[kPayload]);
      std::memset(payload.get(), round, kPayload);
      EXPECT_FALSE(pair->sender->EnqueueFrame(std::move(payload), kPayload));
      loop.RunInLoop([link = pair->sender] { link->FlushOnLoop(); });
    }
    ASSERT_TRUE(WaitFor([&] {
      for (auto& pair : pairs) {
        if (pair->received.load() < round + 1) return false;
      }
      return true;
    }));
  };
  run_round(0);

  const IoSyscallCounters before = GlobalIoCounters();
  for (int round = 1; round < kRounds; ++round) run_round(round);
  const IoSyscallCounters after = GlobalIoCounters();

  const double deliveries = static_cast<double>(kPairs) * (kRounds - 1);
  const double syscalls =
      static_cast<double>(after.TotalSyscalls() - before.TotalSyscalls());
  const double per_delivery = syscalls / deliveries;
  RSF_INFO("backend %s: %.2f transport syscalls per delivered frame "
           "(epoll_wait %llu, sendmsg %llu, recv %llu)",
           IoBackendKindName(GetParam()), per_delivery,
           static_cast<unsigned long long>(after.epoll_waits -
                                           before.epoll_waits),
           static_cast<unsigned long long>(after.sendmsg_calls -
                                           before.sendmsg_calls),
           static_cast<unsigned long long>(after.recv_calls -
                                           before.recv_calls));

  EXPECT_EQ(after.enter_calls, before.enter_calls);
  EXPECT_GE(after.sendmsg_calls - before.sendmsg_calls,
            static_cast<uint64_t>(deliveries));
  EXPECT_GE(after.recv_calls - before.recv_calls,
            static_cast<uint64_t>(deliveries));
  EXPECT_GE(per_delivery, 2.0);

  for (auto& pair : pairs) {
    pair->sender->CloseSync();
    pair->receiver->CloseSync();
  }
}

}  // namespace
}  // namespace rsf::net
