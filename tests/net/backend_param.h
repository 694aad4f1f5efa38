// Backend parameterization for the net-layer tests.  EventLoop has one
// backend, epoll; the reactor and link suites stay instantiated over
// IoBackendKind so each case is named for the backend it ran on
// (Backends/<Suite>.<Test>/epoll), the same name perfbench records.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "net/io_backend.h"
#include "net/poller.h"

namespace rsf::net {

/// Suites that build their own loops (LinkHarness) derive from this.
class BackendTest : public ::testing::TestWithParam<IoBackendKind> {};

/// A default (not yet started) EventLoop, stopped after each test.
class BackendParamTest : public BackendTest {
 protected:
  void TearDown() override { loop_.Stop(); }

  EventLoop loop_;
};

inline std::string BackendParamName(
    const ::testing::TestParamInfo<IoBackendKind>& info) {
  return IoBackendKindName(info.param);
}

#define RSF_INSTANTIATE_BACKEND_SUITE(suite)                             \
  INSTANTIATE_TEST_SUITE_P(Backends, suite,                              \
                           ::testing::Values(IoBackendKind::kEpoll),     \
                           BackendParamName)

}  // namespace rsf::net
