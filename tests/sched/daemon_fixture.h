// An in-process nnr_cached daemon for the sched suites: a CacheServer on a
// loopback port, run on its own thread, plus the fast client options the
// suites share.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "sched/cache_server.h"
#include "sched/remote_cache_backend.h"

namespace nnr::testutil {

/// Client options with short timeouts and a short reconnect backoff, so a
/// test that stops a daemon pays milliseconds per degraded operation.
inline sched::RemoteCacheOptions fast_options() {
  sched::RemoteCacheOptions options;
  options.lease_ttl_ms = 2000;
  options.io_timeout_ms = 2000;
  options.connect_timeout_ms = 500;
  options.reconnect_backoff_ms = 50;
  options.claim_poll_ms = 10;
  return options;
}

/// A daemon serving `dir` on 127.0.0.1 (port 0 = ephemeral). stop() is the
/// SIGTERM path: a graceful drain, then the thread joins.
class ServerHandle {
 public:
  bool start(const std::string& dir, std::uint16_t port = 0) {
    sched::CacheServerConfig config;
    config.dir = dir;
    config.port = port;
    return start(std::move(config));
  }

  bool start(sched::CacheServerConfig config) {
    server_ = std::make_unique<sched::CacheServer>(std::move(config));
    if (!server_->start()) {
      server_.reset();
      return false;
    }
    thread_ = std::thread([this] { server_->run(); });
    return true;
  }

  [[nodiscard]] sched::CacheServer& server() { return *server_; }
  [[nodiscard]] std::uint16_t port() const { return server_->port(); }
  [[nodiscard]] std::string url() const {
    return "tcp://127.0.0.1:" + std::to_string(port());
  }

  void stop() {
    if (server_ != nullptr) {
      server_->stop();
      thread_.join();
      server_.reset();
    }
  }

  ServerHandle() = default;
  ServerHandle(const ServerHandle&) = delete;
  ServerHandle& operator=(const ServerHandle&) = delete;
  ~ServerHandle() { stop(); }

 private:
  std::unique_ptr<sched::CacheServer> server_;
  std::thread thread_;
};

}  // namespace nnr::testutil
