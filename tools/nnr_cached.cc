// nnr_cached: the remote replicate-cache daemon.
//
// A thin main() around sched::CacheServer — a single-threaded epoll TCP
// server that owns a filesystem cache directory and serves it to any
// number of `nnr_run --cache-url tcp://host:port` clients (wire protocol:
// net/cache_protocol.h; architecture: ARCHITECTURE.md). One daemon in
// front of one directory turns N machines' studies into one shared,
// partitioned grid: every cell trains exactly once fleet-wide.
//
// Sharded deployments run several nnr_cached processes — each owning its
// OWN directory — and hand clients the whole map at once
// (--cache-url tcp://h1:p1,tcp://h2:p2,...): clients route each key to
// one shard by rendezvous hashing, and SHARD_INFO lets them verify the
// directories really are disjoint (sched/sharded_cache_backend.h).
//
// The printed "listening on HOST:PORT" line is the startup contract for
// scripts (with --port 0 the kernel picks the port; parse it from there).
// SIGINT/SIGTERM shut the daemon down cleanly; killing it hard only costs
// clients their cache — they degrade to local recompute and reconnect
// when the daemon returns.
//
// Usage:
//   nnr_cached --dir /var/cache/nnr --port 9776
//   nnr_cached --dir /tmp/cache --port 0 --budget 1073741824 --ttl-ms 10000
#include <signal.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "runtime/parse_int.h"
#include "sched/cache_server.h"

namespace {

constexpr const char* kUsage = R"(nnr_cached: remote replicate-cache daemon

  --dir DIR       cache directory to own and serve (required)
  --port N        TCP port; 0 = ephemeral, printed on the "listening" line
                  (default: 9776)
  --bind ADDR     bind address (default: 127.0.0.1; use 0.0.0.0 to serve
                  a fleet)
  --budget N      byte budget for the directory; stores beyond it evict
                  LRU entries, never a leased (in-flight) key (default:
                  0 = unlimited)
  --ttl-ms N      default/maximum-by-default claim lease TTL in ms; a dead
                  client's claim expires within this (default: 10000)
  --max-conns N   connection cap; excess accepts are answered with one
                  GO_AWAY(busy + retry hint) frame and closed (default:
                  256; 0 = unlimited)
  --idle-ms N     evict a connection that delivers no bytes for N ms — the
                  slow-loris defense; healthy clients reconnect
                  transparently (default: 60000; 0 = never)
  --drain-ms N    graceful-shutdown bound on flushing queued responses at
                  SIGTERM/SIGINT (default: 2000)
  --help          this text

Every well-formed request on an admitted connection is served, in order;
there is no per-connection rate limit.

A sharded cache tier is N of these daemons, each with its own --dir (never
shared — clients verify disjointness via SHARD_INFO), listed together in
the clients' --cache-url as tcp://h1:p1,tcp://h2:p2,...

Protocol, claim-lease lifecycle, and deployment notes: ARCHITECTURE.md and
docs/nnr_run.md ("Remote cache").
)";

nnr::sched::CacheServer* g_server = nullptr;

void handle_signal(int) {
  // Async-signal-safe: stop() only write(2)s to the wakeup pipe.
  if (g_server != nullptr) g_server->stop();
}

[[noreturn]] void usage_error(const char* message) {
  std::fprintf(stderr, "nnr_cached: %s\n(run with --help for usage)\n",
               message);
  std::exit(2);
}

std::int64_t parse_int_flag(const char* flag, const char* text) {
  const auto parsed = nnr::runtime::parse_int_strict(text);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "nnr_cached: %s needs an integer, got '%s'\n", flag,
                 text);
    std::exit(2);
  }
  return *parsed;
}

}  // namespace

int main(int argc, char** argv) {
  nnr::sched::CacheServerConfig config;
  config.port = 9776;
  auto next_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage_error("flag needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf("%s", kUsage);
      return 0;
    } else if (arg == "--dir") {
      config.dir = next_value(i);
    } else if (arg == "--port") {
      const std::int64_t port = parse_int_flag("--port", next_value(i));
      if (port < 0 || port > 65535) usage_error("--port is out of range");
      config.port = static_cast<std::uint16_t>(port);
    } else if (arg == "--bind") {
      config.bind_addr = next_value(i);
    } else if (arg == "--budget") {
      const std::int64_t budget = parse_int_flag("--budget", next_value(i));
      if (budget < 0) usage_error("--budget must be >= 0");
      config.budget = budget;
    } else if (arg == "--ttl-ms") {
      const std::int64_t ttl = parse_int_flag("--ttl-ms", next_value(i));
      if (ttl < 100 || ttl > 3'600'000) {
        usage_error("--ttl-ms must be in [100, 3600000]");
      }
      config.default_ttl_ms = static_cast<std::uint32_t>(ttl);
      config.max_ttl_ms =
          std::max(config.max_ttl_ms, config.default_ttl_ms);
    } else if (arg == "--max-conns") {
      const std::int64_t cap = parse_int_flag("--max-conns", next_value(i));
      if (cap < 0) usage_error("--max-conns must be >= 0");
      config.max_conns = static_cast<std::size_t>(cap);
    } else if (arg == "--idle-ms") {
      const std::int64_t idle = parse_int_flag("--idle-ms", next_value(i));
      if (idle < 0) usage_error("--idle-ms must be >= 0");
      config.idle_timeout_ms = idle;
    } else if (arg == "--drain-ms") {
      const std::int64_t drain = parse_int_flag("--drain-ms", next_value(i));
      if (drain < 0) usage_error("--drain-ms must be >= 0");
      config.drain_timeout_ms = drain;
    } else {
      usage_error("unknown flag");
    }
  }
  if (config.dir.empty()) usage_error("--dir is required");

  const std::string bind_addr = config.bind_addr;
  nnr::sched::CacheServer server(std::move(config));
  if (!server.start()) {
    std::fprintf(stderr, "nnr_cached: cannot bind/listen (port in use?)\n");
    return 1;
  }
  g_server = &server;
  struct sigaction action{};
  action.sa_handler = handle_signal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);

  // The startup contract: scripts wait for this exact line and parse the
  // port out of it (essential with --port 0).
  std::printf("nnr_cached listening on %s:%u\n", bind_addr.c_str(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  server.run();
  std::fprintf(stderr, "nnr_cached: shut down\n");
  return 0;
}
