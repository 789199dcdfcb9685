// cpsinw_shard_server: serves campaign shards to remote campaigns over
// TCP.  One listening socket, one thread per accepted connection; each
// connection carries any number of framed shard_io v1 exchanges — the
// client sends a shard work document in a net frame, the server answers
// with the framed ShardResult JSON.  A shard produces the same bytes
// whether it runs inline, on the thread pool, or on this server.
//
// Besides work documents, a connection may send the tiny shard_io v1
// `stats` request and gets a live telemetry snapshot back (uptime,
// shards served, context-cache hit counters, per-shard latency
// histogram) — see `cpsinw_shard_stats` for a ready-made scraper.
//
// stdout carries exactly one line ("... listening on <port>") so a
// spawner using --port 0 can discover the kernel-assigned port; all
// diagnostics go to stderr through the structured logger (leveled
// `event key=value` lines, one atomic write each; --log-level picks the
// threshold, default info).
//
// The --fail-mode flags misbehave on purpose *after* parsing the request
// so tests can exercise every client failure path: disconnect (close with
// no reply), garbage (a well-framed non-result payload), oversized (a
// header declaring a payload past the frame limit), hang (never reply —
// the client's per-shard deadline fires), exit (the whole server dies, as
// a crashing shard would — every shard in flight on it fails and later
// connections are refused).
//
// Context caching: shards of one job share a (circuit, pattern set), so
// the server memoizes the last compiled faults::EvalContext by content
// fingerprint (engine::context_fingerprint — exact byte equality, never a
// hash comparison).  Every shard of a job after the first skips circuit
// compilation and the good-machine simulation; hit/miss counters ride on
// the per-shard log line and on the stats snapshot.
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/net.hpp"
#include "engine/shard.hpp"
#include "engine/shard_io.hpp"
#include "engine/telemetry.hpp"
#include "faults/eval_context.hpp"
#include "util/log.hpp"

namespace {

namespace net = cpsinw::engine::net;
namespace telemetry = cpsinw::engine::telemetry;
using cpsinw::util::LogLevel;

constexpr const char* kUsage =
    "usage: cpsinw_shard_server [--port N]\n"
    "                           [--log-level debug|info|warn|error]\n"
    "                           [--fail-mode disconnect|garbage|oversized|"
    "hang|exit]\n"
    "                           [--fail-index N]\n"
    "Serves framed shard_io v1 work documents over loopback TCP (port 0 =\n"
    "kernel-assigned, advertised on stdout).  Also answers the shard_io\n"
    "`stats` request with a live telemetry snapshot.  --log-level sets the\n"
    "stderr threshold (default info).  --fail-mode misbehaves on purpose\n"
    "(test hook); --fail-index restricts it to the shard with that index\n"
    "(default: every shard).\n";

struct ServerConfig {
  std::string fail_mode;
  int fail_index = -1;
};

/// One memoized (circuit, pattern set) compilation.  The circuit is owned
/// here because the EvalContext borrows it; shared_ptr keeps an entry
/// alive for in-flight shards even after a newer job replaces it.
struct CachedJob {
  explicit CachedJob(cpsinw::logic::Circuit c) : circuit(std::move(c)) {}
  cpsinw::logic::Circuit circuit;
  std::optional<cpsinw::faults::EvalContext> ctx;
};

/// Last-job context cache shared by every connection thread.
struct ContextCache {
  std::mutex mutex;
  std::string fingerprint;
  std::shared_ptr<const CachedJob> entry;
  std::size_t hits = 0;
  std::size_t misses = 0;
};

ContextCache g_context_cache;

/// Server start time, for the uptime_s field of the stats response.
telemetry::TimePoint g_start_time;

/// An idle client connection is held open this long before the server
/// gives up on it (clients open one connection per shard and close it).
constexpr double kIdleTimeoutS = 3600.0;

void serve_connection(int fd, const ServerConfig& config) {
  using namespace cpsinw;
  // Metric references are resolved once per connection, never per frame.
  telemetry::Registry& reg = telemetry::Registry::global();
  telemetry::Counter& shards_served = reg.counter("server.shards_served");
  telemetry::Counter& stats_served = reg.counter("server.stats_served");
  telemetry::Counter& cache_hits = reg.counter("server.cache_hits");
  telemetry::Counter& cache_misses = reg.counter("server.cache_misses");
  telemetry::Counter& bad_requests = reg.counter("server.bad_requests");
  telemetry::Histogram& shard_exec_s = reg.histogram("server.shard_exec_s");
  telemetry::Histogram& compile_s = reg.histogram("server.context_compile_s");

  while (true) {
    std::string request;
    std::string error;
    if (!net::recv_frame(fd, &request, net::deadline_after(kIdleTimeoutS),
                         net::kMaxFrameBytes, &error)) {
      // Empty error = the client closed between frames: a normal goodbye.
      if (!error.empty())
        util::log_kv(LogLevel::kWarn, "recv_failed", {{"error", error}});
      break;
    }

    if (engine::is_stats_request(request)) {
      engine::ServerStats stats;
      stats.uptime_s = std::chrono::duration<double>(telemetry::Clock::now() -
                                                     g_start_time)
                           .count();
      stats_served.add();
      stats.metrics = reg.snapshot();
      if (!net::send_frame(fd, engine::serialize_stats_response(stats),
                           net::deadline_after(kIdleTimeoutS), &error)) {
        util::log_kv(LogLevel::kWarn, "send_failed", {{"error", error}});
        break;
      }
      continue;
    }

    engine::ShardWorkInput input;
    try {
      input = engine::parse_shard_input(request);
    } catch (const std::exception& e) {
      bad_requests.add();
      util::log_kv(LogLevel::kWarn, "bad_request", {{"error", e.what()}});
      break;
    }

    if (!config.fail_mode.empty() &&
        (config.fail_index < 0 || config.fail_index == input.shard.index)) {
      if (config.fail_mode == "disconnect") break;
      if (config.fail_mode == "garbage") {
        (void)net::send_frame(fd, "this is not a shard result {{{",
                              net::deadline_after(kIdleTimeoutS), &error);
        continue;
      }
      if (config.fail_mode == "oversized") {
        // A frame header declaring more than any client will accept; the
        // client must reject it before reading a single payload byte.
        const std::string header =
            std::string(net::kFrameMagic) + " " +
            std::to_string(net::kMaxFrameBytes * 4) + "\n";
        const ssize_t n = write(fd, header.data(), header.size());
        (void)n;  // header only: the declared payload never comes
        break;
      }
      if (config.fail_mode == "hang") {
        for (;;) sleep(1000);  // wedged endpoint; the client deadline fires
      }
      if (config.fail_mode == "exit") {
        util::log_kv(LogLevel::kError, "fail_mode_exit", {});
        _exit(3);
      }
      util::log_kv(LogLevel::kError, "unknown_fail_mode",
                   {{"fail_mode", config.fail_mode}});
      break;
    }

    // Everything downstream of the parse can still throw (a semantically
    // inconsistent fault list, an unbuildable context, bad_alloc on a
    // huge document); an escape here would std::terminate the whole
    // server from a detached thread.  One bad request costs one
    // connection, never the endpoint.
    try {
      const std::string fp =
          engine::context_fingerprint(input.circuit, input.patterns);
      std::shared_ptr<const CachedJob> job;
      bool hit = false;
      std::size_t hits = 0;
      std::size_t misses = 0;
      {
        std::lock_guard<std::mutex> lock(g_context_cache.mutex);
        if (g_context_cache.entry != nullptr &&
            g_context_cache.fingerprint == fp) {
          job = g_context_cache.entry;
          hit = true;
          hits = ++g_context_cache.hits;
          misses = g_context_cache.misses;
        }
      }
      if (job == nullptr) {
        // Compile outside the lock: a slow build must not stall the
        // shards of another connection that already have their context.
        const telemetry::TimePoint compile_start = telemetry::Clock::now();
        auto built = std::make_shared<CachedJob>(std::move(input.circuit));
        built->ctx.emplace(built->circuit, std::move(input.patterns));
        compile_s.record_since(compile_start);
        job = built;
        std::lock_guard<std::mutex> lock(g_context_cache.mutex);
        g_context_cache.fingerprint = fp;
        g_context_cache.entry = job;
        misses = ++g_context_cache.misses;
        hits = g_context_cache.hits;
      }
      if (hit)
        cache_hits.add();
      else
        cache_misses.add();
      {
        char fp_hex[24];
        std::snprintf(fp_hex, sizeof(fp_hex), "%llx",
                      static_cast<unsigned long long>(
                          engine::fingerprint_hash(fp)));
        util::log_kv(LogLevel::kInfo, "shard",
                     {{"job", input.shard.job},
                      {"index", input.shard.index},
                      {"context", hit ? "hit" : "miss"},
                      {"fp", fp_hex},
                      {"hits", static_cast<unsigned long long>(hits)},
                      {"misses", static_cast<unsigned long long>(misses)}});
      }
      const telemetry::TimePoint exec_start = telemetry::Clock::now();
      const engine::ShardResult result =
          engine::run_shard(*job->ctx, input.faults, input.shard,
                            input.options);
      shard_exec_s.record_since(exec_start);
      shards_served.add();
      if (!net::send_frame(fd, engine::serialize_shard_result(result),
                           net::deadline_after(kIdleTimeoutS), &error)) {
        util::log_kv(LogLevel::kWarn, "send_failed", {{"error", error}});
        break;
      }
    } catch (const std::exception& e) {
      bad_requests.add();
      util::log_kv(LogLevel::kError, "shard_failed", {{"error", e.what()}});
      break;  // close with no reply; the client fails over
    }
  }
  close(fd);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cpsinw;

  // A client that hits its deadline closes mid-reply; the resulting EPIPE
  // must not take the whole server (and every other campaign) down.
  std::signal(SIGPIPE, SIG_IGN);

  // Long-running endpoint: per-shard lines are the operational log, so
  // the default threshold is info (the library default is warn).
  util::set_log_level(util::LogLevel::kInfo);

  long port = 0;
  ServerConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    }
    if (arg == "--port" && i + 1 < argc) {
      const std::string text = argv[++i];
      // Digits only: a typo must be a usage error, not a silent fallback
      // to port 0 (kernel-assigned) that nothing points at.
      if (text.empty() ||
          text.find_first_not_of("0123456789") != std::string::npos) {
        std::cerr << "cpsinw_shard_server: bad --port '" << text << "'\n";
        return 2;
      }
      port = std::strtol(text.c_str(), nullptr, 10);
      if (port > 65535) {
        std::cerr << "cpsinw_shard_server: bad --port '" << text << "'\n";
        return 2;
      }
    } else if (arg == "--log-level" && i + 1 < argc) {
      util::LogLevel level = util::LogLevel::kInfo;
      const std::string text = argv[++i];
      if (!util::parse_log_level(text, &level)) {
        std::cerr << "cpsinw_shard_server: bad --log-level '" << text
                  << "'\n";
        return 2;
      }
      util::set_log_level(level);
    } else if (arg == "--fail-mode" && i + 1 < argc) {
      config.fail_mode = argv[++i];
    } else if (arg == "--fail-index" && i + 1 < argc) {
      config.fail_index = std::atoi(argv[++i]);
    } else {
      std::cerr << "cpsinw_shard_server: unknown argument '" << arg << "'\n"
                << kUsage;
      return 2;
    }
  }

  std::string error;
  const int listen_fd =
      net::listen_on_loopback(static_cast<std::uint16_t>(port), &error);
  if (listen_fd < 0) {
    util::log_kv(util::LogLevel::kError, "listen_failed", {{"error", error}});
    return 1;
  }

  g_start_time = telemetry::Clock::now();

  std::cout << "cpsinw_shard_server listening on " << net::local_port(listen_fd)
            << std::endl;  // the only stdout line; spawners parse it

  while (true) {
    const int fd = net::accept_connection(listen_fd, &error);
    if (fd < 0) {
      // Transient accept failures (EMFILE/ENFILE when connection threads
      // hold many fds, resource pressure) must not down the endpoint for
      // every campaign pointed at it: log, back off, keep serving.
      util::log_kv(util::LogLevel::kWarn, "accept_failed", {{"error", error}});
      usleep(100 * 1000);
      continue;
    }
    telemetry::Registry::global().counter("server.connections").add();
    std::thread(serve_connection, fd, config).detach();
  }
}
