// Failure injection for the remote backend: endpoints that refuse
// connections, disconnect mid-shard, answer with garbage, an oversized
// frame or an out-of-contract result, hang past the per-shard timeout, or
// die outright must each surface on CampaignReport::error (first failure
// in canonical shard order) while every healthy shard still merges — and
// when a second endpoint is available, failover must keep the campaign
// clean and byte-identical.  The server's --fail-mode / --fail-index
// flags misbehave on purpose after parsing the request.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "engine/campaign.hpp"
#include "engine/remote_executor.hpp"
#include "engine/shard_io.hpp"
#include "logic/benchmarks.hpp"
#include "remote_test_util.hpp"

namespace cpsinw::engine {
namespace {

/// One job with several shards, so exactly one shard failing still leaves
/// healthy shards to merge.
CampaignSpec base_spec() {
  CampaignSpec spec;
  spec.jobs.push_back({"parity_tree_8", logic::parity_tree(8)});
  spec.patterns.kind = PatternSourceSpec::Kind::kRandom;
  spec.patterns.random_count = 32;
  spec.shard_size = 16;
  spec.threads = 2;
  spec.executor.backend = ExecutorBackend::kRemote;
  return spec;
}

/// The same campaign on the inline reference backend.
CampaignReport healthy_reference() {
  CampaignSpec spec = base_spec();
  spec.executor.backend = ExecutorBackend::kInline;
  return run_campaign(spec);
}

/// Spawns one misbehaving server (`--fail-mode mode --fail-index 0`),
/// runs the campaign against it alone, and checks the shared contract:
/// the error names the canonical first failing shard, the failed shard's
/// faults stay in the totals as undetected, healthy shards still count.
/// Returns the error text for mode-specific assertions.
std::string run_with_failure(const std::string& mode, double timeout_s) {
  const CampaignReport healthy = healthy_reference();
  EXPECT_TRUE(healthy.ok()) << healthy.error;
  EXPECT_GT(healthy.timing.shard_count, 1)
      << "fixture must decompose into several shards";

  net::LocalServerProcess server(
      test_util::server_path(), {"--fail-mode", mode, "--fail-index", "0"});
  EXPECT_TRUE(server.ok()) << server.error();

  CampaignSpec spec = base_spec();
  spec.executor.endpoints = {server.endpoint()};
  spec.executor.worker_timeout_s = timeout_s;
  const CampaignReport report = run_campaign(spec);

  EXPECT_FALSE(report.ok()) << "mode '" << mode << "' did not surface";
  EXPECT_NE(report.error.find("job 0, shard 0"), std::string::npos)
      << report.error;

  // Lower-bound merge: totals stay complete, the failed shard's
  // detections are absent, every healthy shard still contributes.
  EXPECT_EQ(report.totals().total, healthy.totals().total);
  EXPECT_EQ(report.totals().sampled, healthy.totals().sampled);
  EXPECT_GT(report.totals().detected, 0)
      << "healthy shards must still contribute detections";
  EXPECT_LT(report.totals().detected, healthy.totals().detected)
      << "the failed shard's detections must be absent";

  // The error is serialized into the stable JSON (and only then).
  EXPECT_NE(report.to_json().find("\"error\""), std::string::npos);
  return report.error;
}

TEST(RemoteFailure, RefusedConnectionsFailEveryShardButStillMerge) {
  const CampaignReport healthy = healthy_reference();

  CampaignSpec spec = base_spec();
  spec.executor.endpoints = {test_util::refused_endpoint()};
  // Quarantine off (execution order is scheduler-dependent, so any shard
  // could otherwise be the one that finds the endpoint already retired):
  // every shard attempts, and every error is the real refusal.
  spec.executor.remote_quarantine_failures = 1 << 20;
  const CampaignReport report = run_campaign(spec);

  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.error.find("job 0, shard 0"), std::string::npos)
      << report.error;
  EXPECT_NE(report.error.find("connect to 127.0.0.1:"), std::string::npos)
      << report.error;
  EXPECT_EQ(report.totals().total, healthy.totals().total);
  EXPECT_EQ(report.totals().detected, 0);
}

TEST(RemoteFailure, MidShardDisconnectSurfaces) {
  const std::string error = run_with_failure("disconnect", 60.0);
  EXPECT_NE(error.find("connection closed"), std::string::npos) << error;
}

TEST(RemoteFailure, GarbageResponseIsRejected) {
  const std::string error = run_with_failure("garbage", 60.0);
  EXPECT_NE(error.find("malformed result"), std::string::npos) << error;
}

TEST(RemoteFailure, OversizedResponseIsRejectedBeforeItIsRead) {
  const std::string error = run_with_failure("oversized", 60.0);
  EXPECT_NE(error.find("exceeds"), std::string::npos) << error;
}

TEST(RemoteFailure, SlowEndpointHitsThePerShardTimeout) {
  const std::string error = run_with_failure("hang", 1.0);
  EXPECT_NE(error.find("timed out"), std::string::npos) << error;
}

TEST(RemoteFailure, DyingServerFailsItsShardsButTheRestStillMerges) {
  // The server dies (_exit) on shard 0: every shard in flight on it fails
  // with it, and later ones find the port refused until the endpoint is
  // quarantined.  Which other shards merged before the crash depends on
  // timing, so only shard 0's failure and the totals are pinned.
  const CampaignReport healthy = healthy_reference();
  net::LocalServerProcess dying(test_util::server_path(),
                                {"--fail-mode", "exit", "--fail-index", "0"});
  ASSERT_TRUE(dying.ok()) << dying.error();

  CampaignSpec spec = base_spec();
  spec.executor.endpoints = {dying.endpoint()};
  const CampaignReport report = run_campaign(spec);

  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.error.find("job 0, shard 0"), std::string::npos)
      << report.error;
  EXPECT_EQ(report.totals().total, healthy.totals().total);
  EXPECT_EQ(report.totals().sampled, healthy.totals().sampled);
  EXPECT_LT(report.totals().detected, healthy.totals().detected);
}

TEST(RemoteFailure, DyingServerFailsOverToTheHealthyEndpoint) {
  // EndpointRoster::acquire breaks ties by index, so the first shard
  // always lands on the dying server and kills it.  Every shard it took
  // down retries on the healthy endpoint: the campaign stays clean and
  // byte-identical, and the dead server no longer answers.
  const CampaignReport healthy = healthy_reference();
  net::LocalServerProcess dying(test_util::server_path(),
                                {"--fail-mode", "exit"});
  net::LocalServerProcess good(test_util::server_path());
  ASSERT_TRUE(dying.ok()) << dying.error();
  ASSERT_TRUE(good.ok()) << good.error();

  CampaignSpec spec = base_spec();
  spec.executor.endpoints = {dying.endpoint(), good.endpoint()};
  const CampaignReport report = run_campaign(spec);

  EXPECT_TRUE(report.ok()) << report.error;
  EXPECT_EQ(report.to_json(), healthy.to_json());

  ServerStats stats;
  std::string error;
  EXPECT_FALSE(query_server_stats(dying.endpoint(), 5.0, &stats, &error))
      << "the server given the first shard should have died";
}

/// An in-process stand-in for a shard server that runs every shard for
/// real and then lets `poison` corrupt the well-formed result — the reply
/// a buggy or hostile server could send.  Serves one connection at a
/// time until destroyed.
class PoisonedServer {
 public:
  explicit PoisonedServer(std::function<void(ShardResult&)> poison)
      : poison_(std::move(poison)) {
    std::string error;
    listen_fd_ = net::listen_on_loopback(0, &error);
    if (listen_fd_ >= 0) thread_ = std::thread([this] { serve(); });
  }
  ~PoisonedServer() {
    if (listen_fd_ < 0) return;
    stop_ = true;
    // One throwaway connection wakes the blocking accept.
    std::string error;
    const int fd = net::connect_endpoint(
        {"127.0.0.1", net::local_port(listen_fd_)}, net::deadline_after(5.0),
        &error);
    if (fd >= 0) ::close(fd);
    thread_.join();
    ::close(listen_fd_);
  }
  PoisonedServer(const PoisonedServer&) = delete;
  PoisonedServer& operator=(const PoisonedServer&) = delete;

  [[nodiscard]] bool ok() const { return listen_fd_ >= 0; }
  [[nodiscard]] std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(net::local_port(listen_fd_));
  }

 private:
  void serve() {
    while (!stop_) {
      std::string error;
      const int fd = net::accept_connection(listen_fd_, &error);
      if (fd < 0) return;
      std::string request;
      if (net::recv_frame(fd, &request, net::deadline_after(5.0),
                          net::kMaxFrameBytes, &error)) {
        try {
          ShardWorkInput input = parse_shard_input(request);
          const faults::EvalContext ctx(input.circuit,
                                        std::move(input.patterns));
          ShardResult result =
              run_shard(ctx, input.faults, input.shard, input.options);
          poison_(result);
          (void)net::send_frame(fd, serialize_shard_result(result),
                                net::deadline_after(5.0), &error);
        } catch (const std::exception& e) {
          ADD_FAILURE() << "poisoned server: " << e.what();
        }
      }
      ::close(fd);
    }
  }

  std::function<void(ShardResult&)> poison_;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Runs the fixture against one PoisonedServer and checks that every
/// poisoned reply became a failed shard instead of reaching the merge.
/// Returns the error text.
std::string run_against_poisoned_server(
    std::function<void(ShardResult&)> poison) {
  const CampaignReport healthy = healthy_reference();
  PoisonedServer server(std::move(poison));
  EXPECT_TRUE(server.ok());

  CampaignSpec spec = base_spec();
  spec.executor.endpoints = {server.endpoint()};
  // Quarantine off, so every shard's error is the real rejection.
  spec.executor.remote_quarantine_failures = 1 << 20;
  const CampaignReport report = run_campaign(spec);

  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.error.find("job 0, shard 0"), std::string::npos)
      << report.error;
  EXPECT_EQ(report.totals().total, healthy.totals().total);
  EXPECT_EQ(report.totals().sampled, healthy.totals().sampled);
  EXPECT_EQ(report.totals().detected, 0);
  return report.error;
}

TEST(RemoteFailure, OutOfRangeFirstPatternNeverReachesTheMerge) {
  // Merged, this record would index the first-detect histogram with a
  // negative bucket (134217728 * 16 overflows int).
  const std::string error = run_against_poisoned_server([](ShardResult& r) {
    r.results[0].record.detected_output = true;
    r.results[0].record.first_pattern = 134217728;
  });
  EXPECT_NE(error.find("first_pattern 134217728"), std::string::npos)
      << error;
}

TEST(RemoteFailure, ClassMismatchedRecordNeverReachesTheMerge) {
  // Merged, this record would count toward another class's totals.
  const std::string error = run_against_poisoned_server([](ShardResult& r) {
    FaultClass& cls = r.results[0].cls;
    cls = static_cast<FaultClass>((static_cast<int>(cls) + 1) %
                                  kFaultClassCount);
  });
  EXPECT_NE(error.find("has class"), std::string::npos) << error;
}

TEST(RemoteFailure, FailoverToTheSecondEndpointKeepsTheCampaignClean) {
  const CampaignReport healthy = healthy_reference();

  // Endpoint A drops every connection mid-shard; endpoint B is healthy.
  // Every shard that lands on A retries on B, so the campaign stays clean
  // and byte-identical to the inline reference.
  net::LocalServerProcess bad(test_util::server_path(),
                              {"--fail-mode", "disconnect"});
  net::LocalServerProcess good(test_util::server_path());
  ASSERT_TRUE(bad.ok()) << bad.error();
  ASSERT_TRUE(good.ok()) << good.error();

  CampaignSpec spec = base_spec();
  spec.executor.endpoints = {bad.endpoint(), good.endpoint()};
  const CampaignReport report = run_campaign(spec);

  EXPECT_TRUE(report.ok()) << report.error;
  EXPECT_EQ(report.to_json(), healthy.to_json());
}

TEST(RemoteFailure, QuarantineStopsPayingTheTimeoutPerShard) {
  // A hanging endpoint costs one timeout per attempt.  With quarantine
  // after a single failure and failover to a healthy endpoint, the
  // campaign pays the 1s timeout once — not once per shard (the fixture
  // has ~10 shards; without quarantine this would take ~10s serially).
  net::LocalServerProcess slow(test_util::server_path(),
                               {"--fail-mode", "hang"});
  net::LocalServerProcess good(test_util::server_path());
  ASSERT_TRUE(slow.ok()) << slow.error();
  ASSERT_TRUE(good.ok()) << good.error();

  CampaignSpec spec = base_spec();
  spec.threads = 1;  // serialize: per-shard timeouts would sum
  spec.executor.endpoints = {slow.endpoint(), good.endpoint()};
  spec.executor.worker_timeout_s = 1.0;
  spec.executor.remote_quarantine_failures = 1;
  const CampaignReport report = run_campaign(spec);

  EXPECT_TRUE(report.ok()) << report.error;
  EXPECT_GT(report.timing.shard_count, 3);
  // Without quarantine every serialized shard would pay the full 1s
  // timeout (~shard_count seconds); with it, only the first attempt
  // does.  Half the no-quarantine floor keeps the assertion meaningful
  // while leaving slack for a loaded single-core CI runner.
  EXPECT_LT(report.timing.wall_s,
            0.5 * static_cast<double>(report.timing.shard_count) * 1.0)
      << "quarantine must retire the hanging endpoint after one timeout";
}

TEST(RemoteFailure, SpecValidationRejectsBadEndpointLists) {
  CampaignSpec spec = base_spec();  // endpoints left empty
  EXPECT_THROW((void)run_campaign(spec), std::invalid_argument);

  for (const char* bad : {"localhost", "host:", ":123", "host:abc",
                          "host:99999", "a:b:c", ""}) {
    CampaignSpec malformed = base_spec();
    malformed.executor.endpoints = {bad};
    EXPECT_THROW((void)run_campaign(malformed), std::invalid_argument)
        << "endpoint '" << bad << "' must be rejected";
  }

  CampaignSpec bad_timeout = base_spec();
  bad_timeout.executor.endpoints = {"127.0.0.1:1"};
  bad_timeout.executor.worker_timeout_s = 0.0;
  EXPECT_THROW((void)run_campaign(bad_timeout), std::invalid_argument);

  CampaignSpec bad_in_flight = base_spec();
  bad_in_flight.executor.endpoints = {"127.0.0.1:1"};
  bad_in_flight.executor.remote_max_in_flight = 0;
  EXPECT_THROW((void)run_campaign(bad_in_flight), std::invalid_argument);

  CampaignSpec bad_quarantine = base_spec();
  bad_quarantine.executor.endpoints = {"127.0.0.1:1"};
  bad_quarantine.executor.remote_quarantine_failures = 0;
  EXPECT_THROW((void)run_campaign(bad_quarantine), std::invalid_argument);
}

}  // namespace
}  // namespace cpsinw::engine
