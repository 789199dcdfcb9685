// Campaign telemetry: exact concurrent metric accounting, Chrome
// trace-event export with well-formed per-lane spans, the shard_io
// `stats` round trip against a live loopback server, and — most load-
// bearing of all — the guarantee that all of it is invisible in the
// stable campaign JSON unless explicitly opted into.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "engine/campaign.hpp"
#include "engine/json_reader.hpp"
#include "engine/remote_executor.hpp"
#include "engine/shard_io.hpp"
#include "engine/telemetry.hpp"
#include "logic/benchmarks.hpp"
#include "remote_test_util.hpp"
#include "util/log.hpp"

namespace cpsinw::engine {
namespace {

// ------------------------------------------------------------- registry

TEST(TelemetryRegistry, ConcurrentHammeringSumsExactly) {
  telemetry::Registry reg;
  telemetry::Counter& counter = reg.counter("hammer.counter");
  telemetry::Gauge& gauge = reg.gauge("hammer.gauge");
  telemetry::Histogram& hist = reg.histogram("hammer.hist");

  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &gauge, &hist, t] {
      for (int i = 0; i < kIters; ++i) {
        counter.add();
        gauge.add(t % 2 == 0 ? 1 : -1);
        hist.record(1e-6 * static_cast<double>(i % 64));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(gauge.value(), 0);  // half the threads add, half subtract
  EXPECT_EQ(hist.count(), static_cast<std::uint64_t>(kThreads) * kIters);

  const telemetry::RegistrySnapshot snap = reg.snapshot();
  ASSERT_NE(snap.find_counter("hammer.counter"), nullptr);
  EXPECT_EQ(snap.find_counter("hammer.counter")->value, counter.value());
  const telemetry::HistogramValue* hv = snap.find_histogram("hammer.hist");
  ASSERT_NE(hv, nullptr);
  EXPECT_EQ(hv->count, hist.count());
  std::uint64_t bucket_sum = 0;
  for (const std::uint64_t b : hv->buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, hv->count);
}

TEST(TelemetryRegistry, SameNameReturnsSameMetric) {
  telemetry::Registry reg;
  telemetry::Counter& a = reg.counter("x");
  telemetry::Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(TelemetryHistogram, BucketBoundaries) {
  using H = telemetry::Histogram;
  EXPECT_EQ(H::bucket_of(0.0), 0);
  EXPECT_EQ(H::bucket_of(-1.0), 0);
  EXPECT_EQ(H::bucket_of(0.5e-6), 0);    // < 1 us
  EXPECT_EQ(H::bucket_of(1.0e-6), 1);    // [1, 2) us
  EXPECT_EQ(H::bucket_of(1.9e-6), 1);
  EXPECT_EQ(H::bucket_of(2.0e-6), 2);    // [2, 4) us
  EXPECT_EQ(H::bucket_of(1.0e-3), 10);   // 1000 us -> [512, 1024) us
  EXPECT_EQ(H::bucket_of(1.0), 20);      // 1 s -> [2^19, 2^20) us
  EXPECT_EQ(H::bucket_of(1e9), H::kBucketCount - 1);  // overflow bucket
}

TEST(TelemetryHistogram, QuantilesInterpolate) {
  telemetry::HistogramValue hv;
  hv.buckets.assign(telemetry::Histogram::kBucketCount, 0);
  EXPECT_EQ(hv.quantile_s(0.5), 0.0);  // empty

  // 100 samples in bucket 3 ([4, 8) us): every quantile lands inside it.
  hv.buckets[3] = 100;
  hv.count = 100;
  const double p50 = hv.quantile_s(0.5);
  EXPECT_GE(p50, 4e-6);
  EXPECT_LE(p50, 8e-6);
  EXPECT_LE(hv.quantile_s(0.1), p50);
  EXPECT_LE(p50, hv.quantile_s(0.99));
}

// ----------------------------------------------------------- structured log

TEST(StructuredLog, ParseLogLevel) {
  util::LogLevel level = util::LogLevel::kWarn;
  EXPECT_TRUE(util::parse_log_level("debug", &level));
  EXPECT_EQ(level, util::LogLevel::kDebug);
  EXPECT_TRUE(util::parse_log_level("error", &level));
  EXPECT_EQ(level, util::LogLevel::kError);
  EXPECT_FALSE(util::parse_log_level("verbose", &level));
  EXPECT_EQ(level, util::LogLevel::kError);  // untouched on failure
}

TEST(StructuredLog, KeyValueLineShape) {
  const util::LogLevel saved = util::log_level();
  util::set_log_level(util::LogLevel::kInfo);
  testing::internal::CaptureStderr();
  util::log_kv(util::LogLevel::kInfo, "shard",
               {{"job", 3},
                {"context", "hit"},
                {"error", "connect: connection refused"},
                {"ratio", 0.5}});
  util::log_kv(util::LogLevel::kDebug, "dropped", {});  // below threshold
  const std::string captured = testing::internal::GetCapturedStderr();
  util::set_log_level(saved);

  EXPECT_EQ(captured,
            "[cpsinw:INFO] shard job=3 context=hit "
            "error=\"connect: connection refused\" ratio=0.5\n");
}

// ------------------------------------------------------------ trace export

/// Parses trace JSON and checks the trace-event contract: every event is
/// a complete "X" span, and the spans of any one lane (tid) are either
/// disjoint or properly nested — never partially overlapping.
void check_trace_json(const std::string& text) {
  const JsonValue doc = parse_json(text);
  const std::vector<JsonValue>& events =
      doc.at("traceEvents").as_array("traceEvents");
  ASSERT_FALSE(events.empty());

  struct Span {
    double begin, end;
  };
  std::vector<std::pair<int, Span>> spans;
  for (const JsonValue& ev : events) {
    EXPECT_EQ(ev.at("ph").as_string("ph"), "X");
    EXPECT_FALSE(ev.at("name").as_string("name").empty());
    const double ts = ev.at("ts").as_double("ts");
    const double dur = ev.at("dur").as_double("dur");
    EXPECT_GE(ts, 0.0);
    EXPECT_GE(dur, 0.0);
    spans.push_back({ev.at("tid").as_int("tid"), {ts, ts + dur}});
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    for (std::size_t k = i + 1; k < spans.size(); ++k) {
      if (spans[i].first != spans[k].first) continue;
      const Span& a = spans[i].second;
      const Span& b = spans[k].second;
      const bool disjoint = a.end <= b.begin || b.end <= a.begin;
      const bool nested = (a.begin <= b.begin && b.end <= a.end) ||
                          (b.begin <= a.begin && a.end <= b.end);
      EXPECT_TRUE(disjoint || nested)
          << "lane " << spans[i].first << " spans [" << a.begin << ", "
          << a.end << ") and [" << b.begin << ", " << b.end
          << ") partially overlap";
    }
  }
}

CampaignSpec small_campaign_spec() {
  CampaignSpec spec;
  spec.jobs.push_back({"parity8", logic::parity_tree(8)});
  spec.jobs.push_back({"c17", logic::c17()});
  spec.patterns.kind = PatternSourceSpec::Kind::kRandom;
  spec.patterns.random_count = 24;
  spec.seed = 7;
  spec.shard_size = 16;
  return spec;
}

std::string read_file(const std::string& path) {
  std::string text;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

TEST(TraceExport, TwoThreadCampaignProducesWellFormedSpans) {
  const std::string path =
      testing::TempDir() + "/cpsinw_trace_thread_pool.json";
  CampaignSpec spec = small_campaign_spec();
  spec.executor.backend = ExecutorBackend::kThreadPool;
  spec.threads = 2;
  spec.trace_path = path;
  const CampaignReport report = run_campaign(spec);
  ASSERT_TRUE(report.ok()) << report.error;

  const std::string text = read_file(path);
  ASSERT_FALSE(text.empty()) << "trace file missing: " << path;
  check_trace_json(text);

  // The campaign phases and the per-shard spans must all be present.
  for (const char* needle :
       {"campaign:validate", "campaign:setup", "campaign:shards",
        "campaign:merge", "thread_pool:shard"})
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  std::remove(path.c_str());
}

TEST(TraceExport, RemoteCampaignTraceSpansAllThreeSides) {
  const std::vector<std::string>& endpoints =
      test_util::loopback_endpoints();
  ASSERT_FALSE(endpoints.empty()) << "loopback shard servers failed to start";

  const std::string path = testing::TempDir() + "/cpsinw_trace_remote.json";
  CampaignSpec spec = small_campaign_spec();
  spec.executor.backend = ExecutorBackend::kRemote;
  spec.executor.endpoints = endpoints;
  spec.threads = 2;
  spec.trace_path = path;
  spec.emit_telemetry = true;
  const CampaignReport report = run_campaign(spec);
  ASSERT_TRUE(report.ok()) << report.error;

  // The shards walked stems on the servers' contexts, not on the
  // client's, so the client's stem-walk counters read 0.
  for (const char* name : {"engine.stem_walks", "engine.x_walks",
                           "engine.stem_gates", "engine.x_gates"}) {
    const telemetry::CounterValue* c = report.telemetry.find_counter(name);
    ASSERT_NE(c, nullptr) << name;
    EXPECT_EQ(c->value, 0u) << name;
  }

  const std::string text = read_file(path);
  ASSERT_FALSE(text.empty()) << "trace file missing: " << path;
  check_trace_json(text);

  // Client (campaign phases), executor (per-shard dispatch spans), and
  // server sides (execution spans reconstructed from the reported
  // elapsed time, tagged with the endpoint they ran on) all show up.
  const std::vector<std::string> needles = {
      "campaign:shards", "remote:shard", "server:run_shard",
      "remote:" + endpoints[0]};
  for (const std::string& needle : needles)
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  std::remove(path.c_str());
}

TEST(TraceExport, DisabledRecorderKeepsNoSpans) {
  telemetry::TraceRecorder rec;
  rec.add_span("x", "y", telemetry::Clock::now(), telemetry::Clock::now());
  { telemetry::ScopedSpan span(&rec, "scoped"); }
  telemetry::ScopedSpan null_span(nullptr, "null-recorder");  // must not crash
  EXPECT_TRUE(rec.events().empty());
}

// --------------------------------------------------------------- stats RPC

TEST(StatsIo, RequestClassification) {
  const std::string req = serialize_stats_request();
  EXPECT_TRUE(is_stats_request(req));
  EXPECT_FALSE(is_stats_request("{}"));
  EXPECT_FALSE(is_stats_request("{\"version\":1}"));
  EXPECT_FALSE(is_stats_request("not json at all"));
  // A shard work document is big and must be rejected on length alone.
  EXPECT_FALSE(is_stats_request(std::string(4096, 'x')));
}

TEST(StatsIo, ResponseRoundTripsExactly) {
  ServerStats stats;
  stats.uptime_s = 12.25;
  stats.metrics.counters.push_back({"server.shards_served", 12345678901ull});
  stats.metrics.counters.push_back({"server.cache_hits", 41});
  stats.metrics.gauges.push_back({"queue.depth", -3});
  telemetry::HistogramValue hv;
  hv.name = "server.shard_exec_s";
  hv.buckets.assign(telemetry::Histogram::kBucketCount, 0);
  hv.buckets[5] = 9;
  hv.buckets[27] = 1;
  hv.count = 10;
  hv.sum_s = 0.5;
  stats.metrics.histograms.push_back(hv);

  const ServerStats parsed =
      parse_stats_response(serialize_stats_response(stats));
  EXPECT_EQ(parsed.uptime_s, stats.uptime_s);
  ASSERT_EQ(parsed.metrics.counters.size(), 2u);
  EXPECT_EQ(parsed.metrics.counters[0].name, "server.shards_served");
  const telemetry::CounterValue* served =
      parsed.metrics.find_counter("server.shards_served");
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(served->value, 12345678901ull);
  ASSERT_EQ(parsed.metrics.gauges.size(), 1u);
  EXPECT_EQ(parsed.metrics.gauges[0].value, -3);
  const telemetry::HistogramValue* h =
      parsed.metrics.find_histogram("server.shard_exec_s");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 10u);
  EXPECT_EQ(h->buckets[5], 9u);
  EXPECT_EQ(h->buckets[27], 1u);
  EXPECT_EQ(h->sum_s, 0.5);
}

TEST(StatsIo, LiveServerScrapeAfterRemoteCampaign) {
  const std::vector<std::string>& endpoints =
      test_util::loopback_endpoints();
  ASSERT_FALSE(endpoints.empty()) << "loopback shard servers failed to start";

  CampaignSpec spec = small_campaign_spec();
  spec.executor.backend = ExecutorBackend::kRemote;
  spec.executor.endpoints = endpoints;
  spec.threads = 2;
  const CampaignReport report = run_campaign(spec);
  ASSERT_TRUE(report.ok()) << report.error;

  std::uint64_t shards_served = 0;
  for (const std::string& endpoint : endpoints) {
    ServerStats stats;
    std::string error;
    ASSERT_TRUE(query_server_stats(endpoint, 10.0, &stats, &error))
        << endpoint << ": " << error;
    EXPECT_GT(stats.uptime_s, 0.0);
    const telemetry::CounterValue* served =
        stats.metrics.find_counter("server.shards_served");
    ASSERT_NE(served, nullptr) << endpoint;
    shards_served += served->value;
    // Shards of one job share a compiled context: with more shards than
    // jobs, at least one hit must have happened somewhere.
    EXPECT_NE(stats.metrics.find_counter("server.cache_hits"), nullptr);
    EXPECT_NE(stats.metrics.find_histogram("server.shard_exec_s"), nullptr);
  }
  // Every shard of the campaign landed on some scraped endpoint (the
  // servers may have served other campaigns too, hence >=).
  std::size_t campaign_shards = 0;
  for (const JobReport& jr : report.jobs)
    campaign_shards += static_cast<std::size_t>(jr.shard_count);
  EXPECT_GE(shards_served, campaign_shards);
}

TEST(StatsIo, QueryRefusedEndpointFailsCleanly) {
  ServerStats stats;
  std::string error;
  EXPECT_FALSE(query_server_stats(test_util::refused_endpoint(), 2.0, &stats,
                                  &error));
  EXPECT_FALSE(error.empty());
}

// ----------------------------------------------- stable-JSON preservation

TEST(TelemetryReport, StableJsonUnchangedByTelemetry) {
  const CampaignSpec base = small_campaign_spec();

  CampaignSpec inline_spec = base;
  inline_spec.executor.backend = ExecutorBackend::kInline;
  const std::string reference = run_campaign(inline_spec).to_json();

  // Telemetry off (default): byte-identical at 1/2/8 threads on both
  // in-process backends.
  for (const int threads : {1, 2, 8}) {
    CampaignSpec spec = base;
    spec.executor.backend = ExecutorBackend::kThreadPool;
    spec.threads = threads;
    EXPECT_EQ(reference, run_campaign(spec).to_json())
        << "thread_pool(" << threads << ") diverged";
  }

  // Telemetry *collection* on (registry + trace): the stable JSON must
  // still not move — only the opt-in telemetry block may differ.
  const std::string path = testing::TempDir() + "/cpsinw_trace_stable.json";
  for (const int threads : {1, 2}) {
    CampaignSpec spec = base;
    spec.executor.backend = ExecutorBackend::kThreadPool;
    spec.threads = threads;
    spec.emit_telemetry = true;
    spec.trace_path = path;
    const CampaignReport report = run_campaign(spec);
    EXPECT_TRUE(report.ok()) << report.error;
    CampaignReport stable = report;
    stable.emit_telemetry = false;
    EXPECT_EQ(reference, stable.to_json())
        << "telemetry collection changed the stable JSON at " << threads
        << " threads";
    // With the block on, the telemetry keys must actually appear.
    const std::string with_telemetry = report.to_json();
    EXPECT_NE(with_telemetry.find("\"telemetry\""), std::string::npos);
    EXPECT_NE(with_telemetry.find("thread_pool.shard_exec_s"),
              std::string::npos);
    EXPECT_EQ(reference.find("\"telemetry\""), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(TelemetryReport, TimingGainsPhaseFieldsOnlyWhenOptedIn) {
  CampaignSpec spec = small_campaign_spec();
  spec.executor.backend = ExecutorBackend::kInline;

  const std::string plain = run_campaign(spec).to_json(true);
  EXPECT_EQ(plain.find("setup_s"), std::string::npos);
  EXPECT_EQ(plain.find("merge_s"), std::string::npos);

  spec.emit_telemetry = true;
  const std::string opted = run_campaign(spec).to_json(true);
  EXPECT_NE(opted.find("\"setup_s\""), std::string::npos);
  EXPECT_NE(opted.find("\"merge_s\""), std::string::npos);
}

TEST(TelemetryReport, StemWalkCountersAreDeterministic) {
  // Each stem is walked at most once per job's context, whichever thread
  // asks first, and a walk's gate count depends only on the stem and the
  // patterns, so all four counters read the same at any thread count.
  // The default models put X on some nets, so both row kinds are walked.
  CampaignSpec spec;
  spec.jobs.push_back({"c17", logic::c17()});
  spec.jobs.push_back({"ripple_adder_4", logic::ripple_adder(4)});
  spec.patterns.kind = PatternSourceSpec::Kind::kRandom;
  spec.patterns.random_count = 200;
  spec.seed = 5;
  spec.shard_size = 8;
  spec.emit_telemetry = true;
  const char* const names[] = {"engine.stem_walks", "engine.x_walks",
                               "engine.stem_gates", "engine.x_gates"};
  std::vector<std::uint64_t> serial;
  for (const int threads : {1, 2, 4}) {
    spec.executor.backend = threads == 1 ? ExecutorBackend::kInline
                                         : ExecutorBackend::kThreadPool;
    spec.threads = threads;
    const CampaignReport report = run_campaign(spec);
    ASSERT_TRUE(report.ok()) << report.error;
    std::vector<std::uint64_t> got;
    for (const char* name : names) {
      const telemetry::CounterValue* c = report.telemetry.find_counter(name);
      ASSERT_NE(c, nullptr) << name;
      got.push_back(c->value);
    }
    EXPECT_GT(got[0], 0u);
    EXPECT_GT(got[1], 0u);
    EXPECT_GE(got[2], got[0]) << "a walk evaluates at least one gate";
    EXPECT_GE(got[3], got[1]);
    if (serial.empty()) serial = got;
    EXPECT_EQ(got, serial) << threads << " threads";
  }
}

TEST(TelemetryReport, SetupSubPhasesRecordedOncePerJob) {
  const std::string path = testing::TempDir() + "/cpsinw_trace_setup.json";
  CampaignSpec spec = small_campaign_spec();
  ASSERT_EQ(spec.jobs.size(), 2u);
  spec.executor.backend = ExecutorBackend::kThreadPool;
  spec.threads = 2;
  spec.emit_telemetry = true;
  spec.trace_path = path;
  const CampaignReport report = run_campaign(spec);
  ASSERT_TRUE(report.ok()) << report.error;

  for (const char* name : {"campaign.setup.universe_s",
                           "campaign.setup.patterns_s",
                           "campaign.setup.context_s"}) {
    const telemetry::HistogramValue* h =
        report.telemetry.find_histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->count, 2u) << name;
  }

  const std::string text = read_file(path);
  ASSERT_FALSE(text.empty()) << "trace file missing: " << path;
  check_trace_json(text);
  const JsonValue doc = parse_json(text);
  for (const char* span : {"setup:universe", "setup:patterns",
                           "setup:context"}) {
    int seen = 0;
    for (const JsonValue& ev : doc.at("traceEvents").as_array("traceEvents"))
      if (ev.at("name").as_string("name") == span) ++seen;
    EXPECT_EQ(seen, 2) << span;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cpsinw::engine
