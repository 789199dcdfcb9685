// Cross-backend determinism: the stable campaign JSON must be
// byte-identical whether shards run inline, on the thread pool (at any
// thread count), or on remote cpsinw_shard_server endpoints (1 or 2 of
// them).  This is the guarantee that lets large fault-mode sweeps fan out
// — across threads, processes, and hosts — without their statistics
// depending on where the work happened to execute.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/campaign.hpp"
#include "logic/benchmarks.hpp"
#include "remote_test_util.hpp"

namespace cpsinw::engine {
namespace {

CampaignReport run_on(CampaignSpec spec, ExecutorBackend backend,
                      int threads) {
  spec.executor.backend = backend;
  spec.threads = threads;
  return run_campaign(spec);
}

/// Runs `spec` on every backend (thread pool at 1/2/8 threads) and
/// asserts one stable JSON, returned for further checks.
std::string assert_all_backends_identical(const CampaignSpec& spec,
                                          const char* label) {
  const CampaignReport inline_report =
      run_on(spec, ExecutorBackend::kInline, 1);
  EXPECT_TRUE(inline_report.ok()) << label << ": " << inline_report.error;
  const std::string reference = inline_report.to_json();

  for (const int threads : {1, 2, 8}) {
    const CampaignReport r = run_on(spec, ExecutorBackend::kThreadPool,
                                    threads);
    EXPECT_TRUE(r.ok()) << label << ": " << r.error;
    EXPECT_EQ(reference, r.to_json())
        << label << ": thread_pool(" << threads << ") diverged from inline";
  }

  // Remote loopback: the determinism guarantee widens from "any backend
  // on one host" to "any set of hosts" — one endpoint, then the work
  // spread over two.
  const std::vector<std::string>& endpoints =
      test_util::loopback_endpoints();
  EXPECT_GE(endpoints.size(), 2u) << "loopback shard servers failed to start";
  for (std::size_t count : {std::size_t{1}, std::size_t{2}}) {
    if (endpoints.size() < count) continue;
    CampaignSpec remote = spec;
    remote.executor.backend = ExecutorBackend::kRemote;
    remote.executor.endpoints.assign(endpoints.begin(),
                                     endpoints.begin() +
                                         static_cast<std::ptrdiff_t>(count));
    remote.threads = 2;
    const CampaignReport r = run_campaign(remote);
    EXPECT_TRUE(r.ok()) << label << ": " << r.error;
    EXPECT_EQ(reference, r.to_json())
        << label << ": remote(" << count << " endpoints) diverged from inline";
  }
  return reference;
}

TEST(ExecutorEquivalence, ExplicitSourceAllFiveFaultClasses) {
  CampaignSpec spec;
  logic::Circuit ckt = logic::full_adder();
  const int n = static_cast<int>(ckt.primary_inputs().size());
  for (unsigned v = 0; v < (1u << n); ++v) {
    logic::Pattern p(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      p[static_cast<std::size_t>(i)] = logic::from_bool((v >> i) & 1u);
    spec.patterns.explicit_patterns.push_back(std::move(p));
  }
  spec.patterns.kind = PatternSourceSpec::Kind::kExplicit;
  spec.jobs.push_back({"full_adder", std::move(ckt)});
  spec.models.bridge = true;  // all five classes in one universe
  spec.shard_size = 8;

  const std::string json = assert_all_backends_identical(spec, "explicit");

  // The spec really covered every fault class the paper models.
  const CampaignReport r = run_on(spec, ExecutorBackend::kInline, 1);
  for (int c = 0; c < kFaultClassCount; ++c)
    EXPECT_GT(r.jobs[0].by_class[static_cast<std::size_t>(c)].total, 0)
        << to_string(static_cast<FaultClass>(c));
  EXPECT_NE(json.find("bridge"), std::string::npos);
}

TEST(ExecutorEquivalence, RandomSourceTwoJobsWithFaultSampling) {
  CampaignSpec spec;
  spec.jobs.push_back({"c17", logic::c17()});
  spec.jobs.push_back({"parity_tree_8", logic::parity_tree(8)});
  spec.models.bridge = true;
  spec.patterns.kind = PatternSourceSpec::Kind::kRandom;
  spec.patterns.random_count = 64;
  spec.shard_size = 16;
  spec.seed = 1234;
  // Fault sampling consumes the shard RNG stream: byte-identical output
  // proves the stream state crossed the process boundary intact.
  spec.fault_sample_fraction = 0.8;

  (void)assert_all_backends_identical(spec, "random");
}

TEST(ExecutorEquivalence, AtpgSourceGeneratesInWorkersIdentically) {
  CampaignSpec spec;
  spec.jobs.push_back({"c17", logic::c17()});
  spec.jobs.push_back({"full_adder", logic::full_adder()});
  spec.patterns.kind = PatternSourceSpec::Kind::kAtpg;
  spec.shard_size = 16;

  (void)assert_all_backends_identical(spec, "atpg");
}

/// Randomized CampaignSpec property test: seeded specs over benchmark
/// circuits, varying pattern source, shard size, sampling, IDDQ
/// observation and the bridge universe — every draw must be byte-identical
/// across the three backends.
TEST(ExecutorEquivalence, RandomizedSpecPropertyTest) {
  util::SplitMix64 rng(20260729);
  const auto make_circuit = [](std::uint64_t pick) {
    switch (pick % 4) {
      case 0: return std::make_pair(std::string("c17"), logic::c17());
      case 1:
        return std::make_pair(std::string("full_adder"),
                              logic::full_adder());
      case 2:
        return std::make_pair(std::string("parity_tree_8"),
                              logic::parity_tree(8));
      default:
        return std::make_pair(std::string("tmr_voter_3"),
                              logic::tmr_voter(3));
    }
  };

  for (int iter = 0; iter < 4; ++iter) {
    CampaignSpec spec;
    auto [name, ckt] = make_circuit(rng.next_u64());
    const std::size_t pis = ckt.primary_inputs().size();

    const std::uint64_t source = rng.next_u64() % 3;
    if (source == 0) {
      spec.patterns.kind = PatternSourceSpec::Kind::kExplicit;
      const int count = 4 + static_cast<int>(rng.below(12));
      for (int k = 0; k < count; ++k) {
        logic::Pattern p(pis);
        for (logic::LogicV& v : p) v = logic::from_bool(rng.chance(0.5));
        spec.patterns.explicit_patterns.push_back(std::move(p));
      }
    } else if (source == 1) {
      spec.patterns.kind = PatternSourceSpec::Kind::kRandom;
      spec.patterns.random_count = 16 + static_cast<int>(rng.below(48));
    } else {
      spec.patterns.kind = PatternSourceSpec::Kind::kAtpg;
    }

    spec.jobs.push_back({name, std::move(ckt)});
    spec.seed = rng.next_u64();
    spec.shard_size = 1 + rng.below(24);
    spec.models.bridge = rng.chance(0.5);
    spec.sim.observe_iddq = rng.chance(0.75);
    spec.fault_sample_fraction = rng.chance(0.5) ? 1.0 : 0.6;

    const std::string label =
        "iter " + std::to_string(iter) + " (" + name + ", " +
        to_string(spec.patterns.kind) + ", shard_size " +
        std::to_string(spec.shard_size) +
        (spec.models.bridge ? ", bridges" : "") + ")";
    SCOPED_TRACE(label);
    (void)assert_all_backends_identical(spec, label.c_str());
  }
}

}  // namespace
}  // namespace cpsinw::engine
