#include "engine/shard_io.hpp"

#include <gtest/gtest.h>

#include "engine/campaign.hpp"
#include "engine/json_reader.hpp"
#include "faults/eval_context.hpp"
#include "logic/benchmarks.hpp"

namespace cpsinw::engine {
namespace {

/// A universe carrying every fault class (bridges included) plus a pattern
/// set with X values, over a circuit with constants and multiple cells.
struct Fixture {
  logic::Circuit ckt = logic::c17();
  std::vector<CampaignFault> universe;
  std::vector<logic::Pattern> patterns;
  Shard shard;
  ShardExecOptions options;

  explicit Fixture(bool with_x_pattern = true) {
    FaultModelSelection models;
    models.bridge = true;
    universe = build_universe(ckt, models, /*observe_iddq=*/false);
    const std::size_t pis = ckt.primary_inputs().size();
    for (unsigned v = 0; v < 8; ++v) {
      logic::Pattern p(pis);
      for (std::size_t i = 0; i < pis; ++i)
        p[i] = logic::from_bool((v >> (i % 3)) & 1u);
      patterns.push_back(std::move(p));
    }
    // One partially specified pattern exercises the X path in the wire
    // format (campaigns with line faults require packable patterns, so
    // the execution test below opts out of it).
    if (with_x_pattern) {
      logic::Pattern x_pattern(pis, logic::LogicV::k1);
      x_pattern[0] = logic::LogicV::kX;
      patterns.push_back(std::move(x_pattern));
    }

    shard.job = 2;
    shard.index = 5;
    shard.begin = 0;
    shard.end = universe.size();
    shard.rng = util::SplitMix64(99).fork(7);
    options.fault_sample_fraction = 0.85;
  }
};

TEST(ShardIo, InputSurvivesARoundTripByteIdentically) {
  const Fixture fx;
  const std::string doc = serialize_shard_input(fx.ckt, fx.patterns,
                                                fx.universe, fx.shard,
                                                fx.options);
  const ShardWorkInput parsed = parse_shard_input(doc);

  EXPECT_EQ(parsed.shard.job, fx.shard.job);
  EXPECT_EQ(parsed.shard.index, fx.shard.index);
  EXPECT_EQ(parsed.shard.begin, 0u);
  EXPECT_EQ(parsed.shard.end, fx.universe.size());
  EXPECT_EQ(parsed.shard.rng.state(), fx.shard.rng.state());
  EXPECT_EQ(parsed.patterns, fx.patterns);
  EXPECT_DOUBLE_EQ(parsed.options.fault_sample_fraction,
                   fx.options.fault_sample_fraction);

  // Re-serializing the parsed document reproduces the original bytes: the
  // encoding has one canonical form, so nothing was lost or reordered.
  const std::string again =
      serialize_shard_input(parsed.circuit, parsed.patterns, parsed.faults,
                            parsed.shard, parsed.options);
  EXPECT_EQ(doc, again);

  // Documents from older writers may carry options this reader no longer
  // knows.  Unknown keys are ignored, so such a document still parses to
  // the same input.
  std::string older = doc;
  const std::size_t at = older.find("\"detection_mode\"");
  ASSERT_NE(at, std::string::npos);
  older.insert(at, "\"retired_option\":true,");
  const ShardWorkInput from_older = parse_shard_input(older);
  EXPECT_EQ(serialize_shard_input(from_older.circuit, from_older.patterns,
                                  from_older.faults, from_older.shard,
                                  from_older.options),
            doc);
}

TEST(ShardIo, CircuitIdsAndStructureArePreserved) {
  const Fixture fx;
  const ShardWorkInput parsed = parse_shard_input(serialize_shard_input(
      fx.ckt, fx.patterns, fx.universe, fx.shard, fx.options));

  ASSERT_EQ(parsed.circuit.net_count(), fx.ckt.net_count());
  ASSERT_EQ(parsed.circuit.gate_count(), fx.ckt.gate_count());
  for (logic::NetId n = 0; n < fx.ckt.net_count(); ++n) {
    EXPECT_EQ(parsed.circuit.net_name(n), fx.ckt.net_name(n));
    EXPECT_EQ(parsed.circuit.is_primary_input(n),
              fx.ckt.is_primary_input(n));
    EXPECT_EQ(parsed.circuit.driver_of(n), fx.ckt.driver_of(n));
  }
  for (int g = 0; g < fx.ckt.gate_count(); ++g) {
    EXPECT_EQ(parsed.circuit.gate(g).kind, fx.ckt.gate(g).kind);
    EXPECT_EQ(parsed.circuit.gate(g).in, fx.ckt.gate(g).in);
    EXPECT_EQ(parsed.circuit.gate(g).out, fx.ckt.gate(g).out);
  }
  EXPECT_EQ(parsed.circuit.primary_inputs(), fx.ckt.primary_inputs());
  EXPECT_EQ(parsed.circuit.primary_outputs(), fx.ckt.primary_outputs());
}

TEST(ShardIo, AllFaultClassesRoundTrip) {
  const Fixture fx;
  const ShardWorkInput parsed = parse_shard_input(serialize_shard_input(
      fx.ckt, fx.patterns, fx.universe, fx.shard, fx.options));

  ASSERT_EQ(parsed.faults.size(), fx.universe.size());
  bool saw_class[kFaultClassCount] = {};
  for (std::size_t i = 0; i < fx.universe.size(); ++i) {
    const CampaignFault& a = fx.universe[i];
    const CampaignFault& b = parsed.faults[i];
    ASSERT_EQ(a.cls, b.cls) << "fault " << i;
    saw_class[static_cast<std::size_t>(a.cls)] = true;
    if (a.cls == FaultClass::kBridge)
      EXPECT_EQ(a.bridge, b.bridge) << "fault " << i;
    else
      EXPECT_EQ(a.fault, b.fault) << "fault " << i;
  }
  for (int c = 0; c < kFaultClassCount; ++c)
    EXPECT_TRUE(saw_class[c]) << to_string(static_cast<FaultClass>(c));
}

TEST(ShardIo, ParsedShardExecutesBitIdenticallyToTheOriginal) {
  const Fixture fx(/*with_x_pattern=*/false);
  const faults::EvalContext ctx(fx.ckt, fx.patterns);
  const ShardResult direct = run_shard(ctx, fx.universe, fx.shard, fx.options);

  ShardWorkInput parsed = parse_shard_input(serialize_shard_input(
      fx.ckt, fx.patterns, fx.universe, fx.shard, fx.options));
  const faults::EvalContext server_ctx(parsed.circuit,
                                       std::move(parsed.patterns));
  const ShardResult remote =
      run_shard(server_ctx, parsed.faults, parsed.shard, parsed.options);

  // The server-side result serializes to the same bytes as the in-process
  // one (modulo timing, which the comparison below zeroes out).
  ShardResult a = direct;
  ShardResult b = remote;
  a.elapsed_s = 0.0;
  b.elapsed_s = 0.0;
  EXPECT_EQ(serialize_shard_result(a), serialize_shard_result(b));
}

TEST(ShardIo, ResultSurvivesARoundTripByteIdentically) {
  ShardResult result;
  result.job = 1;
  result.index = 4;
  result.elapsed_s = 0.25;
  FaultResult r;
  r.cls = FaultClass::kPolarity;
  r.record.detected_iddq = true;
  r.record.first_pattern = 3;
  result.results.push_back(r);
  r = {};
  r.cls = FaultClass::kBridge;
  r.sampled_out = true;
  result.results.push_back(r);
  r = {};
  r.cls = FaultClass::kStuckOpen;
  r.record.detected_output = true;
  r.record.potential = true;
  r.record.first_pattern = 0;
  result.results.push_back(r);

  const std::string doc = serialize_shard_result(result);
  const ShardResult parsed = parse_shard_result(doc);
  EXPECT_EQ(serialize_shard_result(parsed), doc);
  ASSERT_EQ(parsed.results.size(), result.results.size());
  EXPECT_EQ(parsed.results[0].record.first_pattern, 3);
  EXPECT_TRUE(parsed.results[1].sampled_out);
}

TEST(ShardIo, MalformedDocumentsThrowInsteadOfMisbehaving) {
  const Fixture fx;
  const std::string doc = serialize_shard_input(fx.ckt, fx.patterns,
                                                fx.universe, fx.shard,
                                                fx.options);
  EXPECT_THROW((void)parse_shard_input(""), std::runtime_error);
  EXPECT_THROW((void)parse_shard_input("not json at all"),
               std::runtime_error);
  EXPECT_THROW((void)parse_shard_input(doc.substr(0, doc.size() / 2)),
               std::runtime_error);
  EXPECT_THROW((void)parse_shard_input("{}"), std::runtime_error);
  EXPECT_THROW((void)parse_shard_result("{\"version\":1}"),
               std::runtime_error);

  // A future protocol version is rejected, not half-parsed.
  std::string wrong_version = doc;
  const std::size_t at = wrong_version.find("\"version\":1");
  ASSERT_NE(at, std::string::npos);
  wrong_version.replace(at, 11, "\"version\":9");
  EXPECT_THROW((void)parse_shard_input(wrong_version), std::runtime_error);
}

TEST(ShardIo, OutOfRangeBridgeNetsThrowInsteadOfCrashing) {
  // Bridge net ids are plain ints on the wire, so a document may name a
  // net the circuit does not have, a negative one, or the same net twice.
  // Simulating such a pair used to index the net vectors unchecked and
  // kill the shard server with SIGSEGV; the pair must be rejected before
  // any plane is read, also when the shard has no pattern to simulate.
  const logic::Circuit ckt = logic::c17();
  const std::vector<CampaignFault> universe = {CampaignFault::from_bridge(
      {1, 2, faults::BridgeBehavior::kWiredAnd})};
  Shard shard;
  shard.end = universe.size();
  const std::vector<logic::Pattern> one = {
      logic::Pattern(ckt.primary_inputs().size(), logic::LogicV::k1)};
  for (const std::vector<logic::Pattern>& patterns :
       {one, std::vector<logic::Pattern>{}}) {
    for (const auto& [a, b] : {std::pair{1, 100000000}, std::pair{2, 2},
                               std::pair{-1, 2}, std::pair{1, -5}}) {
      std::string doc = serialize_shard_input(ckt, patterns, universe, shard,
                                              ShardExecOptions{});
      const std::string pair = "\"a\":1,\"b\":2,";
      const std::size_t at = doc.find(pair);
      ASSERT_NE(at, std::string::npos);
      doc.replace(at, pair.size(),
                  "\"a\":" + std::to_string(a) + ",\"b\":" +
                      std::to_string(b) + ",");

      const ShardWorkInput parsed = parse_shard_input(doc);
      ASSERT_EQ(parsed.faults.size(), 1u);
      EXPECT_EQ(parsed.faults[0].bridge.a, a);
      EXPECT_EQ(parsed.faults[0].bridge.b, b);
      EXPECT_EQ(parsed.patterns.size(), patterns.size());
      const faults::EvalContext ctx(parsed.circuit, parsed.patterns);
      EXPECT_THROW(
          (void)run_shard(ctx, parsed.faults, parsed.shard, parsed.options),
          std::invalid_argument)
          << "a=" << a << " b=" << b << " patterns=" << patterns.size();
    }
  }
}

TEST(ShardIo, OutOfRangeTransistorIndicesThrowAtParse) {
  // A transistor index is a plain int on the wire.  A negative one used to
  // parse and run as "no fault" (reported undetected); the document is
  // rejected with the parser's other diagnostics instead, and so is a
  // transistor fault whose kind is "none".
  const logic::Circuit ckt = logic::c17();
  const std::vector<CampaignFault> universe = {CampaignFault::from_fault(
      faults::Fault::transistor(0, 0, gates::TransistorFault::kStuckAtNType))};
  Shard shard;
  shard.end = universe.size();
  const std::vector<logic::Pattern> one = {
      logic::Pattern(ckt.primary_inputs().size(), logic::LogicV::k1)};
  const std::string doc =
      serialize_shard_input(ckt, one, universe, shard, ShardExecOptions{});
  EXPECT_EQ(parse_shard_input(doc).faults.size(), 1u);
  const std::string field = "\"t\":0,";
  const std::size_t at = doc.find(field);
  ASSERT_NE(at, std::string::npos);
  for (const int t : {-1, 99}) {
    std::string bad = doc;
    bad.replace(at, field.size(), "\"t\":" + std::to_string(t) + ",");
    try {
      (void)parse_shard_input(bad);
      ADD_FAILURE() << "t=" << t << " parsed";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("shard_io:"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("transistor index"),
                std::string::npos)
          << e.what();
    }
  }
  const std::string kind = "\"kind\":\"ntype\"";
  const std::size_t kind_at = doc.find(kind);
  ASSERT_NE(kind_at, std::string::npos);
  std::string no_kind = doc;
  no_kind.replace(kind_at, kind.size(), "\"kind\":\"none\"");
  try {
    (void)parse_shard_input(no_kind);
    ADD_FAILURE() << "a transistor fault without a kind parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard_io: transistor fault: no fault kind");
  }
}

TEST(ShardIo, OutOfContractOptionsThrowInsteadOfRunningAnotherContract) {
  // A misspelt detection mode used to run the kFull record contract, and
  // a sample fraction outside (0, 1] (which run_campaign rejects) was
  // accepted as is.  Both are now diagnostics.
  const Fixture fx;
  const std::string doc = serialize_shard_input(fx.ckt, fx.patterns,
                                                fx.universe, fx.shard,
                                                fx.options);
  const auto replaced = [&doc](const std::string& from,
                               const std::string& to) {
    std::string out = doc;
    const std::size_t at = out.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) out.replace(at, from.size(), to);
    return out;
  };
  const auto expect_diagnostic = [](const std::string& text,
                                    const char* what) {
    try {
      (void)parse_shard_input(text);
      ADD_FAILURE() << what << " parsed";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("shard_io:"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };

  for (const char* mode : {"first-only", "FULL", ""})
    expect_diagnostic(replaced("\"detection_mode\":\"full\"",
                               std::string("\"detection_mode\":\"") + mode +
                                   "\""),
                      "detection_mode");
  for (const char* fraction : {"0", "-0.5", "1.5", "1e300"})
    expect_diagnostic(replaced("\"fault_sample_fraction\":0.85",
                               std::string("\"fault_sample_fraction\":") +
                                   fraction),
                      "fault_sample_fraction");

  // Both ends of the contract still parse.
  EXPECT_EQ(parse_shard_input(replaced("\"detection_mode\":\"full\"",
                                       "\"detection_mode\":\"first_only\""))
                .options.sim.detection_mode,
            faults::DetectionMode::kFirstOnly);
  EXPECT_DOUBLE_EQ(parse_shard_input(replaced("\"fault_sample_fraction\":0.85",
                                              "\"fault_sample_fraction\":1"))
                       .options.fault_sample_fraction,
                   1.0);
}

TEST(ShardIo, CheckShardResultRejectsRecordsTheMergeCannotTrust) {
  // A reply is untrusted: identity and count matching is not enough.  A
  // first_pattern past the pattern set used to overflow the first-detect
  // histogram index in accumulate_shard (134217728 * 16 wraps int), and a
  // record of the wrong class was merged into that class's totals.
  const Fixture fx(/*with_x_pattern=*/false);
  const std::size_t pattern_count = fx.patterns.size();
  const ShardResult good = run_shard(fx.ckt, fx.universe, fx.patterns,
                                     fx.shard, fx.options);
  const auto check = [&](const ShardResult& r) {
    return check_shard_result(parse_shard_result(serialize_shard_result(r)),
                              fx.shard, fx.universe, pattern_count);
  };
  EXPECT_EQ(check(good), "");

  ShardResult edge = good;
  edge.results[0].record.first_pattern = -1;
  edge.results[1].record.first_pattern =
      static_cast<int>(pattern_count) - 1;
  EXPECT_EQ(check(edge), "");

  for (const int first :
       {134217728, static_cast<int>(pattern_count), -2, -2147483647}) {
    ShardResult bad = good;
    bad.results[3].record.detected_output = true;
    bad.results[3].record.first_pattern = first;
    const std::string error = check(bad);
    EXPECT_NE(error.find("record 3 names first_pattern " +
                         std::to_string(first)),
              std::string::npos)
        << error;
  }

  ShardResult mismatched = good;
  FaultResult& r = mismatched.results[2];
  r.cls = r.cls == FaultClass::kBridge ? FaultClass::kLineStuckAt
                                       : FaultClass::kBridge;
  const std::string error = check(mismatched);
  EXPECT_NE(error.find("record 2 has class"), std::string::npos) << error;
}

TEST(ShardIo, ShortPatternsThrowWhenTheContextIsBuilt) {
  // Pattern strings are not checked against the circuit when a document
  // is parsed, so the context the shard server builds from it must reject
  // a pattern one input short.
  const Fixture fx(/*with_x_pattern=*/false);
  std::string doc = serialize_shard_input(fx.ckt, fx.patterns, fx.universe,
                                          fx.shard, fx.options);
  const std::size_t pis = fx.ckt.primary_inputs().size();
  std::string second = "\"";
  for (const logic::LogicV v : fx.patterns[1]) second += logic::to_string(v);
  second += "\"";
  const std::size_t at = doc.find(second, doc.find("\"patterns\""));
  ASSERT_NE(at, std::string::npos);
  doc.erase(at + pis, 1);

  const ShardWorkInput parsed = parse_shard_input(doc);
  ASSERT_EQ(parsed.patterns.size(), fx.patterns.size());
  EXPECT_EQ(parsed.patterns[1].size(), pis - 1);
  EXPECT_THROW((void)faults::EvalContext(parsed.circuit, parsed.patterns),
               std::invalid_argument);
}

TEST(ShardIo, DeeplyNestedDocumentsThrowInsteadOfOverflowingTheStack) {
  // The reader recurses once per container level: unbounded, 1 MiB of
  // '[' (far below the frame limit) overflowed the stack and killed the
  // shard server.  Nesting past JsonParser::kMaxDepth is now a diagnostic.
  std::string object_chain;
  for (std::size_t i = 0; object_chain.size() < (1u << 20); ++i)
    object_chain += "{\"a\":";
  for (const std::string& hostile :
       {std::string(1u << 20, '['), object_chain}) {
    for (const bool through_shard_input : {false, true}) {
      try {
        if (through_shard_input)
          (void)parse_shard_input(hostile);
        else
          (void)parse_json(hostile);
        ADD_FAILURE() << "deep nesting parsed";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("json: malformed JSON at byte"),
                  std::string::npos)
            << e.what();
      }
    }
  }

  // The bound is exact: kMaxDepth levels parse, one more does not.
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW((void)parse_json(nested(JsonParser::kMaxDepth)));
  EXPECT_THROW((void)parse_json(nested(JsonParser::kMaxDepth + 1)),
               std::runtime_error);
}

}  // namespace
}  // namespace cpsinw::engine
