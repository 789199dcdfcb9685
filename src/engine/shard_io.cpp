#include "engine/shard_io.hpp"

#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "engine/json_reader.hpp"
#include "engine/json_writer.hpp"

namespace cpsinw::engine {

namespace {

using Json = JsonWriter;  // shared canonical-form writer (json_writer.hpp)
// Parsing rides on the shared engine/json_reader.hpp reader: every
// malformed input becomes a std::runtime_error with a byte offset, never
// UB — worker output is untrusted by design.

// ------------------------------------------------------------ enum names
// Protocol-owned tables (not the display to_string helpers) so a renamed
// diagnostic string can never silently change the wire format.

const char* site_name(faults::FaultSite site) {
  switch (site) {
    case faults::FaultSite::kNet: return "net";
    case faults::FaultSite::kGateInput: return "input";
    case faults::FaultSite::kGateTransistor: return "transistor";
  }
  return "?";
}

faults::FaultSite parse_site(const std::string& s) {
  if (s == "net") return faults::FaultSite::kNet;
  if (s == "input") return faults::FaultSite::kGateInput;
  if (s == "transistor") return faults::FaultSite::kGateTransistor;
  throw std::runtime_error("shard_io: unknown fault site '" + s + "'");
}

const char* transistor_fault_name(gates::TransistorFault kind) {
  switch (kind) {
    case gates::TransistorFault::kNone: return "none";
    case gates::TransistorFault::kStuckOpen: return "open";
    case gates::TransistorFault::kStuckOn: return "on";
    case gates::TransistorFault::kStuckAtNType: return "ntype";
    case gates::TransistorFault::kStuckAtPType: return "ptype";
  }
  return "?";
}

gates::TransistorFault parse_transistor_fault(const std::string& s) {
  if (s == "none") return gates::TransistorFault::kNone;
  if (s == "open") return gates::TransistorFault::kStuckOpen;
  if (s == "on") return gates::TransistorFault::kStuckOn;
  if (s == "ntype") return gates::TransistorFault::kStuckAtNType;
  if (s == "ptype") return gates::TransistorFault::kStuckAtPType;
  throw std::runtime_error("shard_io: unknown transistor fault '" + s + "'");
}

const char* behavior_name(faults::BridgeBehavior behavior) {
  switch (behavior) {
    case faults::BridgeBehavior::kWiredAnd: return "wired_and";
    case faults::BridgeBehavior::kWiredOr: return "wired_or";
    case faults::BridgeBehavior::kDominantA: return "dominant_a";
    case faults::BridgeBehavior::kDominantB: return "dominant_b";
  }
  return "?";
}

faults::BridgeBehavior parse_behavior(const std::string& s) {
  if (s == "wired_and") return faults::BridgeBehavior::kWiredAnd;
  if (s == "wired_or") return faults::BridgeBehavior::kWiredOr;
  if (s == "dominant_a") return faults::BridgeBehavior::kDominantA;
  if (s == "dominant_b") return faults::BridgeBehavior::kDominantB;
  throw std::runtime_error("shard_io: unknown bridge behavior '" + s + "'");
}

FaultClass parse_fault_class(const std::string& s) {
  for (int c = 0; c < kFaultClassCount; ++c)
    if (s == to_string(static_cast<FaultClass>(c)))
      return static_cast<FaultClass>(c);
  throw std::runtime_error("shard_io: unknown fault class '" + s + "'");
}

gates::CellKind parse_cell_kind(const std::string& s) {
  for (const gates::CellKind kind : gates::all_cell_kinds())
    if (s == gates::to_string(kind)) return kind;
  throw std::runtime_error("shard_io: unknown cell '" + s + "'");
}

logic::LogicV parse_logic_char(char c) {
  switch (c) {
    case '0': return logic::LogicV::k0;
    case '1': return logic::LogicV::k1;
    case 'X': return logic::LogicV::kX;
    case 'Z': return logic::LogicV::kZ;
    default:
      throw std::runtime_error(std::string("shard_io: bad pattern char '") +
                               c + "'");
  }
}

// ----------------------------------------------------------- sub-objects

/// Nets in id order tagged with their driver kind, gates in id order —
/// reconstruction re-issues the same add_* calls and therefore the same
/// ids, which every shipped fault depends on.
void emit_circuit(Json& j, const logic::Circuit& ckt) {
  j.open_object();
  j.key("nets");
  j.open_array();
  for (logic::NetId n = 0; n < ckt.net_count(); ++n) {
    j.open_object();
    j.key("name");
    j.value(ckt.net_name(n));
    j.key("kind");
    if (ckt.is_primary_input(n))
      j.value("pi");
    else if (ckt.constant_of(n) == logic::LogicV::k0)
      j.value("c0");
    else if (ckt.constant_of(n) == logic::LogicV::k1)
      j.value("c1");
    else
      j.value("net");
    j.close_object();
  }
  j.close_array();
  j.key("gates");
  j.open_array();
  for (const logic::GateInst& g : ckt.gates()) {
    j.open_object();
    j.key("cell");
    j.value(gates::to_string(g.kind));
    j.key("out");
    j.value(static_cast<int>(g.out));
    j.key("in");
    j.open_array();
    for (int i = 0; i < g.input_count(); ++i)
      j.value(static_cast<int>(g.in[static_cast<std::size_t>(i)]));
    j.close_array();
    j.key("name");
    j.value(g.name);
    j.close_object();
  }
  j.close_array();
  j.key("outputs");
  j.open_array();
  for (const logic::NetId n : ckt.primary_outputs())
    j.value(static_cast<int>(n));
  j.close_array();
  j.close_object();
}

logic::Circuit parse_circuit(const JsonValue& v) {
  logic::Circuit ckt;
  const std::vector<JsonValue>& nets = v.at("nets").as_array("nets");
  for (std::size_t n = 0; n < nets.size(); ++n) {
    const std::string& name = nets[n].at("name").as_string("net name");
    const std::string& kind = nets[n].at("kind").as_string("net kind");
    logic::NetId id = -1;
    if (kind == "pi")
      id = ckt.add_primary_input(name);
    else if (kind == "c0")
      id = ckt.add_constant(logic::LogicV::k0, name);
    else if (kind == "c1")
      id = ckt.add_constant(logic::LogicV::k1, name);
    else if (kind == "net")
      id = ckt.add_net(name);
    else
      throw std::runtime_error("shard_io: unknown net kind '" + kind + "'");
    if (id != static_cast<logic::NetId>(n))
      throw std::runtime_error("shard_io: net id not preserved");
  }
  for (const JsonValue& gv : v.at("gates").as_array("gates")) {
    std::vector<logic::NetId> ins;
    for (const JsonValue& iv : gv.at("in").as_array("gate inputs"))
      ins.push_back(iv.as_int("gate input"));
    ckt.add_gate(parse_cell_kind(gv.at("cell").as_string("cell")), ins,
                 gv.at("out").as_int("gate out"),
                 gv.at("name").as_string("gate name"));
  }
  for (const JsonValue& ov : v.at("outputs").as_array("outputs"))
    ckt.mark_primary_output(ov.as_int("output"));
  ckt.finalize();
  return ckt;
}

void emit_fault(Json& j, const CampaignFault& cf) {
  j.open_object();
  j.key("cls");
  j.value(to_string(cf.cls));
  if (cf.cls == FaultClass::kBridge) {
    j.key("a");
    j.value(static_cast<int>(cf.bridge.a));
    j.key("b");
    j.value(static_cast<int>(cf.bridge.b));
    j.key("behavior");
    j.value(behavior_name(cf.bridge.behavior));
  } else {
    j.key("site");
    j.value(site_name(cf.fault.site));
    j.key("net");
    j.value(static_cast<int>(cf.fault.net));
    j.key("gate");
    j.value(cf.fault.gate);
    j.key("pin");
    j.value(cf.fault.pin);
    j.key("sa1");
    j.value(cf.fault.stuck_at_one);
    j.key("t");
    j.value(cf.fault.cell_fault.transistor);
    j.key("kind");
    j.value(transistor_fault_name(cf.fault.cell_fault.kind));
  }
  j.close_object();
}

CampaignFault parse_fault(const JsonValue& v) {
  CampaignFault cf;
  cf.cls = parse_fault_class(v.at("cls").as_string("cls"));
  if (cf.cls == FaultClass::kBridge) {
    cf.bridge.a = v.at("a").as_int("bridge a");
    cf.bridge.b = v.at("b").as_int("bridge b");
    cf.bridge.behavior = parse_behavior(v.at("behavior").as_string("behavior"));
  } else {
    cf.fault.site = parse_site(v.at("site").as_string("site"));
    cf.fault.net = v.at("net").as_int("net");
    cf.fault.gate = v.at("gate").as_int("gate");
    cf.fault.pin = v.at("pin").as_int("pin");
    cf.fault.stuck_at_one = v.at("sa1").as_bool("sa1");
    cf.fault.cell_fault.transistor = v.at("t").as_int("t");
    cf.fault.cell_fault.kind =
        parse_transistor_fault(v.at("kind").as_string("kind"));
  }
  return cf;
}

int checked_version(const JsonValue& doc) {
  const int version = doc.at("version").as_int("version");
  if (version != kShardIoVersion)
    throw std::runtime_error("shard_io: protocol version " +
                             std::to_string(version) + " (expected " +
                             std::to_string(kShardIoVersion) + ")");
  return version;
}

}  // namespace

std::string context_fingerprint(const logic::Circuit& ckt,
                                const std::vector<logic::Pattern>& patterns) {
  Json j;
  j.open_object();
  j.key("circuit");
  emit_circuit(j, ckt);
  j.key("patterns");
  j.open_array();
  for (const logic::Pattern& p : patterns) {
    std::string s;
    s.reserve(p.size());
    for (const logic::LogicV v : p) s += logic::to_string(v);
    j.value(s);
  }
  j.close_array();
  j.close_object();
  return std::move(j).str();
}

std::uint64_t fingerprint_hash(const std::string& fingerprint) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64
  for (const char c : fingerprint) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string serialize_shard_input(const logic::Circuit& ckt,
                                  const std::vector<logic::Pattern>& patterns,
                                  const std::vector<CampaignFault>& universe,
                                  const Shard& shard,
                                  const ShardExecOptions& options) {
  if (shard.begin > shard.end || shard.end > universe.size())
    throw std::invalid_argument(
        "serialize_shard_input: shard range out of bounds");
  Json j;
  j.open_object();
  j.key("version");
  j.value(kShardIoVersion);
  j.key("shard");
  j.open_object();
  j.key("job");
  j.value(shard.job);
  j.key("index");
  j.value(shard.index);
  j.key("rng_state");
  j.value(std::to_string(shard.rng.state()));
  j.close_object();
  j.key("options");
  j.open_object();
  j.key("observe_iddq");
  j.value(options.sim.observe_iddq);
  j.key("sequential_patterns");
  j.value(options.sim.sequential_patterns);
  j.key("detection_mode");
  j.value(options.sim.detection_mode == faults::DetectionMode::kFirstOnly
              ? "first_only"
              : "full");
  j.key("fault_sample_fraction");
  j.value(options.fault_sample_fraction);
  j.close_object();
  j.key("circuit");
  emit_circuit(j, ckt);
  j.key("patterns");
  j.open_array();
  for (const logic::Pattern& p : patterns) {
    std::string s;
    s.reserve(p.size());
    for (const logic::LogicV v : p) s += logic::to_string(v);
    j.value(s);
  }
  j.close_array();
  j.key("faults");
  j.open_array();
  for (std::size_t i = shard.begin; i < shard.end; ++i)
    emit_fault(j, universe[i]);
  j.close_array();
  j.close_object();
  return std::move(j).str();
}

ShardWorkInput parse_shard_input(const std::string& text) {
  const JsonValue doc = JsonParser(text).parse();
  checked_version(doc);

  ShardWorkInput input;
  input.circuit = parse_circuit(doc.at("circuit"));

  for (const JsonValue& pv : doc.at("patterns").as_array("patterns")) {
    const std::string& s = pv.as_string("pattern");
    logic::Pattern p;
    p.reserve(s.size());
    for (const char c : s) p.push_back(parse_logic_char(c));
    input.patterns.push_back(std::move(p));
  }

  for (const JsonValue& fv : doc.at("faults").as_array("faults"))
    input.faults.push_back(parse_fault(fv));

  const JsonValue& sv = doc.at("shard");
  input.shard.job = sv.at("job").as_int("job");
  input.shard.index = sv.at("index").as_int("index");
  input.shard.begin = 0;
  input.shard.end = input.faults.size();
  input.shard.rng = util::SplitMix64(sv.at("rng_state").as_u64("rng_state"));

  const JsonValue& ov = doc.at("options");
  input.options.sim.observe_iddq =
      ov.at("observe_iddq").as_bool("observe_iddq");
  input.options.sim.sequential_patterns =
      ov.at("sequential_patterns").as_bool("sequential_patterns");
  input.options.sim.detection_mode =
      ov.at("detection_mode").as_string("detection_mode") == "first_only"
          ? faults::DetectionMode::kFirstOnly
          : faults::DetectionMode::kFull;
  input.options.fault_sample_fraction =
      ov.at("fault_sample_fraction").as_double("fault_sample_fraction");
  return input;
}

std::string serialize_shard_result(const ShardResult& result) {
  Json j;
  j.open_object();
  j.key("version");
  j.value(kShardIoVersion);
  j.key("job");
  j.value(result.job);
  j.key("index");
  j.value(result.index);
  j.key("elapsed_s");
  j.value(result.elapsed_s);
  j.key("results");
  j.open_array();
  for (const FaultResult& r : result.results) {
    j.open_object();
    j.key("cls");
    j.value(to_string(r.cls));
    j.key("sampled_out");
    j.value(r.sampled_out);
    j.key("detected_output");
    j.value(r.record.detected_output);
    j.key("detected_iddq");
    j.value(r.record.detected_iddq);
    j.key("potential");
    j.value(r.record.potential);
    j.key("first_pattern");
    j.value(r.record.first_pattern);
    j.close_object();
  }
  j.close_array();
  j.close_object();
  return std::move(j).str();
}

ShardResult parse_shard_result(const std::string& text) {
  const JsonValue doc = JsonParser(text).parse();
  checked_version(doc);

  ShardResult result;
  result.job = doc.at("job").as_int("job");
  result.index = doc.at("index").as_int("index");
  result.elapsed_s = doc.at("elapsed_s").as_double("elapsed_s");
  for (const JsonValue& rv : doc.at("results").as_array("results")) {
    FaultResult r;
    r.cls = parse_fault_class(rv.at("cls").as_string("cls"));
    r.sampled_out = rv.at("sampled_out").as_bool("sampled_out");
    r.record.detected_output =
        rv.at("detected_output").as_bool("detected_output");
    r.record.detected_iddq = rv.at("detected_iddq").as_bool("detected_iddq");
    r.record.potential = rv.at("potential").as_bool("potential");
    r.record.first_pattern = rv.at("first_pattern").as_int("first_pattern");
    result.results.push_back(r);
  }
  return result;
}

// ------------------------------------------------------------- stats RPC

namespace {

/// Signed 64-bit values travel as decimal strings for the same reason
/// u64 values do; gauges can be negative, so accept one leading '-'.
std::int64_t parse_i64_string(const JsonValue& v, const char* what) {
  const std::string& s = v.as_string(what);
  const std::size_t digits = s.size() > 0 && s[0] == '-' ? 1 : 0;
  if (s.size() == digits ||
      s.find_first_not_of("0123456789", digits) != std::string::npos)
    throw std::runtime_error(std::string("shard_io: ") + what +
                             " is not a decimal i64 string");
  return std::strtoll(s.c_str(), nullptr, 10);
}

}  // namespace

std::string serialize_stats_request() {
  Json j;
  j.open_object();
  j.key("version");
  j.value(kShardIoVersion);
  j.key("request");
  j.value("stats");
  j.close_object();
  return std::move(j).str();
}

bool is_stats_request(const std::string& text) {
  // A stats request is tiny; a shard work document is not.  The length
  // gate keeps classification O(1) on real work frames, so they are only
  // ever parsed once (as shard input).
  constexpr std::size_t kMaxStatsRequestBytes = 256;
  if (text.size() > kMaxStatsRequestBytes) return false;
  try {
    const JsonValue doc = JsonParser(text).parse();
    const JsonValue* req = doc.find("request");
    return req != nullptr && req->type == JsonValue::Type::kString &&
           req->string == "stats" &&
           doc.at("version").as_int("version") == kShardIoVersion;
  } catch (const std::exception&) {
    return false;
  }
}

std::string serialize_stats_response(const ServerStats& stats) {
  Json j;
  j.open_object();
  j.key("version");
  j.value(kShardIoVersion);
  j.key("kind");
  j.value("stats");
  j.key("uptime_s");
  j.value(stats.uptime_s);
  j.key("counters");
  j.open_object();
  for (const telemetry::CounterValue& c : stats.metrics.counters) {
    j.key(c.name);
    j.value(std::to_string(c.value));
  }
  j.close_object();
  j.key("gauges");
  j.open_object();
  for (const telemetry::GaugeValue& g : stats.metrics.gauges) {
    j.key(g.name);
    j.value(std::to_string(g.value));
  }
  j.close_object();
  j.key("histograms");
  j.open_object();
  for (const telemetry::HistogramValue& h : stats.metrics.histograms) {
    j.key(h.name);
    j.open_object();
    j.key("count");
    j.value(std::to_string(h.count));
    j.key("sum_s");
    j.value(h.sum_s);
    j.key("buckets");
    j.open_array();
    for (const std::uint64_t b : h.buckets) j.value(std::to_string(b));
    j.close_array();
    j.close_object();
  }
  j.close_object();
  j.close_object();
  return std::move(j).str();
}

ServerStats parse_stats_response(const std::string& text) {
  const JsonValue doc = JsonParser(text).parse();
  checked_version(doc);
  if (doc.at("kind").as_string("kind") != "stats")
    throw std::runtime_error("shard_io: response kind is not 'stats'");

  ServerStats stats;
  stats.uptime_s = doc.at("uptime_s").as_double("uptime_s");
  const JsonValue& counters = doc.at("counters");
  if (counters.type != JsonValue::Type::kObject)
    throw std::runtime_error("shard_io: counters is not an object");
  for (const auto& [name, v] : counters.object)
    stats.metrics.counters.push_back({name, v.as_u64("counter value")});
  const JsonValue& gauges = doc.at("gauges");
  if (gauges.type != JsonValue::Type::kObject)
    throw std::runtime_error("shard_io: gauges is not an object");
  for (const auto& [name, v] : gauges.object)
    stats.metrics.gauges.push_back({name, parse_i64_string(v, "gauge value")});
  const JsonValue& histograms = doc.at("histograms");
  if (histograms.type != JsonValue::Type::kObject)
    throw std::runtime_error("shard_io: histograms is not an object");
  for (const auto& [name, v] : histograms.object) {
    telemetry::HistogramValue hv;
    hv.name = name;
    hv.count = v.at("count").as_u64("histogram count");
    hv.sum_s = v.at("sum_s").as_double("sum_s");
    for (const JsonValue& b : v.at("buckets").as_array("buckets"))
      hv.buckets.push_back(b.as_u64("histogram bucket"));
    if (hv.buckets.size() !=
        static_cast<std::size_t>(telemetry::Histogram::kBucketCount))
      throw std::runtime_error("shard_io: histogram '" + name + "' carries " +
                               std::to_string(hv.buckets.size()) +
                               " buckets, expected " +
                               std::to_string(telemetry::Histogram::kBucketCount));
    stats.metrics.histograms.push_back(std::move(hv));
  }
  return stats;
}

std::string check_shard_result(const ShardResult& result,
                               const Shard& shard) {
  if (result.job != shard.job || result.index != shard.index)
    return "result identifies shard (job " + std::to_string(result.job) +
           ", shard " + std::to_string(result.index) + "), expected (job " +
           std::to_string(shard.job) + ", shard " +
           std::to_string(shard.index) + ")";
  const std::size_t expected = shard.end - shard.begin;
  if (result.results.size() != expected)
    return "result carries " + std::to_string(result.results.size()) +
           " records for " + std::to_string(expected) + " faults";
  return {};
}

}  // namespace cpsinw::engine
