// Shard/result serialization for the remote (kRemote) execution backend.
// A campaign ships one shard of work to a `cpsinw_shard_server` as a
// versioned JSON document in one net frame (engine/net.hpp) and reads a
// versioned `ShardResult` JSON back in the reply frame.
//
// The circuit encoding preserves net and gate ids exactly (nets in id
// order tagged pi/const/plain, gates in id order) — unlike the .cpn
// exchange format, which renumbers both on read.  Identical ids are what
// make the server's records bit-identical to an in-process `run_shard`:
// every fault in the shipped universe slice references nets and gates by
// index.
#pragma once

#include <string>
#include <vector>

#include "engine/shard.hpp"
#include "engine/telemetry.hpp"
#include "logic/circuit.hpp"

namespace cpsinw::engine {

/// Protocol version stamped into (and checked on) both documents.
inline constexpr int kShardIoVersion = 1;

/// Everything a shard server needs to execute one shard.  The fault
/// slice is shipped re-based: `faults` holds exactly the universe slice
/// [shard.begin, shard.end), and the reconstructed shard spans
/// [0, faults.size()) while keeping the original job/index identity.
struct ShardWorkInput {
  logic::Circuit circuit;                ///< finalized, ids preserved
  std::vector<logic::Pattern> patterns;  ///< the job's full pattern set
  std::vector<CampaignFault> faults;     ///< the shard's universe slice
  Shard shard;                           ///< begin = 0, end = faults.size()
  ShardExecOptions options;
};

/// Serializes one shard of an in-process campaign for a shard server.
[[nodiscard]] std::string serialize_shard_input(
    const logic::Circuit& ckt, const std::vector<logic::Pattern>& patterns,
    const std::vector<CampaignFault>& universe, const Shard& shard,
    const ShardExecOptions& options);

/// Parses a shard work document (the server side of the exchange).
/// Unknown keys are ignored, so documents from older writers still parse.
/// @throws std::runtime_error on malformed JSON, an unknown version, a
///   document that fails circuit finalization, a transistor fault whose
///   gate id or transistor index does not fit the circuit or whose kind
///   is "none" (faults::transistor_fault_error), a `detection_mode` other
///   than "full" or "first_only", or a `fault_sample_fraction` outside
///   (0, 1] (the range run_campaign enforces)
[[nodiscard]] ShardWorkInput parse_shard_input(const std::string& text);

/// Serializes a shard result for the reply frame.
[[nodiscard]] std::string serialize_shard_result(const ShardResult& result);

/// Parses a reply frame's shard result (untrusted: run
/// check_shard_result before merging it).
/// @throws std::runtime_error on malformed JSON or an unknown version
[[nodiscard]] ShardResult parse_shard_result(const std::string& text);

/// Stable content fingerprint of a (circuit, pattern set) pair — the
/// memoization key for endpoint-side context caching: two shard work
/// documents share one compiled faults::EvalContext iff their fingerprints
/// are byte-equal.  Uses the exact v1 circuit/pattern encodings, so it
/// covers everything that affects evaluation (net kinds and ids, gate
/// kinds/pins/outputs, PO marks, every pattern value).
[[nodiscard]] std::string context_fingerprint(
    const logic::Circuit& ckt, const std::vector<logic::Pattern>& patterns);

/// 64-bit FNV-1a of a fingerprint (compact form for log lines; the cache
/// itself compares full fingerprints, never hashes).
[[nodiscard]] std::uint64_t fingerprint_hash(const std::string& fingerprint);

// ------------------------------------------------------------- stats RPC
// Besides shard work documents, a cpsinw_shard_server accepts a tiny v1
// `stats` request and answers with a live telemetry snapshot (uptime,
// shards served, context-cache hit counters, per-shard latency
// histograms) so operators and CI can scrape a running endpoint without
// restarting it.

/// Live server telemetry, as served by the `stats` request.
struct ServerStats {
  double uptime_s = 0.0;
  telemetry::RegistrySnapshot metrics;
};

/// The framed `stats` request payload ({"version":1,"request":"stats"}).
[[nodiscard]] std::string serialize_stats_request();

/// True iff `text` is a well-formed v1 stats request.  Cheap on shard
/// work documents: anything beyond a small size ceiling is rejected on
/// length alone, so the server classifies every incoming frame with at
/// most one tiny parse.
[[nodiscard]] bool is_stats_request(const std::string& text);

/// Serializes a stats response (counters/gauges as decimal strings — a
/// double cannot carry a full 64-bit value).
[[nodiscard]] std::string serialize_stats_response(const ServerStats& stats);

/// Parses a stats response.
/// @throws std::runtime_error on malformed JSON or an unknown version
[[nodiscard]] ServerStats parse_stats_response(const std::string& text);

/// Cross-checks a parsed result against the shard it should answer for:
/// identity (job, index), record count, each record's class against its
/// entry of the job's `universe`, and each `first_pattern` against
/// [-1, pattern_count).  Returns "" on a match or the mismatch
/// description.  The remote backend runs it on every reply before the
/// result can reach the merge: a confused or hostile server must never
/// fill the wrong slot, a short slot, another class's totals, or a
/// histogram bucket past the end.
[[nodiscard]] std::string check_shard_result(
    const ShardResult& result, const Shard& shard,
    const std::vector<CampaignFault>& universe, std::size_t pattern_count);

}  // namespace cpsinw::engine
