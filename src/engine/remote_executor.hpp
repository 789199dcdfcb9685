// The distributed (kRemote) shard-executor backend: dispatches a
// campaign's universe slices across a configured list of
// cpsinw_shard_server endpoints over TCP, one net-framed shard_io v1
// request/response per shard.  It is the engine's only out-of-process
// transport; over net::LocalServerProcess loopback servers it is also the
// crash-isolation backend.
//
// Scheduling policy (none of it can affect the answer — slots are filled
// in canonical order upstream):
//   * bounded in-flight shards per endpoint (`remote_max_in_flight`),
//     least-loaded endpoint first;
//   * per-shard wall-clock timeout (`worker_timeout_s`) covering connect,
//     send, and receive of one attempt;
//   * retry-on-another-endpoint failover: a shard that fails on one
//     endpoint is retried on each remaining endpoint before its slot is
//     placeholder-filled;
//   * dead-endpoint quarantine: `remote_quarantine_failures` consecutive
//     failures retire an endpoint for the rest of the campaign, so a
//     downed host costs a few timeouts, not one per shard.
//
// Crash isolation: a shard that kills a server costs every shard in
// flight on that endpoint.  Later connections to it are refused, so the
// endpoint is quarantined and later shards fail over to the others; with
// no endpoint left they get placeholder records and the failure surfaces
// on CampaignReport::error.  Restarting the server is the operator's job.
#pragma once

#include <memory>
#include <string>

#include "engine/executor.hpp"
#include "engine/shard_io.hpp"

namespace cpsinw::engine {

/// Builds the kRemote backend (called by make_shard_executor).
/// @throws std::invalid_argument on an empty endpoint list, a malformed
///   `host:port` entry, a non-positive worker_timeout_s, or a
///   non-positive remote_max_in_flight / remote_quarantine_failures
[[nodiscard]] std::unique_ptr<ShardExecutor> make_remote_executor(
    const ExecutorSpec& spec, int threads);

/// Scrapes a live cpsinw_shard_server: one connection, one framed
/// `stats` request, one parsed snapshot.  `endpoint` is a "host:port"
/// string.  Returns true and fills `*out` on success; false with the
/// failure text in `*error` otherwise (never throws on I/O or protocol
/// problems).
[[nodiscard]] bool query_server_stats(const std::string& endpoint,
                                      double timeout_s, ServerStats* out,
                                      std::string* error);

}  // namespace cpsinw::engine
