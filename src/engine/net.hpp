// TCP plumbing for the distributed (kRemote) execution backend: endpoint
// parsing, deadline-bounded connect, and the length-prefixed frame that
// carries one shard_io v1 JSON document per direction.
//
// Framing: a TCP connection that serves several shards needs explicit
// document boundaries.  A frame is one ASCII header line
// `cpsinw-shard-io/1 <decimal-len>\n` followed by exactly <len> payload
// bytes.  The header carries the protocol version (checked on receive, in
// addition to the version field inside the JSON) and lets a receiver
// reject an oversized declaration before reading a single payload byte —
// remote peers are untrusted by design.
//
// Every blocking operation takes an absolute deadline and every failure is
// reported as an error string, never UB or an exception: the remote
// executor degrades failures to CampaignReport::error, so the transport
// must always hand it a message instead of tearing the process down.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include <sys/types.h>

namespace cpsinw::engine::net {

/// Absolute wall-clock budget for one blocking operation.
using Deadline = std::chrono::steady_clock::time_point;

/// Deadline `seconds` from now.
[[nodiscard]] Deadline deadline_after(double seconds);

/// Frame header magic; the trailing integer is the shard_io protocol
/// version (net frames exist only to carry shard_io documents).
inline constexpr const char* kFrameMagic = "cpsinw-shard-io/1";

/// Hard ceiling on a declared frame length.  A campaign shard document
/// (circuit + patterns + universe slice) for the paper's benchmark roster
/// is a few hundred KiB; 64 MiB leaves headroom for production-scale
/// circuits while keeping a lying peer from making us allocate the moon.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 26;

/// A parsed `host:port` shard-server address.
struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};

/// Parses `host:port` (numeric IPv4 or hostname, port 1..65535).
/// @throws std::invalid_argument naming the malformed text
[[nodiscard]] Endpoint parse_endpoint(const std::string& text);

/// Parses every entry; rejects an empty list.
/// @throws std::invalid_argument
[[nodiscard]] std::vector<Endpoint> parse_endpoints(
    const std::vector<std::string>& texts);

/// Connects to `ep` (non-blocking connect + poll against `deadline`).
/// Returns the connected fd (O_NONBLOCK, CLOEXEC) or -1 with `*error` set.
[[nodiscard]] int connect_endpoint(const Endpoint& ep, Deadline deadline,
                                   std::string* error);

/// Writes one frame (header + payload).  Returns false with `*error` set
/// on I/O failure or a missed deadline.
[[nodiscard]] bool send_frame(int fd, const std::string& payload,
                              Deadline deadline, std::string* error);

/// Reads one frame into `*payload`.  Returns false with `*error` set on
/// malformed/oversized headers, I/O failure, a missed deadline, or a
/// truncated payload.  A clean EOF before the first header byte also
/// returns false but leaves `*error` empty — the idle-connection close a
/// serving loop treats as "client done".
[[nodiscard]] bool recv_frame(int fd, std::string* payload, Deadline deadline,
                              std::size_t max_bytes, std::string* error);

/// Opens a loopback listener (SO_REUSEADDR; port 0 lets the kernel pick).
/// Returns the listening fd or -1 with `*error` set.
[[nodiscard]] int listen_on_loopback(std::uint16_t port, std::string* error);

/// The port a listening fd is bound to (0 on failure).
[[nodiscard]] std::uint16_t local_port(int listen_fd);

/// Blocking accept; returns the connection fd or -1 with `*error` set.
[[nodiscard]] int accept_connection(int listen_fd, std::string* error);

/// A cpsinw_shard_server child on an ephemeral loopback port: fork/exec
/// with `--port 0`, parse the advertised port from its stdout, kill on
/// destruction.  Lets tests and benches stand up real remote endpoints
/// without coordinating port numbers.
class LocalServerProcess {
 public:
  /// @param server_path path to the cpsinw_shard_server binary
  /// @param extra_args appended to argv (failure-injection flags)
  explicit LocalServerProcess(std::string server_path,
                              std::vector<std::string> extra_args = {});
  ~LocalServerProcess();

  LocalServerProcess(const LocalServerProcess&) = delete;
  LocalServerProcess& operator=(const LocalServerProcess&) = delete;

  /// False when spawn or port discovery failed; `error()` says why.
  [[nodiscard]] bool ok() const { return port_ != 0; }
  [[nodiscard]] const std::string& error() const { return error_; }

  /// "127.0.0.1:<port>" — the spec string a campaign consumes.
  [[nodiscard]] std::string endpoint() const;
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// SIGKILL + reap now (the destructor does the same).
  void terminate();

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  std::string error_;
};

}  // namespace cpsinw::engine::net
