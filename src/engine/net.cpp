#include "engine/net.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "engine/telemetry.hpp"

namespace cpsinw::engine::net {

namespace {

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Milliseconds until `deadline`, clamped to >= 0; -1 signals "already
/// expired" to the callers' poll loops.
int remaining_ms(Deadline deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  if (left.count() <= 0) return -1;
  return static_cast<int>(left.count());
}

/// Polls `fd` for `events` until the deadline.  Returns true when ready,
/// false with `*error` set on timeout or poll failure.
bool wait_ready(int fd, short events, Deadline deadline, std::string* error) {
  while (true) {
    const int budget = remaining_ms(deadline);
    if (budget < 0) {
      *error = "timed out";
      return false;
    }
    struct pollfd pfd = {fd, events, 0};
    const int rc = poll(&pfd, 1, budget);
    if (rc > 0) return true;
    if (rc == 0) {
      *error = "timed out";
      return false;
    }
    if (errno != EINTR) {
      *error = errno_text("poll");
      return false;
    }
  }
}

/// Writes all of [data, data+len) respecting the deadline.
bool write_all(int fd, const char* data, std::size_t len, Deadline deadline,
               std::string* error) {
  std::size_t done = 0;
  while (done < len) {
    if (!wait_ready(fd, POLLOUT, deadline, error)) return false;
    // MSG_NOSIGNAL: a peer that closed mid-frame must become an error
    // string, not a SIGPIPE that kills the campaign.
    const ssize_t n =
        send(fd, data + done, len - done, MSG_NOSIGNAL);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
    } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
               errno != EINTR) {
      *error = errno_text("send");
      return false;
    }
  }
  return true;
}

/// Reads exactly `len` bytes; a premature EOF is an error.
bool read_exact(int fd, std::string* out, std::size_t len, Deadline deadline,
                std::string* error) {
  std::size_t done = 0;
  out->clear();
  out->reserve(len);
  char buf[1 << 16];
  while (done < len) {
    if (!wait_ready(fd, POLLIN, deadline, error)) return false;
    const std::size_t want = std::min(len - done, sizeof buf);
    const ssize_t n = recv(fd, buf, want, 0);
    if (n > 0) {
      out->append(buf, static_cast<std::size_t>(n));
      done += static_cast<std::size_t>(n);
    } else if (n == 0) {
      *error = "connection closed mid-frame (" + std::to_string(done) +
               " of " + std::to_string(len) + " payload bytes)";
      return false;
    } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      *error = errno_text("recv");
      return false;
    }
  }
  return true;
}

void set_nonblock_cloexec(int fd) {
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  fcntl(fd, F_SETFD, fcntl(fd, F_GETFD, 0) | FD_CLOEXEC);
}

}  // namespace

Deadline deadline_after(double seconds) {
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(seconds));
}

Endpoint parse_endpoint(const std::string& text) {
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos || text.find(':', colon + 1) !=
                                        std::string::npos)
    throw std::invalid_argument("parse_endpoint: '" + text +
                                "' is not host:port");
  const std::string host = text.substr(0, colon);
  const std::string port = text.substr(colon + 1);
  if (host.empty())
    throw std::invalid_argument("parse_endpoint: '" + text +
                                "' has an empty host");
  if (port.empty() || port.size() > 5 ||
      port.find_first_not_of("0123456789") != std::string::npos)
    throw std::invalid_argument("parse_endpoint: '" + text +
                                "' has a malformed port");
  const long value = std::strtol(port.c_str(), nullptr, 10);
  if (value < 1 || value > 65535)
    throw std::invalid_argument("parse_endpoint: '" + text +
                                "' port out of range 1..65535");
  return {host, static_cast<std::uint16_t>(value)};
}

std::vector<Endpoint> parse_endpoints(const std::vector<std::string>& texts) {
  if (texts.empty())
    throw std::invalid_argument(
        "parse_endpoints: remote backend requires at least one endpoint");
  std::vector<Endpoint> out;
  out.reserve(texts.size());
  for (const std::string& t : texts) out.push_back(parse_endpoint(t));
  return out;
}

int connect_endpoint(const Endpoint& ep, Deadline deadline,
                     std::string* error) {
  const std::string where = ep.host + ":" + std::to_string(ep.port);

  struct addrinfo hints = {};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* info = nullptr;
  const std::string port = std::to_string(ep.port);
  const int gai = getaddrinfo(ep.host.c_str(), port.c_str(), &hints, &info);
  if (gai != 0 || info == nullptr) {
    *error = "resolve " + where + ": " + gai_strerror(gai);
    return -1;
  }

  const int fd = socket(info->ai_family,
                        info->ai_socktype | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        info->ai_protocol);
  if (fd < 0) {
    *error = errno_text("socket");
    freeaddrinfo(info);
    return -1;
  }

  const int rc = connect(fd, info->ai_addr, info->ai_addrlen);
  freeaddrinfo(info);
  if (rc != 0 && errno != EINPROGRESS) {
    *error = "connect to " + where + ": " + std::strerror(errno);
    close(fd);
    return -1;
  }
  if (rc != 0) {
    std::string wait_error;
    if (!wait_ready(fd, POLLOUT, deadline, &wait_error)) {
      *error = "connect to " + where + ": " + wait_error;
      close(fd);
      return -1;
    }
    int so_error = 0;
    socklen_t len = sizeof so_error;
    if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
        so_error != 0) {
      *error = "connect to " + where + ": " +
               std::strerror(so_error != 0 ? so_error : errno);
      close(fd);
      return -1;
    }
  }
  return fd;
}

namespace {

/// Process-wide frame accounting (client and server sides both route
/// every framed exchange through these two functions, so the global
/// registry's net.* counters cover the whole process).  Handles are
/// resolved once; updates are relaxed atomics.
struct NetMetrics {
  telemetry::Counter& frames_sent =
      telemetry::Registry::global().counter("net.frames_sent");
  telemetry::Counter& frames_received =
      telemetry::Registry::global().counter("net.frames_received");
  telemetry::Counter& bytes_sent =
      telemetry::Registry::global().counter("net.bytes_sent");
  telemetry::Counter& bytes_received =
      telemetry::Registry::global().counter("net.bytes_received");
};

NetMetrics& net_metrics() {
  static NetMetrics* m = new NetMetrics();  // leaked like the registry
  return *m;
}

}  // namespace

bool send_frame(int fd, const std::string& payload, Deadline deadline,
                std::string* error) {
  std::string frame = std::string(kFrameMagic) + " " +
                      std::to_string(payload.size()) + "\n";
  frame += payload;
  if (!write_all(fd, frame.data(), frame.size(), deadline, error))
    return false;
  net_metrics().frames_sent.add();
  net_metrics().bytes_sent.add(frame.size());
  return true;
}

bool recv_frame(int fd, std::string* payload, Deadline deadline,
                std::size_t max_bytes, std::string* error) {
  error->clear();
  payload->clear();

  // Header: read byte-by-byte to the newline so no payload (or following
  // frame) bytes are consumed early.  Headers are ~25 bytes; the ceiling
  // only bounds a peer streaming garbage with no newline in it.
  std::string header;
  constexpr std::size_t kMaxHeader = 64;
  while (true) {
    if (!wait_ready(fd, POLLIN, deadline, error)) return false;
    char c = 0;
    const ssize_t n = recv(fd, &c, 1, 0);
    if (n == 0) {
      if (!header.empty())
        *error = "connection closed mid-header";
      return false;  // empty error on a clean between-frames EOF
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      *error = errno_text("recv");
      return false;
    }
    if (c == '\n') break;
    header += c;
    if (header.size() > kMaxHeader) {
      *error = "frame header exceeds " + std::to_string(kMaxHeader) +
               " bytes (not a cpsinw-shard-io peer?)";
      return false;
    }
  }

  const std::string magic(kFrameMagic);
  if (header.size() < magic.size() + 2 ||
      header.compare(0, magic.size(), magic) != 0 ||
      header[magic.size()] != ' ') {
    *error = "bad frame header '" + header + "'";
    return false;
  }
  const std::string len_text = header.substr(magic.size() + 1);
  if (len_text.empty() ||
      len_text.find_first_not_of("0123456789") != std::string::npos) {
    *error = "bad frame length '" + len_text + "'";
    return false;
  }
  const unsigned long long declared =
      std::strtoull(len_text.c_str(), nullptr, 10);
  if (declared > max_bytes) {
    *error = "declared frame length " + len_text + " exceeds the " +
             std::to_string(max_bytes) + "-byte limit";
    return false;
  }
  if (!read_exact(fd, payload, static_cast<std::size_t>(declared), deadline,
                  error))
    return false;
  net_metrics().frames_received.add();
  net_metrics().bytes_received.add(header.size() + 1 + payload->size());
  return true;
}

int listen_on_loopback(std::uint16_t port, std::string* error) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = errno_text("socket");
    return -1;
  }
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof addr) != 0) {
    *error = errno_text("bind");
    close(fd);
    return -1;
  }
  if (listen(fd, 64) != 0) {
    *error = errno_text("listen");
    close(fd);
    return -1;
  }
  return fd;
}

std::uint16_t local_port(int listen_fd) {
  struct sockaddr_in addr = {};
  socklen_t len = sizeof addr;
  if (getsockname(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
                  &len) != 0)
    return 0;
  return ntohs(addr.sin_port);
}

int accept_connection(int listen_fd, std::string* error) {
  while (true) {
    const int fd = accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      set_nonblock_cloexec(fd);
      return fd;
    }
    // ECONNABORTED: the queued client RSTed before we got here — its
    // problem, not the listener's; keep accepting.
    if (errno != EINTR && errno != ECONNABORTED) {
      *error = errno_text("accept");
      return -1;
    }
  }
}

// -------------------------------------------------------- LocalServerProcess

LocalServerProcess::LocalServerProcess(std::string server_path,
                                       std::vector<std::string> extra_args) {
  int out_pipe[2];
  if (pipe2(out_pipe, O_CLOEXEC) != 0) {
    error_ = errno_text("pipe2");
    return;
  }

  std::vector<std::string> argv_store;
  argv_store.push_back(std::move(server_path));
  argv_store.push_back("--port");
  argv_store.push_back("0");
  for (std::string& a : extra_args) argv_store.push_back(std::move(a));
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid < 0) {
    error_ = errno_text("fork");
    close(out_pipe[0]);
    close(out_pipe[1]);
    return;
  }
  if (pid == 0) {
    dup2(out_pipe[1], STDOUT_FILENO);
    close(out_pipe[0]);
    close(out_pipe[1]);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(out_pipe[1]);
  pid_ = pid;

  // The server advertises "cpsinw_shard_server listening on <port>" as its
  // only stdout line; everything after the port parse goes to stderr, so
  // closing the read end below cannot SIGPIPE it.
  std::string banner;
  const Deadline deadline = deadline_after(10.0);
  bool saw_line = false;
  while (!saw_line) {
    std::string wait_error;
    if (!wait_ready(out_pipe[0], POLLIN, deadline, &wait_error)) {
      error_ = "waiting for server banner: " + wait_error;
      break;
    }
    char buf[256];
    const ssize_t n = read(out_pipe[0], buf, sizeof buf);
    if (n <= 0) {
      error_ = "server exited before advertising a port";
      break;
    }
    banner.append(buf, static_cast<std::size_t>(n));
    saw_line = banner.find('\n') != std::string::npos;
  }
  close(out_pipe[0]);
  if (!saw_line) {
    terminate();
    return;
  }

  const std::string needle = "listening on ";
  const std::size_t at = banner.find(needle);
  if (at == std::string::npos) {
    error_ = "unrecognized server banner: " + banner;
    terminate();
    return;
  }
  const long port = std::strtol(banner.c_str() + at + needle.size(),
                                nullptr, 10);
  if (port < 1 || port > 65535) {
    error_ = "server advertised a bad port: " + banner;
    terminate();
    return;
  }
  port_ = static_cast<std::uint16_t>(port);
}

LocalServerProcess::~LocalServerProcess() { terminate(); }

std::string LocalServerProcess::endpoint() const {
  return "127.0.0.1:" + std::to_string(port_);
}

void LocalServerProcess::terminate() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }
  port_ = 0;
}

}  // namespace cpsinw::engine::net
