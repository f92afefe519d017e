// Loopback plumbing of the serving benchmark: a blocking HTTP/1.1
// keep-alive client (one connection per load thread) and a handle on a
// spawned kpef_serve process.

#ifndef SERVEBENCH_CLIENT_H_
#define SERVEBENCH_CLIENT_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace servebench {

struct HttpReply {
  /// HTTP status; 0 when the exchange failed at the transport level.
  int status = 0;
  std::string body;
  /// Why the exchange failed (empty on success).
  std::string error;
};

/// One keep-alive connection to 127.0.0.1:port. Reconnects lazily after
/// a transport failure. Not thread-safe: one connection per thread.
class HttpConnection {
 public:
  explicit HttpConnection(uint16_t port) : port_(port) {}
  ~HttpConnection();
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  /// Sends one request and blocks for its complete response.
  HttpReply Call(std::string_view method, std::string_view path,
                 std::string_view body, std::string_view request_id = {});

 private:
  bool Connect(std::string* error);
  void Close();

  uint16_t port_;
  int fd_ = -1;
  std::string inbuf_;
};

/// A kpef_serve child process. The child is killed if this process
/// dies first (PR_SET_PDEATHSIG), and Stop() always reaps it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `argv` (argv[0] = binary path) with stdout/stderr appended to
  /// `log_path`, waits for the "serving on" banner to learn the port,
  /// then polls /healthz until it answers 200. False (with `*error`) when
  /// the child exits or `timeout_s` passes first; the child is reaped.
  bool Start(const std::vector<std::string>& argv, const std::string& log_path,
             double timeout_s, std::string* error);

  /// SIGTERM, wait up to `timeout_s` for a graceful drain, then SIGKILL.
  /// Returns true when the child exited 0 on its own. Idempotent.
  bool Stop(double timeout_s = 20.0);

  uint16_t port() const { return port_; }

  /// Peak resident set (VmHWM) of the child, in MiB (0 when unreadable).
  double PeakRssMb() const;
  /// User + system CPU seconds the child has consumed so far.
  double CpuSeconds() const;

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

}  // namespace servebench

#endif  // SERVEBENCH_CLIENT_H_
