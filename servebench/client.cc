#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace servebench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Case-insensitive search for a header line "name: value" in `head`.
bool FindHeader(std::string_view head, std::string_view name,
                std::string* value) {
  size_t pos = head.find("\r\n");
  while (pos != std::string_view::npos && pos + 2 < head.size()) {
    const size_t start = pos + 2;
    const size_t end = head.find("\r\n", start);
    const std::string_view line = head.substr(
        start, end == std::string_view::npos ? head.size() - start
                                             : end - start);
    const size_t colon = line.find(':');
    if (colon == name.size() &&
        strncasecmp(line.data(), name.data(), name.size()) == 0) {
      size_t v = colon + 1;
      while (v < line.size() && line[v] == ' ') ++v;
      *value = std::string(line.substr(v));
      return true;
    }
    pos = end;
  }
  return false;
}

}  // namespace

HttpConnection::~HttpConnection() { Close(); }

void HttpConnection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  inbuf_.clear();
}

bool HttpConnection::Connect(std::string* error) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval timeout{};
  timeout.tv_sec = 30;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    Close();
    return false;
  }
  return true;
}

HttpReply HttpConnection::Call(std::string_view method, std::string_view path,
                               std::string_view body,
                               std::string_view request_id) {
  HttpReply reply;
  if (fd_ < 0 && !Connect(&reply.error)) return reply;

  std::string request;
  request.reserve(160 + body.size());
  request.append(method).append(" ").append(path).append(
      " HTTP/1.1\r\nHost: 127.0.0.1\r\n");
  if (!body.empty()) request.append("Content-Type: application/json\r\n");
  if (!request_id.empty()) {
    request.append("X-Request-Id: ").append(request_id).append("\r\n");
  }
  request.append("Content-Length: ")
      .append(std::to_string(body.size()))
      .append("\r\n\r\n")
      .append(body);
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t w = ::send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) {
      reply.error = std::string("send: ") + std::strerror(errno);
      Close();
      return reply;
    }
    sent += static_cast<size_t>(w);
  }

  size_t header_end = std::string::npos;
  size_t content_length = 0;
  char buf[16384];
  while (true) {
    if (header_end == std::string::npos) {
      header_end = inbuf_.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        const std::string_view head(inbuf_.data(), header_end);
        if (head.size() < 12 || head.substr(0, 5) != "HTTP/") {
          reply.error = "malformed status line";
          Close();
          return reply;
        }
        reply.status = std::atoi(std::string(head.substr(9, 3)).c_str());
        std::string length;
        if (FindHeader(head, "content-length", &length)) {
          content_length = std::strtoull(length.c_str(), nullptr, 10);
        }
      }
    }
    if (header_end != std::string::npos &&
        inbuf_.size() >= header_end + 4 + content_length) {
      reply.body = inbuf_.substr(header_end + 4, content_length);
      inbuf_.erase(0, header_end + 4 + content_length);
      return reply;
    }
    const ssize_t r = ::recv(fd_, buf, sizeof(buf), 0);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) {
      reply.status = 0;
      reply.error = r == 0 ? "connection closed"
                           : std::string("recv: ") + std::strerror(errno);
      Close();
      return reply;
    }
    inbuf_.append(buf, static_cast<size_t>(r));
  }
}

bool ServerProcess::Start(const std::vector<std::string>& argv,
                          const std::string& log_path, double timeout_s,
                          std::string* error) {
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    *error = "cannot open " + log_path;
    return false;
  }
  std::vector<char*> cargs;
  for (const std::string& a : argv) {
    cargs.push_back(const_cast<char*>(a.c_str()));
  }
  cargs.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    *error = std::string("fork: ") + std::strerror(errno);
    return false;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(cargs[0], cargs.data());
    ::_exit(127);
  }
  ::close(log_fd);
  pid_ = pid;

  const Clock::time_point start = Clock::now();
  const std::string banner = "serving on http://127.0.0.1:";
  while (port_ == 0) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *error = "kpef_serve exited during startup (see " + log_path + ")";
      return false;
    }
    std::ifstream in(log_path);
    std::stringstream text;
    text << in.rdbuf();
    const std::string log = text.str();
    const size_t at = log.find(banner);
    if (at != std::string::npos) {
      port_ = static_cast<uint16_t>(
          std::atoi(log.c_str() + at + banner.size()));
      break;
    }
    if (SecondsSince(start) > timeout_s) {
      *error = "kpef_serve did not print its banner in time";
      Stop();
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  while (true) {
    HttpConnection probe(port_);
    if (probe.Call("GET", "/healthz", "").status == 200) return true;
    if (SecondsSince(start) > timeout_s) {
      *error = "kpef_serve /healthz did not answer 200 in time";
      Stop();
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

bool ServerProcess::Stop(double timeout_s) {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  const Clock::time_point start = Clock::now();
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (SecondsSince(start) > timeout_s) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pid_ = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double ServerProcess::CpuSeconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

}  // namespace servebench
