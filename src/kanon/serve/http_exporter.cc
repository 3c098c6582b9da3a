#include "kanon/serve/http_exporter.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "kanon/serve/framing.h"
#include "kanon/telemetry/prometheus.h"

namespace kanon {
namespace serve {
namespace {

/// A scrape request fits in one line; anything bigger is not a scraper.
constexpr size_t kMaxRequestBytes = 4096;

void WriteResponse(int fd, const char* status_line,
                   const std::string& content_type,
                   const std::string& body) {
  std::string out;
  out.reserve(128 + body.size());
  out.append("HTTP/1.0 ");
  out.append(status_line);
  out.append("\r\nContent-Type: ");
  out.append(content_type);
  out.append("\r\nContent-Length: ");
  out.append(std::to_string(body.size()));
  out.append("\r\nConnection: close\r\n\r\n");
  out.append(body);
  size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n = ::send(fd, out.data() + sent, out.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return;
    sent += static_cast<size_t>(n);
  }
}

}  // namespace

HttpExporter::HttpExporter(HttpExporterOptions options)
    : options_(std::move(options)) {}

HttpExporter::~HttpExporter() { Stop(); }

Status HttpExporter::Start() {
  KANON_ASSIGN_OR_RETURN(TcpListener listener,
                         ListenTcp(options_.bind_address, options_.port, 16));
  listen_fd_ = listener.fd;
  port_ = listener.port;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void HttpExporter::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void HttpExporter::AcceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (ready == 0 || (pfd.revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // Served inline: a scrape is one short exchange, and serializing
    // scrapes keeps the exporter from ever amplifying an overload.
    timeval timeout;
    timeout.tv_sec = 2;
    timeout.tv_usec = 0;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ServeClient(fd);
    ::close(fd);
  }
}

void HttpExporter::ServeClient(int fd) {
  std::string request;
  char buf[1024];
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos &&
         request.find("\n\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    request.append(buf, static_cast<size_t>(n));
    // A bare "GET /path\r\n" (HTTP/0.9 style, what a plain netcat probe
    // sends) has no header block; one complete line is enough to route.
    if (request.find('\n') != std::string::npos) break;
  }
  const size_t line_end = request.find_first_of("\r\n");
  const std::string line =
      line_end == std::string::npos ? request : request.substr(0, line_end);
  if (line.compare(0, 4, "GET ") != 0) {
    WriteResponse(fd, "405 Method Not Allowed", "text/plain",
                  "only GET is served\n");
    return;
  }
  const size_t path_end = line.find(' ', 4);
  const std::string path = line.substr(
      4, path_end == std::string::npos ? std::string::npos : path_end - 4);

  if (path == "/healthz") {
    WriteResponse(fd, "200 OK", "text/plain", "ok\n");
    return;
  }
  if (path == "/metrics") {
    if (options_.before_scrape) options_.before_scrape();
    const std::string body = options_.metrics != nullptr
                                 ? WritePrometheusText(*options_.metrics)
                                 : std::string();
    WriteResponse(fd, "200 OK", "text/plain; version=0.0.4; charset=utf-8",
                  body);
    return;
  }
  if (path == "/flight" && options_.flight != nullptr) {
    std::string body;
    for (const std::string& event : options_.flight->Snapshot()) {
      body.append(event);
      body.push_back('\n');
    }
    WriteResponse(fd, "200 OK", "application/x-ndjson", body);
    return;
  }
  WriteResponse(fd, "404 Not Found", "text/plain", "not found\n");
}

}  // namespace serve
}  // namespace kanon
