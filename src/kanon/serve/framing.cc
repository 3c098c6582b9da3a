#include "kanon/serve/framing.h"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "kanon/common/failpoint.h"

namespace kanon {
namespace serve {
namespace {

/// Reads exactly `len` bytes. Returns the byte count actually read: `len`
/// on success, less on EOF, or an IOError Status on a socket error.
Result<size_t> ReadFull(int fd, char* buffer, size_t len) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::read(fd, buffer + done, len - done);
    if (n == 0) return done;  // EOF.
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("read: ") + std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return done;
}

}  // namespace

Result<std::string> ReadFrame(int fd, size_t max_payload) {
  KANON_FAILPOINT("serve.read_frame");
  char prefix[4];
  KANON_ASSIGN_OR_RETURN(size_t got, ReadFull(fd, prefix, sizeof(prefix)));
  if (got == 0) return Status::NotFound("clean eof");
  if (got < sizeof(prefix)) {
    return Status::IOError("truncated length prefix (" + std::to_string(got) +
                           " of 4 bytes)");
  }
  const uint32_t length = (static_cast<uint32_t>(
                               static_cast<unsigned char>(prefix[0]))
                           << 24) |
                          (static_cast<uint32_t>(
                               static_cast<unsigned char>(prefix[1]))
                           << 16) |
                          (static_cast<uint32_t>(
                               static_cast<unsigned char>(prefix[2]))
                           << 8) |
                          static_cast<uint32_t>(
                              static_cast<unsigned char>(prefix[3]));
  if (length > max_payload) {
    return Status::InvalidArgument(
        "oversized frame: " + std::to_string(length) + " > " +
        std::to_string(max_payload) + " bytes");
  }
  std::string payload(length, '\0');
  if (length > 0) {
    KANON_ASSIGN_OR_RETURN(size_t body,
                           ReadFull(fd, payload.data(), payload.size()));
    if (body < payload.size()) {
      return Status::IOError("mid-frame disconnect (" + std::to_string(body) +
                             " of " + std::to_string(length) + " bytes)");
    }
  }
  return payload;
}

Status WriteFrame(int fd, const std::string& payload) {
  KANON_FAILPOINT("serve.write_frame");
  if (payload.size() > UINT32_MAX) {
    return Status::InvalidArgument("frame payload too large to encode");
  }
  const uint32_t length = static_cast<uint32_t>(payload.size());
  std::string wire;
  wire.reserve(4 + payload.size());
  wire.push_back(static_cast<char>((length >> 24) & 0xFF));
  wire.push_back(static_cast<char>((length >> 16) & 0xFF));
  wire.push_back(static_cast<char>((length >> 8) & 0xFF));
  wire.push_back(static_cast<char>(length & 0xFF));
  wire.append(payload);
  size_t done = 0;
  while (done < wire.size()) {
    const ssize_t n =
        ::send(fd, wire.data() + done, wire.size() - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send: ") + std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<TcpListener> ListenTcp(const std::string& address, int port,
                              int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  auto fail = [fd](Status status) {
    ::close(fd);
    return status;
  };
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    return fail(Status::InvalidArgument("bad bind address '" + address + "'"));
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return fail(Status::IOError(std::string("bind: ") + std::strerror(errno)));
  }
  if (::listen(fd, backlog) != 0) {
    return fail(
        Status::IOError(std::string("listen: ") + std::strerror(errno)));
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    return fail(
        Status::IOError(std::string("getsockname: ") + std::strerror(errno)));
  }
  return TcpListener{fd, ntohs(bound.sin_port)};
}

}  // namespace serve
}  // namespace kanon
