#ifndef KANON_SERVE_FRAMING_H_
#define KANON_SERVE_FRAMING_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "kanon/common/result.h"

namespace kanon {
namespace serve {

/// The kanond wire format (docs/serving.md): every message — request or
/// response — is one frame, a 4-byte big-endian unsigned payload length
/// followed by that many bytes of UTF-8 JSON. Length 0 is a valid frame
/// with an empty payload (the peer will reject it as unparsable JSON, but
/// the framing layer itself stays in sync).
///
/// The functions below speak the format over a blocking socket fd. They
/// retry short reads/writes and EINTR, never raise SIGPIPE (writes use
/// MSG_NOSIGNAL), and report every failure as a Status so a malformed or
/// hostile peer can at worst get its own connection dropped.

/// Largest payload either side accepts by default: large enough for a
/// multi-hundred-thousand-row CSV job, small enough that a hostile length
/// prefix cannot balloon memory.
inline constexpr size_t kDefaultMaxFrameBytes = 64u << 20;  // 64 MiB.

/// Reads one frame. Error taxonomy, which the server maps to behavior:
///   - NotFound("clean eof"): the peer closed between frames (normal end).
///   - IOError: truncated prefix or payload, or a socket error — the frame
///     stream is out of sync and the connection must be dropped.
///   - InvalidArgument: the prefix announces more than `max_payload` bytes;
///     the connection must be dropped (the payload cannot be skipped
///     safely), but a typed error reply is still possible first.
Result<std::string> ReadFrame(int fd, size_t max_payload);

/// Writes one frame (prefix + payload), looping until complete.
Status WriteFrame(int fd, const std::string& payload);

/// A bound, listening TCP socket and the port it got (the one asked for,
/// or the kernel's pick for port 0). The caller owns `fd`.
struct TcpListener {
  int fd = -1;
  int port = 0;
};

/// Opens an IPv4 listening socket on `address`:`port` with SO_REUSEADDR.
/// On any error the socket is closed and nothing is returned.
Result<TcpListener> ListenTcp(const std::string& address, int port,
                              int backlog);

}  // namespace serve
}  // namespace kanon

#endif  // KANON_SERVE_FRAMING_H_
