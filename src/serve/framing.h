/**
 * @file
 * Length-prefixed framing over a stream socket.
 *
 * Every message on the compile-server wire is one frame: a 4-byte
 * big-endian payload length followed by that many bytes of UTF-8 JSON
 * (src/serve/protocol.h defines the payloads). Framing and payload are
 * deliberately separate layers — the framing never inspects the JSON,
 * and the protocol never sees partial reads.
 *
 * Both directions are loop-until-complete with EINTR retry and
 * MSG_NOSIGNAL (a peer hanging up mid-frame is a false return, never a
 * SIGPIPE kill). A frame is written with one sendmsg of the prefix and
 * payload, resumed after a short write, and both ends of a daemon
 * connection set TCP_NODELAY: together they keep Nagle's algorithm off
 * the request path (see writeFrame). An oversized length prefix is
 * rejected before any allocation.
 */
#ifndef MUSSTI_SERVE_FRAMING_H
#define MUSSTI_SERVE_FRAMING_H

#include <cstddef>
#include <string>

namespace mussti {

/** Frames above this are a protocol violation (or garbage prefix). */
constexpr std::size_t kMaxFrameBytes = 64u << 20;

/**
 * Turn off Nagle's algorithm on a TCP socket so every frame leaves as
 * soon as it is written. Called by both ends of a daemon connection.
 * False if the option cannot be set (e.g. not a TCP socket); the
 * connection still works, only with Nagle's delays.
 */
bool setTcpNoDelay(int fd);

/**
 * Write one frame with a single sendmsg (looped only on a short write).
 * False on any socket error (peer gone, fd closed) or a payload over
 * kMaxFrameBytes, in which case nothing is written; never throws, never
 * raises SIGPIPE.
 */
bool writeFrame(int fd, const std::string &payload);

/**
 * Read one frame into `payload`. False on clean EOF at a frame
 * boundary, a truncated frame, an oversized length prefix, or a socket
 * error — the caller treats all of them as end-of-session.
 */
bool readFrame(int fd, std::string &payload,
               std::size_t max_bytes = kMaxFrameBytes);

} // namespace mussti

#endif // MUSSTI_SERVE_FRAMING_H
