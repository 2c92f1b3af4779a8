#include "serve/framing.h"

#include <cerrno>
#include <cstdint>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/uio.h>

namespace mussti {

namespace {

/**
 * recv exactly `len` bytes. 1 = got them, 0 = clean EOF before the
 * first byte, -1 = error or mid-buffer EOF.
 */
int
recvAll(int fd, char *buffer, std::size_t len)
{
    std::size_t got = 0;
    while (got < len) {
        const ssize_t n = ::recv(fd, buffer + got, len - got, 0);
        if (n > 0) {
            got += static_cast<std::size_t>(n);
            continue;
        }
        if (n == 0)
            return got == 0 ? 0 : -1;
        if (errno == EINTR)
            continue;
        return -1;
    }
    return 1;
}

} // namespace

bool
setTcpNoDelay(int fd)
{
    const int one = 1;
    return ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one) == 0;
}

bool
writeFrame(int fd, const std::string &payload)
{
    if (payload.size() > kMaxFrameBytes)
        return false;
    const auto len = static_cast<std::uint32_t>(payload.size());
    char prefix[4] = {
        static_cast<char>((len >> 24) & 0xff),
        static_cast<char>((len >> 16) & 0xff),
        static_cast<char>((len >> 8) & 0xff),
        static_cast<char>(len & 0xff),
    };
    // The latency contract: one syscall per frame, TCP_NODELAY on both
    // ends. Each closes a different Nagle stall:
    // - One sendmsg for prefix and payload. With two sends the payload
    //   queues behind the unacknowledged 4-byte prefix, and a socket with
    //   Nagle on holds it until the peer's delayed ACK (~40 ms on Linux).
    //   This is the only fix that reaches a client which never sets
    //   TCP_NODELAY itself.
    // - TCP_NODELAY (setTcpNoDelay, set by the server on every accepted
    //   socket and by CompileClient). Under Nagle even a one-write frame
    //   waits while an earlier frame is unacknowledged, which streamed and
    //   pipelined responses hit constantly.
    iovec iov[2] = {
        {prefix, sizeof prefix},
        {const_cast<char *>(payload.data()), payload.size()},
    };
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = 2;
    while (msg.msg_iovlen > 0) {
        const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return false;
        }
        // Short write: drop the iovecs sent in full, trim the partial one.
        auto sent = static_cast<std::size_t>(n);
        while (msg.msg_iovlen > 0 && sent >= msg.msg_iov->iov_len) {
            sent -= msg.msg_iov->iov_len;
            ++msg.msg_iov;
            --msg.msg_iovlen;
        }
        if (msg.msg_iovlen > 0) {
            msg.msg_iov->iov_base =
                static_cast<char *>(msg.msg_iov->iov_base) + sent;
            msg.msg_iov->iov_len -= sent;
        }
    }
    return true;
}

bool
readFrame(int fd, std::string &payload, std::size_t max_bytes)
{
    char prefix[4];
    if (recvAll(fd, prefix, sizeof prefix) != 1)
        return false;
    const std::uint32_t len =
        (static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[0]))
         << 24) |
        (static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[1]))
         << 16) |
        (static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[2]))
         << 8) |
        static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[3]));
    if (len > max_bytes)
        return false; // Garbage prefix or hostile peer; don't allocate.
    payload.resize(len);
    return len == 0 || recvAll(fd, payload.data(), len) == 1;
}

} // namespace mussti
