#include "serve/compile_client.h"

#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "serve/framing.h"

namespace mussti {

CompileClient::~CompileClient()
{
    close();
}

bool
CompileClient::connect(const std::string &host, int port)
{
    close();
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return false;

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        return false; // Numeric IPv4 only; no resolver dependency.
    }
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        return false;
    }
    setTcpNoDelay(fd); // Pipelined requests must not wait on ACKs.
    fd_ = fd;
    return true;
}

std::uint64_t
CompileClient::send(ServeRequest request)
{
    request.id = nextId_++;
    const std::uint64_t id = request.id;
    if (fd_ < 0 || !writeFrame(fd_, encodeRequest(request)))
        pending_[id] = connectionLost(id); // await(id) resolves it.
    return id;
}

ServeResponse
CompileClient::await(std::uint64_t id)
{
    auto it = pending_.find(id);
    if (it != pending_.end()) {
        ServeResponse response = std::move(it->second);
        pending_.erase(it);
        return response;
    }
    std::string payload;
    while (fd_ >= 0 && readFrame(fd_, payload)) {
        ServeResponse response;
        if (!decodeResponse(payload, response))
            break; // Framing is intact but the peer speaks garbage.
        if (response.id == id)
            return response;
        pending_[response.id] = std::move(response);
    }
    return connectionLost(id);
}

ServeResponse
CompileClient::stats(const std::string &client)
{
    ServeRequest request;
    request.type = ServeRequestType::Stats;
    request.client = client;
    return await(send(std::move(request)));
}

void
CompileClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

ServeResponse
CompileClient::connectionLost(std::uint64_t id) const
{
    ServeResponse response;
    response.id = id;
    response.ok = false;
    response.error.category = "Cancelled";
    response.error.code = "serve.connection-lost";
    response.error.message =
        "connection to the compile server was lost before the "
        "response arrived";
    return response;
}

} // namespace mussti
