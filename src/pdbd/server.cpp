#include "pdbd/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <mutex>
#include <ostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace pdt::pdbd {

namespace {

/// Writes all of `text`; MSG_NOSIGNAL turns a vanished client into an
/// EPIPE error instead of killing the daemon with SIGPIPE.
bool writeAll(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n =
        ::send(fd, text.data() + off, text.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::size_t serveConnection(int fd, Service& service) {
  std::size_t served = 0;
  std::string pending;  // bytes read but not yet terminated by '\n'
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return served;
    }
    if (n == 0) return served;  // client closed
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = pending.find('\n', start); nl != std::string::npos;
         nl = pending.find('\n', start)) {
      std::string_view line(pending.data() + start, nl - start);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      start = nl + 1;

      std::string response;
      Message request;
      std::string parse_error;
      if (line.empty()) {
        continue;  // blank keep-alive line
      } else if (!parseMessage(line, request, parse_error)) {
        response = errorLine("parse-error", parse_error);
      } else {
        response = service.handle(request);
      }
      ++served;
      response += '\n';
      if (!writeAll(fd, response)) return served;
    }
    pending.erase(0, start);
  }
}

int runServer(Service& service, const std::string& socket_path,
              std::ostream& log) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    log << "pdbd: socket: " << std::strerror(errno) << '\n';
    return 1;
  }

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof addr.sun_path) {
    log << "pdbd: socket path too long: '" << socket_path << "'\n";
    ::close(listener);
    return 1;
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  ::unlink(socket_path.c_str());  // a stale socket from a prior run
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listener, 64) != 0) {
    log << "pdbd: cannot listen on '" << socket_path
        << "': " << std::strerror(errno) << '\n';
    ::close(listener);
    return 1;
  }
  log << "pdbd: listening on '" << socket_path << "'\n";

  // Open client sockets. A client that stays connected without sending
  // would keep its thread in recv() forever; on shutdown every open
  // socket's read side is shut down instead, which ends that recv() with
  // EOF while replies to requests already read still go out. The set is
  // guarded so a socket is never shut down after its thread closed it.
  std::mutex open_mutex;
  std::set<int> open_fds;

  std::vector<std::thread> clients;
  while (!service.shutdownRequested()) {
    // Poll with a timeout so the shutdown flag (set inside a client
    // thread by the "shutdown" verb) is noticed without a final connect.
    pollfd pfd{listener, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
    const int client = ::accept(listener, nullptr, nullptr);
    if (client < 0) continue;
    {
      const std::lock_guard lock(open_mutex);
      open_fds.insert(client);
    }
    clients.emplace_back([client, &service, &open_mutex, &open_fds] {
      serveConnection(client, service);
      const std::lock_guard lock(open_mutex);
      open_fds.erase(client);
      ::close(client);
    });
  }

  // Drain: every accepted client gets its responses before we exit.
  {
    const std::lock_guard lock(open_mutex);
    for (const int fd : open_fds) ::shutdown(fd, SHUT_RD);
  }
  for (std::thread& t : clients) t.join();
  ::close(listener);
  ::unlink(socket_path.c_str());
  return 0;
}

}  // namespace pdt::pdbd
