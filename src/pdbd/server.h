// The pdbd transport: a Unix-domain stream socket speaking the
// line-delimited protocol from proto.h.
//
// serveConnection() is the whole per-client loop and takes a plain file
// descriptor, so tests drive it over a socketpair without a listener.
// runServer() owns the listening socket: it accepts until the service's
// shutdown flag is raised, hands each client to its own thread, and
// joins them all before returning (drain semantics — every request a
// client thread has read gets its response before the process exits; the
// read side of every still-open connection is shut down, so an idle
// client sees EOF instead of holding the daemon open).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "pdbd/service.h"

namespace pdt::pdbd {

/// Serves one client on `fd` until EOF or a read/write error. Returns
/// the number of requests answered. Does not close `fd`.
std::size_t serveConnection(int fd, Service& service);

/// Binds `socket_path`, announces readiness on `log`, and serves until
/// the service's shutdown flag is raised. Returns 0 on a clean drain,
/// 1 if the socket could not be set up (with the reason on `log`).
int runServer(Service& service, const std::string& socket_path,
              std::ostream& log);

}  // namespace pdt::pdbd
