// Fixture: src/net/ has no socket-API exemption — the RPC server runs
// on the shared event loop in src/obs/socket.cc, so these calls are
// flagged. net/ may spawn its own threads (the dispatcher pool), and
// including serve/ is a downward edge (net layer 7 -> serve layer 6), so
// the raw-thread and layering rules stay quiet. Never compiled, only
// scanned.

#include "serve/request.h"

void RpcServerSetup() {
  int fd = ::socket(2, 1, 0);      // expect-lint: raw-socket
  ::bind(fd, nullptr, 0);          // expect-lint: raw-socket
  ::listen(fd, 16);                // expect-lint: raw-socket
  ::accept(fd, nullptr, nullptr);  // expect-lint: raw-socket
  ::connect(fd, nullptr, 0);       // expect-lint: raw-socket
  int wake[2];
  ::pipe(wake);                    // expect-lint: raw-socket
}

void BlessedDispatcherPool() {
  std::thread loop([] {});
  loop.join();
}
