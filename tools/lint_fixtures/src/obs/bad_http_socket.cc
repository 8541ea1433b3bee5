// Fixture: src/obs/http* has no socket-API exemption — the HTTP server
// runs on the shared event loop in src/obs/socket.cc, so these calls are
// flagged like anywhere else. Never compiled, only scanned.

void HttpServerSetup() {
  int fd = ::socket(2, 1, 0);      // expect-lint: raw-socket
  ::bind(fd, nullptr, 0);          // expect-lint: raw-socket
  ::listen(fd, 16);                // expect-lint: raw-socket
  ::accept(fd, nullptr, nullptr);  // expect-lint: raw-socket
  ::connect(fd, nullptr, 0);       // expect-lint: raw-socket
  ::poll(nullptr, 0, 250);         // expect-lint: raw-socket
}
