// Fixture: src/obs/socket.cc is the one blessed home of the socket API
// (the shared event loop and client helpers) — none of these calls may
// be flagged. Never compiled, only scanned.

void BlessedSocketLayer() {
  int fd = ::socket(2, 1, 0);
  ::bind(fd, nullptr, 0);
  ::listen(fd, 16);
  ::accept(fd, nullptr, nullptr);
  ::connect(fd, nullptr, 0);
  ::poll(nullptr, 0, 250);
  int wake[2];
  ::pipe(wake);
}
