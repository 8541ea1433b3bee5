// Fixture: raw socket-API calls outside src/obs/socket.cc must be
// flagged — all networking funnels through the one audited socket layer
// (obs::EventLoop and its client helpers). Never compiled, only scanned.

void OpenRawSocket() {
  int fd = socket(2, 1, 0);  // expect-lint: raw-socket
  bind(fd, nullptr, 0);      // expect-lint: raw-socket
  listen(fd, 16);            // expect-lint: raw-socket
  accept(fd, nullptr, nullptr);  // expect-lint: raw-socket
}

void OpenGlobalQualified() {
  int fd = ::socket(2, 1, 0);  // expect-lint: raw-socket
  ::connect(fd, nullptr, 0);   // expect-lint: raw-socket
  ::poll(nullptr, 0, 250);     // expect-lint: raw-socket
  int wake[2];
  pipe(wake);                  // expect-lint: raw-socket
}

void Blessed() {
  int fd = socket(2, 1, 0);  // lint:allow(raw-socket)
  (void)fd;
}

// None of these are the socket API; the *uses* below must NOT be
// flagged. (A member-function *declaration* is indistinguishable from a
// call to the scanner, so declaring members with these names takes an
// explicit lint:allow.)
struct Conn {
  void bind(int);     // lint:allow(raw-socket)
  void connect(int);  // lint:allow(raw-socket)
  void poll(int);     // lint:allow(raw-socket)
};
void NotTheSocketApi(Conn& c, Conn* p) {
  c.bind(1);                       // member call
  p->connect(2);                   // member call through a pointer
  p->poll(4);                      // member call through a pointer
  auto f = std::bind(&Conn::bind, &c, 3);  // other-namespace qualification
  (void)f;
  int bindings = 0;                // identifier merely containing the name
  (void)bindings;
}
