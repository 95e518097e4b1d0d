//===- net/Tcp.cpp - TCP transport mesh -----------------------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "net/Tcp.h"

#include "net/Stream.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sstream>
#include <sys/socket.h>
#include <unistd.h>

using namespace dhpf;
using namespace dhpf::net;

namespace {

std::string errnoStr() { return std::strerror(errno); }

void setNoDelay(int Fd) {
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
}

/// Resolves `Host` to an IPv4 sockaddr with the given port. Throws on
/// resolution failure; resolution errors are configuration errors, never
/// retried.
sockaddr_in resolve(const HostPort &HP, const std::string &Who) {
  addrinfo Hints{};
  Hints.ai_family = AF_INET;
  Hints.ai_socktype = SOCK_STREAM;
  addrinfo *Res = nullptr;
  int E = ::getaddrinfo(HP.Host.c_str(), nullptr, &Hints, &Res);
  if (E != 0 || !Res)
    throw TransportError(Who + ": cannot resolve host \"" + HP.Host +
                         "\": " + ::gai_strerror(E));
  sockaddr_in Addr{};
  std::memcpy(&Addr, Res->ai_addr, sizeof(Addr));
  Addr.sin_port = htons(HP.Port);
  ::freeaddrinfo(Res);
  return Addr;
}

/// TCP wiring over the shared stream engine: same connect-lower /
/// accept-higher protocol as the Unix-domain mesh, with nonblocking
/// connect so the per-peer retry loop honours the global deadline even
/// when SYNs blackhole.
class TcpTransport final : public detail::StreamTransport {
public:
  TcpTransport(unsigned Rank, unsigned NP, const TcpOptions &Opts)
      : StreamTransport(Rank, NP) {
    if (NP <= 1)
      return;
    std::vector<HostPort> Spec = loadRankSpec(Opts.HostsPath);
    if (Spec.size() != NP)
      throw TransportError(where() + ": rank spec " + Opts.HostsPath +
                           " lists " + std::to_string(Spec.size()) +
                           " endpoints for a " + std::to_string(NP) +
                           "-rank mesh");
    int ConnectMs = Opts.ConnectTimeoutMs;
    if (ConnectMs <= 0)
      ConnectMs = envMs("DHPF_NET_CONNECT_MS", 5000);
    listenOn(Spec[Rank]);
    for (unsigned Q = 0; Q != Rank; ++Q)
      connectTo(Q, Spec[Q], ConnectMs);
    acceptPeers(ConnectMs);
    finishWiring();
  }

private:
  void listenOn(const HostPort &HP) {
    ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (ListenFd < 0)
      throw TransportError(where() + ": socket(): " + errnoStr());
    int One = 1;
    ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    // Accepted streams inherit TCP_NODELAY from the listener: without it
    // Nagle holds each small frame to a higher rank until the previous
    // one is acknowledged, and delayed ACKs turn that into tens of
    // milliseconds per exchange.
    setNoDelay(ListenFd);
    // Bind the wildcard address at the spec'd port: the host column names
    // how *peers* reach this rank, which need not be a local address
    // string (NAT, multiple interfaces).
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_ANY);
    Addr.sin_port = htons(HP.Port);
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
               sizeof(Addr)) != 0)
      throw TransportError(where() + ": bind(port " +
                           std::to_string(HP.Port) + "): " + errnoStr());
    if (::listen(ListenFd, static_cast<int>(size())) != 0)
      throw TransportError(where() + ": listen(): " + errnoStr());
  }

  /// One nonblocking connect attempt; true on success, false on a
  /// retryable refusal/timeout, throws on a hard error.
  bool tryConnect(unsigned Q, const sockaddr_in &Addr, int WaitMs) {
    int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      throw TransportError(where() + ": socket(): " + errnoStr());
    setNonBlocking(Fd);
    int R = ::connect(Fd, reinterpret_cast<const sockaddr *>(&Addr),
                      sizeof(Addr));
    if (R != 0 && errno != EINPROGRESS) {
      int E = errno;
      ::close(Fd);
      if (E == ECONNREFUSED || E == ETIMEDOUT || E == EHOSTUNREACH ||
          E == ENETUNREACH)
        return false;
      throw TransportError(where() + ": connect to rank " +
                           std::to_string(Q) + ": " + std::strerror(E));
    }
    if (R != 0) {
      pollfd P{Fd, POLLOUT, 0};
      if (::poll(&P, 1, WaitMs) <= 0) {
        ::close(Fd); // still in SYN — treat like a refused attempt
        return false;
      }
      int Err = 0;
      socklen_t Len = sizeof(Err);
      ::getsockopt(Fd, SOL_SOCKET, SO_ERROR, &Err, &Len);
      if (Err != 0) {
        ::close(Fd);
        if (Err == ECONNREFUSED || Err == ETIMEDOUT ||
            Err == EHOSTUNREACH || Err == ENETUNREACH)
          return false;
        throw TransportError(where() + ": connect to rank " +
                             std::to_string(Q) + ": " +
                             std::strerror(Err));
      }
    }
    // Connected: back to blocking for the hello (finishWiring() flips all
    // peers nonblocking once the mesh is wired).
    int Flags = ::fcntl(Fd, F_GETFL, 0);
    if (Flags >= 0)
      ::fcntl(Fd, F_SETFL, Flags & ~O_NONBLOCK);
    setNoDelay(Fd);
    adoptConnected(Q, Fd);
    return true;
  }

  void connectTo(unsigned Q, const HostPort &HP, int TimeoutMs) {
    sockaddr_in Addr = resolve(HP, where());
    int64_t Deadline = nowMs() + TimeoutMs;
    int BackoffUs = 1000;
    for (;;) {
      int64_t Left = Deadline - nowMs();
      if (Left <= 0)
        throw TransportError(
            where() + ": timed out connecting to rank " + std::to_string(Q) +
            " at " + HP.Host + ":" + std::to_string(HP.Port) + " after " +
            std::to_string(TimeoutMs) + " ms — rank never started "
            "listening");
      if (tryConnect(Q, Addr, static_cast<int>(Left < 250 ? Left : 250)))
        return;
      ::usleep(BackoffUs);
      BackoffUs = BackoffUs * 3 / 2;
      if (BackoffUs > 100000)
        BackoffUs = 100000;
    }
  }
};

} // namespace

std::vector<HostPort> net::parseRankSpec(const std::string &Text,
                                         const std::string &What) {
  std::vector<HostPort> Out;
  std::istringstream IS(Text);
  std::string Line;
  int LineNo = 0;
  auto Fail = [&](const std::string &Why) -> TransportError {
    return TransportError("rank spec " + What + " line " +
                          std::to_string(LineNo) + ": " + Why);
  };
  while (std::getline(IS, Line)) {
    ++LineNo;
    size_t Hash = Line.find('#');
    if (Hash != std::string::npos)
      Line.erase(Hash);
    size_t B = Line.find_first_not_of(" \t\r");
    if (B == std::string::npos)
      continue;
    size_t E = Line.find_last_not_of(" \t\r");
    Line = Line.substr(B, E - B + 1);
    size_t Colon = Line.rfind(':');
    if (Colon == std::string::npos || Colon == 0 ||
        Colon + 1 == Line.size())
      throw Fail("expected host:port, got \"" + Line + "\"");
    HostPort HP;
    HP.Host = Line.substr(0, Colon);
    const std::string PortS = Line.substr(Colon + 1);
    char *End = nullptr;
    long Port = std::strtol(PortS.c_str(), &End, 10);
    if (!End || *End != '\0' || Port <= 0 || Port > 65535)
      throw Fail("bad port \"" + PortS + "\"");
    HP.Port = static_cast<uint16_t>(Port);
    Out.push_back(std::move(HP));
  }
  if (Out.empty())
    throw TransportError("rank spec " + What + ": no endpoints");
  return Out;
}

std::vector<HostPort> net::loadRankSpec(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    throw TransportError("cannot read rank spec " + Path + ": " +
                         errnoStr());
  std::ostringstream SS;
  SS << In.rdbuf();
  return parseRankSpec(SS.str(), Path);
}

std::vector<HostPort> net::writeLocalRankSpec(const std::string &Path,
                                              unsigned NP) {
  std::vector<HostPort> Spec;
  std::vector<int> Held; // keep every reservation until all are distinct
  for (unsigned R = 0; R != NP; ++R) {
    int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      throw TransportError("writeLocalRankSpec: socket(): " + errnoStr());
    int One = 1;
    ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port = 0; // kernel-assigned
    socklen_t Len = sizeof(Addr);
    if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
            0 ||
        ::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len) != 0) {
      std::string E = errnoStr();
      ::close(Fd);
      for (int H : Held)
        ::close(H);
      throw TransportError("writeLocalRankSpec: cannot reserve port: " + E);
    }
    Held.push_back(Fd);
    Spec.push_back({"127.0.0.1", ntohs(Addr.sin_port)});
  }
  for (int H : Held)
    ::close(H);
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << "# dhpf rank spec: line r = rank r's host:port\n";
  for (const HostPort &HP : Spec)
    Out << HP.Host << ":" << HP.Port << "\n";
  Out.close();
  if (!Out)
    throw TransportError("writeLocalRankSpec: cannot write " + Path);
  return Spec;
}

std::unique_ptr<Transport> net::connectTcpMesh(unsigned Rank, unsigned NP,
                                               const TcpOptions &Opts) {
  return std::make_unique<TcpTransport>(Rank, NP, Opts);
}
