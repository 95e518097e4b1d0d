//===- rt/Daemon.cpp - The dhpfd compile/run daemon ----------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "rt/Daemon.h"

#include "obs/Metrics.h"
#include "pset/Intern.h"
#include "spmd/Serialize.h"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <iterator>
#include <sstream>
#include <stdexcept>

using namespace dhpf;
using namespace dhpf::rt;

//===----------------------------------------------------------------------===//
// Wire payload codec: `kv <key> <value>` lines for scalars, `blob <key>
// <len>` + raw bytes for newline-containing texts. Order-independent.
//===----------------------------------------------------------------------===//

namespace {

class WireWriter {
public:
  void kv(const std::string &K, const std::string &V) {
    Buf += "kv " + K + " " + V + "\n";
  }
  void kvU(const std::string &K, uint64_t V) { kv(K, std::to_string(V)); }
  void kvHex(const std::string &K, uint64_t V) {
    char B[32];
    std::snprintf(B, sizeof(B), "%llx", static_cast<unsigned long long>(V));
    kv(K, B);
  }
  void kvF(const std::string &K, double V) {
    char B[48];
    std::snprintf(B, sizeof(B), "%.17g", V);
    kv(K, B);
  }
  void blob(const std::string &K, const std::string &B) {
    Buf += "blob " + K + " " + std::to_string(B.size()) + "\n";
    Buf += B;
    Buf += "\n";
  }
  const std::string &str() const { return Buf; }

private:
  std::string Buf;
};

class WireReader {
public:
  bool parse(const std::string &P, std::string &Err) {
    size_t I = 0;
    while (I < P.size()) {
      size_t Eol = P.find('\n', I);
      if (Eol == std::string::npos) {
        Err = "unterminated wire line";
        return false;
      }
      std::istringstream Line(P.substr(I, Eol - I));
      std::string Kind, Key;
      if (!(Line >> Kind >> Key)) {
        Err = "malformed wire line";
        return false;
      }
      if (Kind == "kv") {
        std::string V;
        std::getline(Line, V);
        if (!V.empty() && V[0] == ' ')
          V.erase(0, 1);
        Fields[Key] = V;
        I = Eol + 1;
      } else if (Kind == "blob") {
        size_t Len = 0;
        if (!(Line >> Len)) {
          Err = "malformed blob length for '" + Key + "'";
          return false;
        }
        I = Eol + 1;
        if (I + Len + 1 > P.size() || P[I + Len] != '\n') {
          Err = "truncated blob '" + Key + "'";
          return false;
        }
        Fields[Key] = P.substr(I, Len);
        I += Len + 1;
      } else {
        Err = "unknown wire record '" + Kind + "'";
        return false;
      }
    }
    return true;
  }

  bool has(const std::string &K) const { return Fields.count(K) != 0; }
  std::string get(const std::string &K, const std::string &Def = "") const {
    auto It = Fields.find(K);
    return It == Fields.end() ? Def : It->second;
  }
  uint64_t getU(const std::string &K, uint64_t Def = 0) const {
    auto It = Fields.find(K);
    return It == Fields.end() ? Def : std::strtoull(It->second.c_str(),
                                                    nullptr, 10);
  }
  uint64_t getHex(const std::string &K) const {
    auto It = Fields.find(K);
    return It == Fields.end() ? 0
                              : std::strtoull(It->second.c_str(), nullptr, 16);
  }
  double getF(const std::string &K) const {
    auto It = Fields.find(K);
    return It == Fields.end() ? 0.0 : std::strtod(It->second.c_str(), nullptr);
  }

private:
  std::map<std::string, std::string> Fields;
};

/// Flags travel one per line in a blob; a flag never holds a newline.
std::string unlines(const std::vector<std::string> &Args) {
  std::string Text;
  for (const std::string &A : Args)
    Text += A + "\n";
  return Text;
}

std::vector<std::string> lines(const std::string &Text) {
  std::vector<std::string> Args;
  std::istringstream In(Text);
  for (std::string A; std::getline(In, A);)
    if (!A.empty())
      Args.push_back(A);
  return Args;
}

const char *servedName(core::Served S) {
  switch (S) {
  case core::Served::Fresh:
    return "fresh";
  case core::Served::InFlight:
    return "inflight";
  case core::Served::Artifact:
    return "artifact";
  }
  return "fresh";
}

} // namespace

//===----------------------------------------------------------------------===//
// Daemon
//===----------------------------------------------------------------------===//

Daemon::~Daemon() { stop(); }

void Daemon::start() {
  if (!Opts.CacheFile.empty()) {
    std::string Err;
    if (service().loadOpCache(Opts.CacheFile, Err)) {
      if (!Opts.Quiet)
        std::cerr << "dhpfd: warm-started "
                  << service().opCache().entryCount()
                  << " set-operation cache entries from " << Opts.CacheFile
                  << "\n";
    } else if (!Opts.Quiet) {
      // A missing file on first launch is the normal cold start.
      std::cerr << "dhpfd: cold start (" << Err << ")\n";
    }
  }
  Server.start(Opts.SocketPath,
               [this](unsigned Id, uint64_t Tag, const std::string &Payload,
                      net::MsgStream &Stream) {
                 return handle(Id, Tag, Payload, Stream);
               });
  if (!Opts.Quiet)
    std::cerr << "dhpfd: serving on " << Opts.SocketPath << "\n";
}

void Daemon::stop() {
  {
    std::lock_guard<std::mutex> Lock(StopM);
    if (Stopped)
      return;
    Stopped = true;
  }
  Server.stop();
  if (!Opts.CacheFile.empty()) {
    std::string Err;
    if (service().saveOpCache(Opts.CacheFile, Err)) {
      if (!Opts.Quiet)
        std::cerr << "dhpfd: saved " << service().opCache().entryCount()
                  << " set-operation cache entries to " << Opts.CacheFile
                  << "\n";
    } else {
      std::cerr << "dhpfd: cache save failed: " << Err << "\n";
    }
  }
}

void Daemon::publishServerMetrics() {
  if (!obs::compiledIn())
    return;
  obs::MetricsRegistry &R = obs::MetricsRegistry::global();
  R.gauge("svc.server.queue_depth")->set(static_cast<int64_t>(queueDepth()));
  R.gauge("svc.server.connections_active")
      ->set(static_cast<int64_t>(Server.activeConnections()));
  R.gauge("svc.server.connections_total")
      ->set(static_cast<int64_t>(Server.totalConnections()));
}

bool Daemon::handle(unsigned ClientId, uint64_t Tag,
                    const std::string &Payload, net::MsgStream &Stream) {
  struct QueueScope {
    std::atomic<unsigned> &Q;
    ~QueueScope() { Q.fetch_sub(1, std::memory_order_relaxed); }
  };
  Queue.fetch_add(1, std::memory_order_relaxed);
  QueueScope QS{Queue};
  publishServerMetrics();
  try {
    switch (Tag) {
    case MsgCompileReq:
      Stream.send(MsgOkResp, handleCompile(ClientId, Payload));
      break;
    case MsgRunReq:
      Stream.send(MsgOkResp, handleRun(Payload));
      break;
    case MsgStatsReq:
      Stream.send(MsgOkResp, handleStats());
      break;
    case MsgPingReq: {
      WireWriter W;
      W.kv("pong", "1");
      Stream.send(MsgOkResp, W.str());
      break;
    }
    case MsgShutdownReq: {
      WireWriter W;
      W.kv("stopping", "1");
      Stream.send(MsgOkResp, W.str());
      ShutdownRequested.store(true);
      return false;
    }
    default: {
      WireWriter W;
      W.blob("error", "unknown request tag " + std::to_string(Tag));
      Stream.send(MsgErrResp, W.str());
      break;
    }
    }
  } catch (const net::TransportError &) {
    throw; // the connection is gone; let serveOne drop it
  } catch (const std::invalid_argument &E) {
    WireWriter W; // a malformed request: E names what is wrong with it
    W.blob("error", E.what());
    Stream.send(MsgErrResp, W.str());
  } catch (const std::exception &E) {
    // A handler bug must kill neither the daemon nor the connection.
    WireWriter W;
    W.blob("error", std::string("internal error: ") + E.what());
    Stream.send(MsgErrResp, W.str());
  }
  publishServerMetrics();
  return true;
}

std::string Daemon::handleCompile(unsigned ClientId,
                                  const std::string &Payload) {
  WireReader In;
  std::string Err;
  if (!In.parse(Payload, Err) || !In.has("source"))
    throw std::invalid_argument("malformed compile request: " +
                                (Err.empty() ? "missing source blob" : Err));
  core::CompileRequest R;
  R.Name = In.get("name", "<remote>");
  R.Source = In.get("source");
  if (!core::parseCompileArgs(lines(In.get("flags")), R.Opts, Err))
    throw std::invalid_argument("malformed compile request: " + Err);
  R.BypassArtifactCache = In.getU("fresh", 0) != 0;

  core::Served How = core::Served::Fresh;
  std::shared_ptr<const core::CompileArtifact> A = service().compile(R, &How);
  if (!Opts.Quiet)
    std::cerr << "dhpfd: [" << ClientId << "] compile '" << R.Name << "' -> "
              << (A->Ok ? "ok" : "error") << " (" << servedName(How) << ")\n";

  WireWriter W;
  W.kvU("ok", A->Ok ? 1 : 0);
  W.kvHex("fingerprint", A->Fingerprint);
  W.kv("progname", A->ProgName);
  W.kv("served", servedName(How));
  W.kvF("compile_s", A->CompileSeconds);
  W.kvU("threads", A->ThreadsUsed);
  W.blob("stats", A->StatsText);
  W.blob("diags", A->DiagText);
  W.blob("spmd", A->Spmd);
  return W.str();
}

std::string Daemon::handleRun(const std::string &Payload) {
  WireReader In;
  std::string Err;
  if (!In.parse(Payload, Err))
    throw std::invalid_argument("malformed run request: " + Err);
  DiagnosticEngine Diags;
  std::unique_ptr<spmd::SpmdProgram> SP =
      loadSpmd(In.get("spmd"), "<remote spmd>", Diags);
  WireWriter W;
  if (!SP) {
    W.kvU("ok", 0);
    W.blob("error", Diags.str());
    return W.str();
  }
  // The session travels as the flags dhpfc parses, decoded by the same
  // parser; a rejected session is the client's usage error.
  SessionOptions SO;
  std::optional<Session> S;
  if (parseSessionArgs(lines(In.get("session")), SO, Err))
    S = resolveSession(*SP, SO, Err);
  if (!S) {
    W.kvU("ok", 0);
    W.kvU("usage", 1);
    W.blob("error", Err);
    return W.str();
  }
  SessionRun Run = runSession(*SP, *S, In.getU("check", 1) != 0);
  W.kvU("ok", 1);
  W.kvU("valid", Run.R.Valid ? 1 : 0);
  W.kv("check", CheckVerdict::Names[Run.Check.K]);
  W.blob("check_why", Run.Check.Why);
  W.blob("summary", runSummary(Run.R));
  return W.str();
}

std::string Daemon::handleStats() {
  core::ServiceStats S = service().stats();
  std::ostringstream OS;
  OS << "requests " << S.Requests << "\n"
     << "compiles_started " << S.CompilesStarted << "\n"
     << "deduped_inflight " << S.DedupedInFlight << "\n"
     << "artifact_hits " << S.ArtifactHits << "\n"
     << "errors " << S.Errors << "\n"
     << "artifacts_resident " << service().artifactCount() << "\n"
     << "opcache_entries " << service().opCache().entryCount() << "\n"
     << "connections_active " << Server.activeConnections() << "\n"
     << "connections_total " << Server.totalConnections() << "\n"
     << "queue_depth " << queueDepth() << "\n";
  service().publishMetrics();
  WireWriter W;
  W.blob("stats", OS.str());
  return W.str();
}

//===----------------------------------------------------------------------===//
// Client helpers
//===----------------------------------------------------------------------===//

namespace {

/// Sends one request and receives its reply; MsgErrResp becomes a thrown
/// TransportError naming the daemon-side failure.
WireReader roundTrip(net::MsgStream &S, uint64_t Tag,
                     const std::string &Payload) {
  S.send(Tag, Payload);
  uint64_t RespTag = 0;
  std::string Resp;
  if (!S.recv(RespTag, Resp))
    throw net::TransportError("daemon closed the connection mid-request");
  WireReader R;
  std::string Err;
  if (!R.parse(Resp, Err))
    throw net::TransportError("garbled daemon reply: " + Err);
  if (RespTag == MsgErrResp)
    throw net::TransportError("daemon error: " + R.get("error", "<unknown>"));
  return R;
}

} // namespace

DaemonCompileResult rt::daemonCompile(net::MsgStream &S,
                                      const std::string &Name,
                                      const std::string &Source,
                                      const core::CompilerOptions &Opts,
                                      bool Fresh) {
  WireWriter W;
  W.kv("name", Name);
  W.blob("flags", unlines(core::encodeCompileArgs(Opts)));
  W.kvU("fresh", Fresh ? 1 : 0);
  W.blob("source", Source);
  WireReader R = roundTrip(S, MsgCompileReq, W.str());
  DaemonCompileResult Out;
  Out.Ok = R.getU("ok") != 0;
  Out.Fingerprint = R.getHex("fingerprint");
  Out.ProgName = R.get("progname");
  Out.Served = R.get("served", "fresh");
  Out.CompileSeconds = R.getF("compile_s");
  Out.ThreadsUsed = static_cast<unsigned>(R.getU("threads", 1));
  Out.Spmd = R.get("spmd");
  Out.DiagText = R.get("diags");
  Out.StatsText = R.get("stats");
  return Out;
}

DaemonRunResult rt::daemonRun(net::MsgStream &S, const std::string &Spmd,
                              const SessionOptions &SO, bool Check) {
  WireWriter W;
  W.blob("session", unlines(encodeSessionArgs(SO)));
  W.kvU("check", Check ? 1 : 0);
  W.blob("spmd", Spmd);
  WireReader R = roundTrip(S, MsgRunReq, W.str());
  DaemonRunResult Out;
  Out.Ok = R.getU("ok") != 0;
  Out.Usage = R.getU("usage") != 0;
  Out.Error = R.get("error");
  if (!Out.Ok)
    return Out;
  Out.Summary = R.get("summary");
  Out.Valid = R.getU("valid") != 0;
  const auto &Names = CheckVerdict::Names;
  auto K = std::find(std::begin(Names), std::end(Names), R.get("check"));
  if (K == std::end(Names))
    throw net::TransportError("garbled daemon reply: no check verdict");
  Out.Check.K = static_cast<CheckVerdict::Kind>(K - std::begin(Names));
  Out.Check.Why = R.get("check_why");
  return Out;
}

std::string rt::daemonStats(net::MsgStream &S) {
  WireWriter W;
  W.kv("want", "stats");
  return roundTrip(S, MsgStatsReq, W.str()).get("stats");
}

void rt::daemonPing(net::MsgStream &S) {
  WireWriter W;
  W.kv("ping", "1");
  if (roundTrip(S, MsgPingReq, W.str()).getU("pong") != 1)
    throw net::TransportError("daemon ping got no pong");
}

void rt::daemonShutdown(net::MsgStream &S) {
  WireWriter W;
  W.kv("reason", "client request");
  (void)roundTrip(S, MsgShutdownReq, W.str());
}
