//===- rt/Daemon.h - The dhpfd compile/run daemon ------------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived compiler daemon: a net::MsgServer on a Unix socket whose
/// handlers are thin adapters from wire payloads to the CompilerService
/// API. Every compile request flows through the same service instance, so
/// N concurrent clients share one warm OpCache / intern table / kernel
/// cache and identical in-flight requests collapse to one compile. The
/// daemon is the "millions of users" deployment shape of the toolchain;
/// `dhpfc --server=PATH` is its client, and a batch `dhpfc` is the same
/// code driving the same service in-process.
///
/// Wire payloads are line-structured text: `kv <key> <value>` lines for
/// scalars and `blob <key> <len>\n<bytes>` for texts that may contain
/// newlines (sources, .spmd programs, diagnostics). Request tags:
/// compile / run / stats / ping / shutdown; every reply is MsgOkResp with
/// a payload or MsgErrResp with a `blob error`.
///
/// Persistence: with DaemonOptions::CacheFile set, start() loads a
/// previously saved set-operation cache (a cold daemon starts warm) and
/// stop() saves it back.
///
/// A run request carries the session as rt/Session's encoded flags, one
/// per line, decoded by the parser `dhpfc` uses. The reply carries the
/// validity and reference-check verdicts as fields, plus runSummary(), so
/// a daemon-side run compares bit-for-bit against a local one.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_RT_DAEMON_H
#define DHPF_RT_DAEMON_H

#include "core/CompilerService.h"
#include "net/Server.h"
#include "rt/Session.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace dhpf {
namespace rt {

/// Request/response tags on the daemon socket.
enum DaemonMsg : uint64_t {
  MsgCompileReq = 1,
  MsgRunReq = 2,
  MsgStatsReq = 3,
  MsgPingReq = 4,
  MsgShutdownReq = 5,
  MsgOkResp = 100,
  MsgErrResp = 101,
};

struct DaemonOptions {
  std::string SocketPath;
  /// Set-operation cache persistence file ("" = none): loaded by start(),
  /// saved by stop().
  std::string CacheFile;
  /// Suppress the daemon's stderr request log.
  bool Quiet = false;
};

/// The daemon itself. start() binds and serves in the background; stop()
/// (or destruction) drains connections and persists the cache. Tests and
/// the bench harness run one in-process; `dhpfd` wraps one in a process.
class Daemon {
public:
  explicit Daemon(DaemonOptions O) : Opts(std::move(O)) {}
  ~Daemon();

  /// Binds the socket and starts serving. Throws net::TransportError on
  /// bind failure. A load failure of CacheFile is reported to stderr and
  /// ignored (a missing or stale cache file must not block startup).
  void start();
  /// Stops serving and saves CacheFile. Idempotent. Must not run on a
  /// service thread (it joins them): the shutdown handler only sets the
  /// flag below, and the owner's loop calls stop().
  void stop();

  /// True once a client has asked the daemon to stop.
  bool shutdownRequested() const {
    return ShutdownRequested.load(std::memory_order_relaxed);
  }
  const std::string &socketPath() const { return Opts.SocketPath; }
  /// Requests currently being processed (the obs queue-depth gauge).
  unsigned queueDepth() const {
    return Queue.load(std::memory_order_relaxed);
  }
  core::CompilerService &service() { return core::CompilerService::global(); }

private:
  DaemonOptions Opts;
  net::MsgServer Server;
  std::mutex SessionsM;
  std::map<unsigned, core::CompileSession> Sessions;
  std::atomic<unsigned> Queue{0};
  std::atomic<bool> ShutdownRequested{false};
  std::mutex StopM; ///< serializes stop() against itself
  bool Stopped = false;

  bool handle(unsigned ClientId, uint64_t Tag, const std::string &Payload,
              net::MsgStream &Stream);
  std::string handleCompile(unsigned ClientId, const std::string &Payload);
  std::string handleRun(const std::string &Payload);
  std::string handleStats();
  void publishServerMetrics();
};

//===----------------------------------------------------------------------===//
// Client helpers (used by dhpfc --server= and tests)
//===----------------------------------------------------------------------===//

struct DaemonCompileResult {
  bool Ok = false;
  uint64_t Fingerprint = 0;
  std::string ProgName;
  std::string Served; ///< "fresh" | "inflight" | "artifact"
  double CompileSeconds = 0.0;
  unsigned ThreadsUsed = 1;
  std::string Spmd;
  std::string DiagText;
  std::string StatsText;
};

/// Compiles \p Source on the daemon. Throws net::TransportError on
/// transport failure; compile failures come back as Ok=false with the
/// diagnostics in DiagText.
DaemonCompileResult daemonCompile(net::MsgStream &S, const std::string &Name,
                                  const std::string &Source,
                                  const core::CompilerOptions &Opts,
                                  bool Fresh = false);

struct DaemonRunResult {
  bool Ok = false;     ///< false: Error says why the run did not happen
  std::string Summary; ///< runSummary() text
  bool Valid = false;  ///< the run recorded no validity violation
  CheckVerdict Check;  ///< the reference check's verdict
  std::string Error;
};

/// Runs \p Spmd on the daemon under the session \p SO (sent through
/// encodeSessionArgs), with the reference check when \p Check. Throws
/// net::TransportError on transport failure or a garbled reply.
DaemonRunResult daemonRun(net::MsgStream &S, const std::string &Spmd,
                          const SessionOptions &SO, bool Check);

/// The daemon's stats report (service counters, cache levels, server
/// connection counts) as text.
std::string daemonStats(net::MsgStream &S);

/// Round-trip liveness probe; throws on failure.
void daemonPing(net::MsgStream &S);

/// Asks the daemon to stop (it persists its cache and exits).
void daemonShutdown(net::MsgStream &S);

} // namespace rt
} // namespace dhpf

#endif // DHPF_RT_DAEMON_H
