//===- tests/daemon_test.cpp - Compiler daemon end-to-end tests ----------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// An in-process rt::Daemon on a temp socket, driven through the same
// client helpers `dhpfc --server=` uses. The contracts:
//
//   - a daemon compile returns byte-identical .spmd text to a local
//     service compile of the same request (the daemon adds no semantics);
//   - N concurrent clients posting the same request fingerprint collapse
//     to ONE compile (CompilesStarted +1, Requests +N);
//   - a daemon-side run renders the same wall-clock-free summary as a
//     local run of the same program, under every session flag (shape,
//     engine, parameters), and a bad session is an error reply;
//   - a malformed request draws an error reply and leaves both the
//     connection and the daemon serving;
//   - stop() persists the OpCache and a new daemon starts warm from it;
//   - KernelCache::sweepStale reclaims tmp files of dead writers only.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "core/CompilerService.h"
#include "hpf/HpfPrinter.h"
#include "pset/OpCache.h"
#include "rt/Daemon.h"
#include "spmd/KernelCache.h"
#include "spmd/Serialize.h"
#include "support/Diag.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace dhpf;
using namespace dhpf::core;
using namespace dhpf::rt;

namespace {

std::string tempPath(const std::string &Stem) {
  return "/tmp/" + Stem + "." + std::to_string(::getpid());
}

/// An in-process daemon for one test, torn down on scope exit.
class ScopedDaemon {
public:
  explicit ScopedDaemon(const std::string &CacheFile = "") {
    Opts.SocketPath = tempPath("dhpf_daemon_test.sock");
    Opts.CacheFile = CacheFile;
    Opts.Quiet = true;
    D.reset(new Daemon(Opts));
    D->start();
  }
  ~ScopedDaemon() { D->stop(); }

  Daemon &daemon() { return *D; }
  std::unique_ptr<net::MsgStream> connect() {
    return net::connectClient(Opts.SocketPath);
  }

private:
  DaemonOptions Opts;
  std::unique_ptr<Daemon> D;
};

std::string appSource(apps::AppInstance (*Make)(int64_t, int64_t), int64_t N,
                      int64_t Steps) {
  return hpf::printHpfProgram(*Make(N, Steps).Prog);
}

TEST(DaemonCompile, ByteIdenticalToLocalService) {
  ScopedDaemon SD;
  std::string Source = appSource(apps::makeJacobi, 14, 2);
  CompilerOptions CO;

  CompileRequest R;
  R.Name = "<daemon_test>";
  R.Source = Source;
  R.Opts = CO;
  R.BypassArtifactCache = true;
  std::shared_ptr<const CompileArtifact> Local =
      CompilerService::global().compile(R);
  ASSERT_TRUE(Local->Ok) << Local->DiagText;

  std::unique_ptr<net::MsgStream> S = SD.connect();
  DaemonCompileResult Remote =
      daemonCompile(*S, "<daemon_test>", Source, CO, /*Fresh=*/true);
  ASSERT_TRUE(Remote.Ok) << Remote.DiagText;
  EXPECT_EQ(Remote.Spmd, Local->Spmd);
  EXPECT_EQ(Remote.ProgName, Local->ProgName);
  EXPECT_EQ(Remote.Fingerprint, Local->Fingerprint);
}

TEST(DaemonCompile, ConcurrentSameFingerprintDedupsToOneCompile) {
  ScopedDaemon SD;
  // A source no other test compiles, so neither the artifact cache nor an
  // in-flight entry predates this test.
  std::string Source = appSource(apps::makeJacobi, 17, 3);
  CompilerOptions CO;
  ServiceStats Before = CompilerService::global().stats();

  const unsigned N = 8;
  std::vector<std::thread> Ts;
  std::vector<std::string> Spmd(N);
  std::vector<std::string> Errs(N);
  for (unsigned I = 0; I != N; ++I)
    Ts.emplace_back([&, I] {
      try {
        std::unique_ptr<net::MsgStream> S = SD.connect();
        DaemonCompileResult R = daemonCompile(*S, "<dedup>", Source, CO);
        if (!R.Ok)
          Errs[I] = "compile failed: " + R.DiagText;
        Spmd[I] = R.Spmd;
      } catch (const std::exception &E) {
        Errs[I] = E.what();
      }
    });
  for (std::thread &T : Ts)
    T.join();
  for (unsigned I = 0; I != N; ++I)
    EXPECT_EQ(Errs[I], "") << "client " << I;

  ServiceStats After = CompilerService::global().stats();
  EXPECT_EQ(After.Requests - Before.Requests, N);
  // All N clients were served by exactly one compiler run; the other N-1
  // either joined it in flight or replayed the finished artifact.
  EXPECT_EQ(After.CompilesStarted - Before.CompilesStarted, 1u);
  EXPECT_EQ(After.DedupedInFlight - Before.DedupedInFlight +
                (After.ArtifactHits - Before.ArtifactHits),
            N - 1);
  for (unsigned I = 1; I != N; ++I)
    EXPECT_EQ(Spmd[I], Spmd[0]) << "client " << I;
}

/// The local side of a daemon run: the same program and session resolved
/// and run in this process.
SessionRun runLocally(const std::string &Spmd, const SessionOptions &SO,
                      std::unique_ptr<spmd::SpmdProgram> &SP) {
  DiagnosticEngine Diags;
  Expected<std::unique_ptr<spmd::SpmdProgram>> Parsed =
      spmd::parseSpmdProgram(Spmd, Diags, "<run>");
  EXPECT_TRUE(bool(Parsed)) << Diags.str();
  if (!Parsed)
    return SessionRun();
  SP = std::move(Parsed).take();
  std::string Err;
  std::optional<Session> S = resolveSession(*SP, SO, Err);
  EXPECT_TRUE(S.has_value()) << Err;
  if (!S)
    return SessionRun();
  return runSession(*SP, *S, /*Check=*/true);
}

TEST(DaemonRun, SummaryMatchesLocalRun) {
  ScopedDaemon SD;
  std::string Source = appSource(apps::makeJacobi, 12, 2);
  std::unique_ptr<net::MsgStream> S = SD.connect();
  DaemonCompileResult C = daemonCompile(*S, "<run>", Source, CompilerOptions());
  ASSERT_TRUE(C.Ok) << C.DiagText;

  SessionOptions SO;
  SO.NumProcs = 4;
  DaemonRunResult Remote = daemonRun(*S, C.Spmd, SO, /*Check=*/true);
  ASSERT_TRUE(Remote.Ok) << Remote.Error;

  std::unique_ptr<spmd::SpmdProgram> SP;
  SessionRun Local = runLocally(C.Spmd, SO, SP);
  ASSERT_TRUE(Local.Interp);

  // Wall-clock-free summaries: equal strings <=> bit-identical runs.
  EXPECT_EQ(Remote.Summary, runSummary(Local.R));
  EXPECT_EQ(Remote.Check.K, Local.Check.K);
  EXPECT_EQ(Remote.Check.Why, Local.Check.Why);
  EXPECT_TRUE(Remote.Valid);
  EXPECT_NE(Remote.Summary.find("valid 1\n"), std::string::npos)
      << Remote.Summary;
}

/// A program with a run parameter on a symbolic 2-D grid, so the shape,
/// the parameter and the engine all change what the daemon must run.
const char *const ParamStencil = R"(program pstencil
param N
processors PR(*PV, *PH)
template T(1:12, 1:12)
array U(1:12, 1:12) align (a0,a1) with T(a0,a1)
array V(1:12, 1:12) align (a0,a1) with T(a0,a1)
distribute T(block, block) onto PR

procedure main
  nest sweep
    do i = 2, N
    do j = 2, 11
    V(i,j) = U(i-1,j) U(i+1,j) U(i,j-1) U(i,j+1) cost 5 sem 0
  endnest
endprocedure
)";

/// Every session flag reaches the daemon: an explicit 1x4 shape, the tree
/// engine and a parameter binding produce the local run's summary, and
/// dropping either the shape or the parameter would not.
TEST(DaemonRun, ShapeEngineAndParamTravel) {
  ScopedDaemon SD;
  std::unique_ptr<net::MsgStream> S = SD.connect();
  DaemonCompileResult C =
      daemonCompile(*S, "<pstencil>", ParamStencil, CompilerOptions());
  ASSERT_TRUE(C.Ok) << C.DiagText;

  SessionOptions SO;
  SO.ProcShape = {1, 4};
  SO.Engine = spmd::EngineKind::Tree;
  SO.Params = {{"N", 9}};
  DaemonRunResult Remote = daemonRun(*S, C.Spmd, SO, /*Check=*/true);
  ASSERT_TRUE(Remote.Ok) << Remote.Error;
  EXPECT_TRUE(Remote.Valid);
  EXPECT_EQ(Remote.Check.K, CheckVerdict::Skipped);

  std::unique_ptr<spmd::SpmdProgram> SP;
  SessionRun Local = runLocally(C.Spmd, SO, SP);
  ASSERT_TRUE(Local.Interp);
  EXPECT_EQ(Remote.Summary, runSummary(Local.R));

  // The flags matter: the default -p 4 shape (4x1 for an unregistered
  // program) and another parameter value both change the summary.
  SessionOptions NoShape = SO;
  NoShape.ProcShape.clear();
  SessionRun Other = runLocally(C.Spmd, NoShape, SP);
  ASSERT_TRUE(Other.Interp);
  EXPECT_NE(Remote.Summary, runSummary(Other.R));
  SessionOptions OtherParam = SO;
  OtherParam.Params["N"] = 11;
  Other = runLocally(C.Spmd, OtherParam, SP);
  ASSERT_TRUE(Other.Interp);
  EXPECT_NE(Remote.Summary, runSummary(Other.R));
}

/// The daemon decodes the session with the strict parser: a malformed
/// flag or an undeclared parameter is an error reply naming it.
TEST(DaemonRun, BadSessionIsAnErrorReply) {
  ScopedDaemon SD;
  std::unique_ptr<net::MsgStream> S = SD.connect();
  DaemonCompileResult C =
      daemonCompile(*S, "<pstencil>", ParamStencil, CompilerOptions());
  ASSERT_TRUE(C.Ok) << C.DiagText;

  SessionOptions SO;
  SO.Params = {{"BOGUS", 3}};
  DaemonRunResult R = daemonRun(*S, C.Spmd, SO, /*Check=*/true);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("unknown parameter 'BOGUS'"), std::string::npos)
      << R.Error;

  std::string Payload = "blob session 12\n--procs=2,x\n\nblob spmd " +
                        std::to_string(C.Spmd.size()) + "\n" + C.Spmd + "\n";
  S->send(MsgRunReq, Payload);
  uint64_t Tag = 0;
  std::string Reply;
  ASSERT_TRUE(S->recv(Tag, Reply));
  EXPECT_EQ(Tag, uint64_t(MsgOkResp));
  EXPECT_NE(Reply.find("kv ok 0"), std::string::npos) << Reply;
  EXPECT_NE(Reply.find("invalid --procs extent 'x'"), std::string::npos)
      << Reply;
}

TEST(DaemonFault, MalformedRequestKeepsDaemonServing) {
  ScopedDaemon SD;
  std::unique_ptr<net::MsgStream> S = SD.connect();
  // A compile request with no source blob: the daemon must reply with an
  // error frame, not drop the connection or die.
  S->send(MsgCompileReq, "kv name broken\n");
  uint64_t Tag = 0;
  std::string Payload;
  ASSERT_TRUE(S->recv(Tag, Payload));
  EXPECT_EQ(Tag, uint64_t(MsgErrResp));
  EXPECT_NE(Payload.find("source"), std::string::npos) << Payload;
  // Same connection still serves requests...
  daemonPing(*S);
  // ...and a real compile still works on a fresh connection.
  std::unique_ptr<net::MsgStream> S2 = SD.connect();
  DaemonCompileResult R = daemonCompile(
      *S2, "<after>", appSource(apps::makeJacobi, 10, 1), CompilerOptions());
  EXPECT_TRUE(R.Ok) << R.DiagText;
}

TEST(DaemonPersist, ColdDaemonStartsWarmFromSavedCache) {
  std::string CacheFile = tempPath("dhpf_daemon_test.cache");
  {
    ScopedDaemon SD(CacheFile);
    std::unique_ptr<net::MsgStream> S = SD.connect();
    DaemonCompileResult R =
        daemonCompile(*S, "<persist>", appSource(apps::makeJacobi, 13, 2),
                      CompilerOptions(), /*Fresh=*/true);
    ASSERT_TRUE(R.Ok) << R.DiagText;
    // ~ScopedDaemon -> stop() -> cache saved.
  }
  ASSERT_GT(pset::OpCache::global().entryCount(), 0u);
  pset::OpCache::global().clear();
  {
    ScopedDaemon SD(CacheFile);
    EXPECT_GT(pset::OpCache::global().entryCount(), 0u)
        << "daemon start() did not reload " << CacheFile;
  }
  ::unlink(CacheFile.c_str());
}

//===----------------------------------------------------------------------===//
// KernelCache stale-tmp sweeping
//===----------------------------------------------------------------------===//

void touch(const std::string &Path) {
  std::ofstream(Path.c_str()) << "x";
}

bool exists(const std::string &Path) {
  return ::access(Path.c_str(), F_OK) == 0;
}

TEST(KernelCacheSweep, ReclaimsDeadWritersTmpFilesOnly) {
  char Buf[] = "/tmp/dhpf_sweep_test_XXXXXX";
  ASSERT_NE(mkdtemp(Buf), nullptr);
  std::string Dir = Buf;

  // A pid that is certainly dead: fork a child that exits immediately and
  // reap it.
  pid_t Dead = ::fork();
  ASSERT_GE(Dead, 0);
  if (Dead == 0)
    ::_exit(0);
  ASSERT_EQ(::waitpid(Dead, nullptr, 0), Dead);

  std::string DeadTmp = Dir + "/dhpf-abc.so.tmp" + std::to_string(Dead);
  std::string DeadErr = Dir + "/dhpf-abc.cc.err" + std::to_string(Dead);
  std::string LiveTmp =
      Dir + "/dhpf-def.so.tmp" + std::to_string(::getpid());
  std::string Final = Dir + "/dhpf-abc.so";
  std::string Foreign = Dir + "/other.tmp" + std::to_string(Dead);
  touch(DeadTmp);
  touch(DeadErr);
  touch(LiveTmp);
  touch(Final);
  touch(Foreign);

  unsigned Swept = spmd::native::KernelCache::sweepStale(Dir);
  EXPECT_EQ(Swept, 2u);
  EXPECT_FALSE(exists(DeadTmp)) << "dead writer's .tmp kept";
  EXPECT_FALSE(exists(DeadErr)) << "dead writer's .err kept";
  EXPECT_TRUE(exists(LiveTmp)) << "live writer's .tmp swept";
  EXPECT_TRUE(exists(Final)) << "finished artifact swept";
  EXPECT_TRUE(exists(Foreign)) << "non-dhpf file swept";

  ::unlink(LiveTmp.c_str());
  ::unlink(Final.c_str());
  ::unlink(Foreign.c_str());
  ::rmdir(Dir.c_str());
}

} // namespace
