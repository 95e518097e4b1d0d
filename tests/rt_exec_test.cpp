//===- tests/rt_exec_test.cpp - Distributed rank runtime tests -----------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The distributed runtime's core claim: P cooperating RankEngines — over
/// the loopback mesh AND over real Unix sockets — produce results
/// bit-identical to the in-process engines, for all four Figure 7
/// benchmarks at P in {1, 4}. The comparison goes through the full result
/// pipeline (dump -> serialize -> parse -> merge), so the rank-dump text
/// format is covered by the same assertions. Fault-injected runs must die
/// with a named-rank diagnostic under the watchdog, never hang.
///
//===----------------------------------------------------------------------===//

#include "apps/Registry.h"
#include "core/Compiler.h"
#include "net/Loopback.h"
#include "net/Socket.h"
#include "obs/Trace.h"
#include "rt/RankEngine.h"
#include "rt/RankResult.h"
#include "spmd/Interp.h"

#include "gtest/gtest.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace dhpf;

namespace {

struct Subject {
  apps::AppInstance App;
  std::vector<int64_t> Shape1; ///< P=1 processor-array extents
  std::vector<int64_t> Shape4; ///< P=4 processor-array extents
};

std::vector<Subject> subjects() {
  std::vector<Subject> S;
  S.push_back({apps::makeJacobi(8, 2), {1, 1}, {2, 2}});
  S.push_back({apps::makeTomcatv(10, 2), {1}, {4}});
  S.push_back({apps::makeErlebacher(8, 2), {1}, {4}});
  S.push_back({apps::makeGauss(8), {1, 1}, {2, 2}});
  return S;
}

enum class Mesh { Loopback, Socket };

/// Runs \p SP distributed on \p Mesh with one thread per rank and pushes
/// every rank's result through the dump text round trip. Any rank error
/// fails the test.
std::vector<rt::RankDump> runRanks(const spmd::SpmdProgram &SP,
                                   const apps::AppInstance &App,
                                   const spmd::RunConfig &RC, Mesh Kind) {
  spmd::ProgramLayout L = spmd::resolveLayout(SP, RC);
  unsigned NP = L.NumProcs;

  std::string Dir;
  std::unique_ptr<net::LoopbackMesh> Loop;
  if (Kind == Mesh::Loopback) {
    Loop = std::make_unique<net::LoopbackMesh>(NP);
  } else {
    char Buf[] = "/tmp/dhpf_rt_test_XXXXXX";
    const char *D = mkdtemp(Buf);
    EXPECT_NE(D, nullptr);
    Dir = D ? D : "";
  }

  std::vector<std::string> Dumps(NP), Errs(NP);
  std::vector<std::thread> Ts;
  for (unsigned R = 0; R != NP; ++R)
    Ts.emplace_back([&, R] {
      try {
        std::unique_ptr<net::Transport> T;
        if (Kind == Mesh::Loopback) {
          T = Loop->transport(R);
        } else {
          net::SocketOptions Opts;
          Opts.MeshDir = Dir;
          T = net::connectSocketMesh(R, NP, Opts);
        }
        rt::RankConfig RCfg;
        RCfg.Run = RC;
        RCfg.Rank = R;
        rt::RankEngine E(SP, RCfg, *T);
        App.Setup(E);
        spmd::RunResult RR = E.run();
        Dumps[R] = rt::serializeRankDump(rt::dumpRank(E, RR, T->stats()));
      } catch (const std::exception &Ex) {
        Errs[R] = Ex.what();
      }
    });
  for (auto &T : Ts)
    T.join();
  if (!Dir.empty()) {
    for (unsigned R = 0; R != NP; ++R)
      unlink((Dir + "/rank" + std::to_string(R) + ".sock").c_str());
    rmdir(Dir.c_str());
  }

  for (unsigned R = 0; R != NP; ++R)
    EXPECT_EQ(Errs[R], "") << "rank " << R;
  std::vector<rt::RankDump> Parsed;
  for (unsigned R = 0; R != NP; ++R) {
    rt::RankDump D;
    std::string Err;
    EXPECT_TRUE(rt::parseRankDump(Dumps[R], D, Err)) << Err;
    Parsed.push_back(std::move(D));
  }
  return Parsed;
}

/// runRanks, then the merge.
rt::MergedRun runDistributed(const spmd::SpmdProgram &SP,
                             const apps::AppInstance &App,
                             const spmd::RunConfig &RC, Mesh Kind) {
  rt::MergedRun Merged;
  std::string Err;
  EXPECT_TRUE(
      rt::mergeRankDumps(SP, RC, runRanks(SP, App, RC, Kind), Merged, Err))
      << Err;
  return Merged;
}

void expectBitIdentical(const rt::MergedRun &Dist,
                        const spmd::RunResult &Ref,
                        const spmd::Interpreter &I) {
  EXPECT_EQ(Dist.R.Messages, Ref.Messages);
  EXPECT_EQ(Dist.R.Bytes, Ref.Bytes);
  EXPECT_EQ(Dist.R.StmtInstances, Ref.StmtInstances);
  EXPECT_EQ(Dist.R.SpanCopies, Ref.SpanCopies);
  EXPECT_EQ(Dist.R.PackedCopies, Ref.PackedCopies);
  EXPECT_EQ(Dist.R.InPlaceRuntimeUpgrades, Ref.InPlaceRuntimeUpgrades);
  EXPECT_EQ(Dist.R.Valid, Ref.Valid);
  ASSERT_EQ(Dist.R.FinalAccums.size(), Ref.FinalAccums.size());
  for (const auto &[Name, V] : Ref.FinalAccums) {
    auto It = Dist.R.FinalAccums.find(Name);
    ASSERT_NE(It, Dist.R.FinalAccums.end()) << Name;
    EXPECT_EQ(0, std::memcmp(&It->second, &V, sizeof(double))) << Name;
  }
  for (const auto &[Name, A] : Dist.Arrays) {
    const spmd::ArrayStore &B = I.array(Name);
    ASSERT_EQ(A.size(), B.size()) << Name;
    EXPECT_EQ(0, std::memcmp(A.values().data(), B.values().data(),
                             A.size() * sizeof(double)))
        << Name;
  }
}

void checkApp(const Subject &S, const std::vector<int64_t> &Shape) {
  auto Compiled = core::compileProgram(*S.App.Prog);
  ASSERT_TRUE(Compiled);
  const spmd::SpmdProgram &SP = Compiled->Program;

  spmd::RunConfig RC;
  RC.ProcExtents[S.App.ProcArrayName] = Shape;

  spmd::Interpreter I(SP, RC);
  S.App.Setup(I);
  spmd::RunResult Ref = I.run();
  ASSERT_TRUE(Ref.Valid);

  rt::MergedRun Loop = runDistributed(SP, S.App, RC, Mesh::Loopback);
  expectBitIdentical(Loop, Ref, I);

  rt::MergedRun Sock = runDistributed(SP, S.App, RC, Mesh::Socket);
  expectBitIdentical(Sock, Ref, I);

  // Loopback and socket must also agree with each other on the merged
  // counters (they already both equal Ref; this documents the oracle).
  EXPECT_EQ(Loop.R.Messages, Sock.R.Messages);
  EXPECT_EQ(Loop.R.Bytes, Sock.R.Bytes);
}

TEST(RtExec, JacobiP1) { checkApp(subjects()[0], subjects()[0].Shape1); }
TEST(RtExec, JacobiP4) { checkApp(subjects()[0], subjects()[0].Shape4); }
TEST(RtExec, TomcatvP1) { checkApp(subjects()[1], subjects()[1].Shape1); }
TEST(RtExec, TomcatvP4) { checkApp(subjects()[1], subjects()[1].Shape4); }
TEST(RtExec, ErlebacherP1) { checkApp(subjects()[2], subjects()[2].Shape1); }
TEST(RtExec, ErlebacherP4) { checkApp(subjects()[2], subjects()[2].Shape4); }
TEST(RtExec, GaussP1) { checkApp(subjects()[3], subjects()[3].Shape1); }
TEST(RtExec, GaussP4) { checkApp(subjects()[3], subjects()[3].Shape4); }

/// Every collective algorithm must leave the distributed run bit-identical
/// to the in-process engine at P=8 — the algorithms differ only in their
/// physical frame schedule, which the merged CollStats counters expose:
/// recursive doubling must cut the bottleneck rank's frame count against
/// the naive gather/broadcast.
TEST(RtExec, CollectiveAlgorithmsBitIdenticalAtP8) {
  Subject S = std::move(subjects()[0]); // jacobi on a 2x4 mesh
  auto Compiled = core::compileProgram(*S.App.Prog);
  ASSERT_TRUE(Compiled);
  const spmd::SpmdProgram &SP = Compiled->Program;
  spmd::RunConfig RC;
  RC.ProcExtents[S.App.ProcArrayName] = {2, 4};

  spmd::Interpreter I(SP, RC);
  S.App.Setup(I);
  spmd::RunResult Ref = I.run();
  ASSERT_TRUE(Ref.Valid);

  std::map<std::string, uint64_t> MaxRankFrames;
  for (const char *Algo : {"naive", "rdbl"}) {
    setenv("DHPF_COLL", Algo, 1);
    rt::MergedRun Loop = runDistributed(SP, S.App, RC, Mesh::Loopback);
    expectBitIdentical(Loop, Ref, I);
    rt::MergedRun Sock = runDistributed(SP, S.App, RC, Mesh::Socket);
    expectBitIdentical(Sock, Ref, I);
    // The physical schedule is a property of the algorithm, not the
    // transport it runs over.
    EXPECT_EQ(Loop.R.CollMessages, Sock.R.CollMessages) << Algo;
    EXPECT_EQ(Loop.R.CollBytes, Sock.R.CollBytes) << Algo;
    EXPECT_EQ(Loop.MaxRankCollMessages, Sock.MaxRankCollMessages) << Algo;
    EXPECT_GT(Loop.R.CollMessages, 0u) << Algo;
    MaxRankFrames[Algo] = Loop.MaxRankCollMessages;
  }
  unsetenv("DHPF_COLL");
  EXPECT_LT(MaxRankFrames["rdbl"], MaxRankFrames["naive"]);
}

/// Rank-dump parser: malformed dumps are line-numbered errors, and a dump
/// cut off mid-array is flagged as a likely mid-dump death.
TEST(RtDump, ParserDiagnosesTruncation) {
  rt::RankDump D;
  std::string Err;
  EXPECT_FALSE(rt::parseRankDump("", D, Err));
  EXPECT_NE(Err.find("missing rankdump header"), std::string::npos) << Err;

  std::string NoEnd = "rankdump 0 2\nvalid 1\n";
  EXPECT_FALSE(rt::parseRankDump(NoEnd, D, Err));
  EXPECT_NE(Err.find("mid-dump"), std::string::npos) << Err;

  std::string CutArray =
      "rankdump 0 2\nvalid 1\narray U 3 0000000000000000\n";
  EXPECT_FALSE(rt::parseRankDump(CutArray, D, Err));
  EXPECT_NE(Err.find("truncated"), std::string::npos) << Err;

  std::string BadLine = "rankdump 0 2\nwhatisthis 5\n";
  EXPECT_FALSE(rt::parseRankDump(BadLine, D, Err));
  EXPECT_NE(Err.find("line 2"), std::string::npos) << Err;
}

/// Array lines carry values only: a round trip keeps every bit, and a
/// value run shorter than its count — even cut mid-value — is truncation.
TEST(RtDump, ValueRunsRoundTripAndDiagnoseTruncation) {
  rt::RankDump D;
  D.NP = 1;
  D.Elems["U"] = {0x3ff0000000000000ull, 0xfff8000000000001ull};
  D.Elems["V"] = {};
  std::string Text = rt::serializeRankDump(D);
  EXPECT_NE(Text.find("\narray U 2 3ff0000000000000 fff8000000000001\n"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("\narray V 0\n"), std::string::npos) << Text;
  rt::RankDump Back;
  std::string Err;
  ASSERT_TRUE(rt::parseRankDump(Text, Back, Err)) << Err;
  EXPECT_EQ(Back.Elems, D.Elems);

  for (const char *Cut : {"array U 2 3ff0000000000000\nend\n",
                          "array U 2 3ff0000000000000 fff80000"}) {
    EXPECT_FALSE(
        rt::parseRankDump(std::string("rankdump 0 1\n") + Cut, Back, Err));
    EXPECT_NE(Err.find("line 2: array dump truncated"), std::string::npos)
        << Err;
  }
  EXPECT_FALSE(rt::parseRankDump("rankdump 0 1\narray U 1 3ff0000000000000\n"
                                 "array U 0\nend\n",
                                 Back, Err));
  EXPECT_NE(Err.find("line 3: duplicate array 'U'"), std::string::npos)
      << Err;
  EXPECT_FALSE(rt::parseRankDump(
      "rankdump 0 1\narray U 1 3ff000000000000g\nend\n", Back, Err));
  EXPECT_NE(Err.find("line 2: bad element value"), std::string::npos) << Err;
}

/// The merge places values by the layout's ownership rule, so a dump whose
/// arrays do not match what its rank reports is refused with the rank and
/// the array named, never merged into the wrong elements.
TEST(RtDump, MergeRejectsDumpsThatDisagreeWithTheLayout) {
  Subject S = std::move(subjects()[0]); // jacobi on a 2x2 mesh
  auto Compiled = core::compileProgram(*S.App.Prog);
  ASSERT_TRUE(Compiled);
  const spmd::SpmdProgram &SP = Compiled->Program;
  spmd::RunConfig RC;
  RC.ProcExtents[S.App.ProcArrayName] = S.Shape4;
  const std::vector<rt::RankDump> Good =
      runRanks(SP, S.App, RC, Mesh::Loopback);
  ASSERT_EQ(Good.size(), 4u);
  rt::MergedRun M;
  std::string Err;
  ASSERT_TRUE(rt::mergeRankDumps(SP, RC, Good, M, Err)) << Err;
  const std::string Name = Good[1].Elems.begin()->first;
  ASSERT_FALSE(Good[1].Elems.begin()->second.empty());

  auto ExpectRefused = [&](const std::vector<rt::RankDump> &Ds,
                           const std::string &Rank, const std::string &Array,
                           const std::string &Why) {
    EXPECT_FALSE(rt::mergeRankDumps(SP, RC, Ds, M, Err));
    EXPECT_NE(Err.find(Rank + " "), std::string::npos) << Err;
    EXPECT_NE(Err.find("'" + Array + "'"), std::string::npos) << Err;
    EXPECT_NE(Err.find(Why), std::string::npos) << Err;
  };
  std::vector<rt::RankDump> Short = Good;
  Short[1].Elems[Name].pop_back();
  ExpectRefused(Short, "rank 1", Name, "the layout assigns it");
  std::vector<rt::RankDump> Long = Good;
  Long[2].Elems[Name].push_back(0);
  ExpectRefused(Long, "rank 2", Name, "the layout assigns it");
  std::vector<rt::RankDump> Missing = Good;
  Missing[3].Elems.erase(Name);
  ExpectRefused(Missing, "rank 3", Name, "missing");
  std::vector<rt::RankDump> Unknown = Good;
  Unknown[0].Elems["NOSUCH"] = {};
  ExpectRefused(Unknown, "rank 0", "NOSUCH", "unknown");
}

/// Per-rank trace buffers wired through RankConfig::Trace: the engine
/// emits one "send" complete event at exactly the sites that bump
/// RunResult::Messages, so per-rank send-span counts equal the per-rank
/// message counters, the merged timeline's total equals the summed
/// counter, and all four rank lanes survive the merge. With DHPF_OBS=OFF
/// the same run records nothing at all.
TEST(RtExec, TraceSendEventsMatchMessageCounters) {
  Subject S = std::move(subjects()[0]); // jacobi on a 2x2 mesh
  auto Compiled = core::compileProgram(*S.App.Prog);
  ASSERT_TRUE(Compiled);
  const spmd::SpmdProgram &SP = Compiled->Program;
  spmd::RunConfig RC;
  RC.ProcExtents[S.App.ProcArrayName] = {2, 2};

  net::LoopbackMesh Mesh(4);
  obs::TraceBuffer Bufs[4];
  uint64_t Msgs[4] = {};
  std::vector<std::string> Errs(4);
  std::vector<std::thread> Ts;
  for (unsigned R = 0; R != 4; ++R)
    Ts.emplace_back([&, R] {
      try {
        Bufs[R].setLane(R + 1, "rank " + std::to_string(R));
        Bufs[R].start();
        auto T = Mesh.transport(R);
        rt::RankConfig RCfg;
        RCfg.Run = RC;
        RCfg.Rank = R;
        RCfg.Trace = &Bufs[R];
        rt::RankEngine E(SP, RCfg, *T);
        S.App.Setup(E);
        Msgs[R] = E.run().Messages;
      } catch (const std::exception &Ex) {
        Errs[R] = Ex.what();
      }
    });
  for (auto &T : Ts)
    T.join();
  for (unsigned R = 0; R != 4; ++R)
    ASSERT_EQ(Errs[R], "") << "rank " << R;

  if (!obs::compiledIn()) {
    for (const obs::TraceBuffer &B : Bufs)
      EXPECT_EQ(B.eventCount(), 0u);
    return;
  }

  uint64_t TotalSends = 0, TotalRecvs = 0, TotalMsgs = 0;
  for (unsigned R = 0; R != 4; ++R) {
    uint64_t Sends = 0;
    for (const obs::TraceEvent &E : Bufs[R].snapshot()) {
      Sends += E.Name == "send" && E.Ph == 'X';
      TotalRecvs += E.Name == "recv" && E.Ph == 'X';
    }
    EXPECT_EQ(Sends, Msgs[R]) << "rank " << R;
    TotalSends += Sends;
    TotalMsgs += Msgs[R];
  }
  EXPECT_GT(TotalSends, 0u);
  EXPECT_GT(TotalRecvs, 0u);
  EXPECT_EQ(TotalSends, TotalMsgs);

  // The stitched timeline: one valid document, every rank's lane labeled,
  // and event counts preserved by the merge.
  std::vector<std::string> Docs;
  for (const obs::TraceBuffer &B : Bufs)
    Docs.push_back(B.chromeJson());
  std::string Merged = obs::mergeChromeTraces(Docs);
  for (unsigned R = 0; R != 4; ++R)
    EXPECT_NE(Merged.find("\"name\": \"rank " + std::to_string(R) + "\""),
              std::string::npos)
        << "lane for rank " << R << " missing from merged trace";
  uint64_t MergedSends = 0;
  for (size_t Pos = 0;
       (Pos = Merged.find("\"name\": \"send\"", Pos)) != std::string::npos;
       ++Pos)
    ++MergedSends;
  EXPECT_EQ(MergedSends, TotalSends);
}

/// Fault-injected distributed run: some rank must die with a named-rank
/// TransportError, and the whole mesh must wind down within the watchdog —
/// this test hanging IS the failure mode it guards against. The injected
/// fault must also land in the trace as an instant event naming the
/// offending rank and the action.
TEST(RtExec, FaultInjectionDiagnosesNeverHangs) {
  setenv("DHPF_NET_FAULT", "corrupt=1,seed=11,after=0", 1);
  setenv("DHPF_NET_TIMEOUT_MS", "2000", 1);
  obs::TraceBuffer &GB = obs::TraceBuffer::global();
  GB.clear();
  GB.start();
  auto T0 = std::chrono::steady_clock::now();

  Subject S = std::move(subjects()[0]); // jacobi
  auto Compiled = core::compileProgram(*S.App.Prog);
  ASSERT_TRUE(Compiled);
  const spmd::SpmdProgram &SP = Compiled->Program;
  spmd::RunConfig RC;
  RC.ProcExtents[S.App.ProcArrayName] = {2, 2};

  net::LoopbackMesh Mesh(4);
  std::vector<std::string> Errs(4);
  std::vector<std::thread> Ts;
  for (unsigned R = 0; R != 4; ++R)
    Ts.emplace_back([&, R] {
      try {
        auto T = Mesh.transport(R);
        rt::RankConfig RCfg;
        RCfg.Run = RC;
        RCfg.Rank = R;
        rt::RankEngine E(SP, RCfg, *T);
        S.App.Setup(E);
        E.run();
      } catch (const net::TransportError &Ex) {
        Errs[R] = Ex.what();
      }
    });
  for (auto &T : Ts)
    T.join();
  unsetenv("DHPF_NET_FAULT");
  unsetenv("DHPF_NET_TIMEOUT_MS");
  GB.stop();

  double Secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - T0)
                    .count();
  EXPECT_LT(Secs, 30.0) << "mesh did not wind down under the watchdog";
  bool AnyNamed = false;
  for (const std::string &E : Errs)
    AnyNamed |= E.find("rank") != std::string::npos;
  EXPECT_TRUE(AnyNamed) << "no rank reported a named-peer diagnostic";

  if (obs::compiledIn()) {
    // The transport recorded the injection itself: an instant "fault"
    // event whose args name the offending rank and the action taken.
    bool FaultSeen = false;
    for (const obs::TraceEvent &E : GB.snapshot()) {
      if (E.Name != "fault" || E.Ph != 'i')
        continue;
      FaultSeen = true;
      EXPECT_NE(E.Args.find("\"rank\": "), std::string::npos) << E.Args;
      EXPECT_NE(E.Args.find("\"action\": \"corrupt\""), std::string::npos)
          << E.Args;
    }
    EXPECT_TRUE(FaultSeen) << "no fault instant event in the trace";
  }
  GB.clear();
}

} // namespace
