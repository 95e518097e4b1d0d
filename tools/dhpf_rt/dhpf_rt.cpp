//===- tools/dhpf_rt/dhpf_rt.cpp - One rank of a distributed run ----------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-rank worker `dhpfc launch` fork/execs: loads a serialized .spmd,
/// resolves the identical session every other rank resolves, joins the
/// Unix-socket mesh, executes its own rank's node program, and writes its
/// result dump (hex-bit doubles) for the launcher to merge.
///
///   dhpf_rt <prog.spmd> --rank=R --mesh <dir> --result=<file>
///           [--hosts=<spec>] [session flags: -p, --procs, --param, ...]
///
/// The session flags go through rt/Session's parser, as in `dhpfc`; the
/// launcher encodes them with the resolved shape pinned by `--procs`.
///
/// Exit 0 on success (even with validity violations — those travel in the
/// dump for the merged report), 1 on any transport/runtime failure, 2 on a
/// usage error. Failures print a diagnostic naming this rank on stderr,
/// which the launcher forwards.
///
//===----------------------------------------------------------------------===//

#include "net/Socket.h"
#include "net/Tcp.h"
#include "obs/Trace.h"
#include "rt/Launch.h"
#include "rt/RankEngine.h"
#include "rt/RankResult.h"
#include "rt/Session.h"
#include "spmd/Serialize.h"
#include "support/Diag.h"
#include "support/Flags.h"

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

using namespace dhpf;

namespace {

struct RtOptions {
  std::string SpmdPath;
  std::string MeshDir;
  std::string HostsPath; ///< TCP rank spec; empty = Unix-socket mesh
  std::string ResultPath;
  long Rank = -1;
  rt::SessionOptions Session;
};

const char Usage[] =
    "usage: dhpf_rt <prog.spmd> --rank=R --mesh <dir> --result=<file> "
    "[--hosts=<spec>] [session flags: -p N, --procs=a,b, --param=k=v, "
    "--place, --engine=e, --no-validity]\n";

/// Accepts both `--opt=value` and `--opt value`.
bool takeValue(const std::vector<std::string> &Args, const std::string &Name,
               size_t &I, std::string &Out) {
  if (flagValue(Args[I], Name + "=", Out))
    return true;
  if (Args[I] == Name && I + 1 < Args.size()) {
    Out = Args[++I];
    return true;
  }
  return false;
}

/// False with \p Err naming the offending argument on a usage error.
bool parseArgs(const std::vector<std::string> &Args, RtOptions &O,
               std::string &Err) {
  for (size_t I = 0; I < Args.size(); ++I) {
    const std::string &Arg = Args[I];
    std::string V;
    FlagArg SA = rt::parseSessionArg(Args, I, O.Session, Err);
    if (SA == FlagArg::Bad)
      return false;
    if (SA == FlagArg::Taken)
      continue;
    if (takeValue(Args, "--rank", I, V)) {
      int64_t R;
      if (!parseInt(V, R) || R < 0 || R > INT32_MAX) {
        Err = "invalid --rank '" + V + "'";
        return false;
      }
      O.Rank = R;
    } else if (takeValue(Args, "--mesh", I, V)) {
      O.MeshDir = V;
    } else if (takeValue(Args, "--hosts", I, V)) {
      O.HostsPath = V;
    } else if (takeValue(Args, "--result", I, V)) {
      O.ResultPath = V;
    } else if (!Arg.empty() && Arg[0] != '-' && O.SpmdPath.empty()) {
      O.SpmdPath = Arg;
    } else {
      Err = "unexpected argument '" + Arg + "'";
      return false;
    }
  }
  if (O.SpmdPath.empty() || O.MeshDir.empty() || O.ResultPath.empty() ||
      O.Rank < 0) {
    Err = "missing <prog.spmd>, --rank, --mesh or --result";
    return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  RtOptions O;
  std::string Err;
  if (!parseArgs(std::vector<std::string>(Argv + 1, Argv + Argc), O, Err)) {
    std::cerr << "dhpf_rt: " << Err << "\n" << Usage;
    return 2;
  }

  std::string Text;
  if (!rt::readWholeFile(O.SpmdPath, Text)) {
    std::cerr << "dhpf_rt rank " << O.Rank << ": cannot read "
              << O.SpmdPath << "\n";
    return 1;
  }
  DiagnosticEngine Diags;
  std::unique_ptr<spmd::SpmdProgram> SP =
      rt::loadSpmd(Text, O.SpmdPath, Diags);
  std::cerr << Diags.str();
  if (!SP)
    return 1;

  std::optional<rt::Session> S = rt::resolveSession(*SP, O.Session, Err);
  if (!S) {
    std::cerr << "dhpf_rt rank " << O.Rank << ": " << Err << "\n";
    return 1;
  }

  // DHPF_TRACE (set per rank by the launcher, or by hand) turns on this
  // process's trace buffer; the rank traces in lane rank+1 (lane 0 is the
  // driver), so merged timelines show every process side by side.
  std::string TracePath = obs::startTraceFromEnv(
      static_cast<uint32_t>(O.Rank) + 1, "rank " + std::to_string(O.Rank));
  // Written on failure paths too — the trace of a dying rank is the one
  // worth reading.
  auto WriteTrace = [&TracePath] {
    if (TracePath.empty())
      return;
    std::ofstream TF(TracePath, std::ios::binary | std::ios::trunc);
    TF << obs::TraceBuffer::global().chromeJson();
  };

  try {
    spmd::ProgramLayout L = spmd::resolveLayout(*SP, S->Config);
    if (static_cast<unsigned long>(O.Rank) >= L.NumProcs) {
      std::cerr << "dhpf_rt: rank " << O.Rank << " out of range for "
                << L.NumProcs << " processors\n";
      return 1;
    }
    std::unique_ptr<net::Transport> T;
    if (!O.HostsPath.empty()) {
      net::TcpOptions TcpOpts;
      TcpOpts.HostsPath = O.HostsPath;
      T = net::connectTcpMesh(static_cast<unsigned>(O.Rank), L.NumProcs,
                              TcpOpts);
    } else {
      net::SocketOptions SockOpts;
      SockOpts.MeshDir = O.MeshDir;
      T = net::connectSocketMesh(static_cast<unsigned>(O.Rank), L.NumProcs,
                                 SockOpts);
    }

    rt::RankConfig RC;
    RC.Run = S->Config;
    RC.Rank = static_cast<unsigned>(O.Rank);
    rt::RankEngine E(*SP, RC, *T);
    S->setup(*SP, E);
    spmd::RunResult R = E.run();

    rt::RankDump D = rt::dumpRank(E, R, T->stats());
    std::ofstream Out(O.ResultPath, std::ios::binary | std::ios::trunc);
    if (!Out) {
      std::cerr << "dhpf_rt rank " << O.Rank << ": cannot write "
                << O.ResultPath << "\n";
      return 1;
    }
    Out << rt::serializeRankDump(D);
    Out.close();
    if (!Out) {
      std::cerr << "dhpf_rt rank " << O.Rank << ": short write to "
                << O.ResultPath << "\n";
      return 1;
    }
    WriteTrace();
    std::string MetricsPath = obs::metricsPathFromEnv();
    if (!MetricsPath.empty()) {
      std::ofstream MF(MetricsPath, std::ios::binary | std::ios::trunc);
      MF << obs::MetricsRegistry::global().reportText();
    }
  } catch (const net::TransportError &E) {
    std::cerr << "dhpf_rt rank " << O.Rank << ": " << E.what() << "\n";
    WriteTrace();
    return 1;
  } catch (const std::exception &E) {
    std::cerr << "dhpf_rt rank " << O.Rank << ": " << E.what() << "\n";
    WriteTrace();
    return 1;
  }
  return 0;
}
