//===- tools/dhpfc/dhpfc.cpp - The dHPF command-line driver ---------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front end for the whole pipeline, driving each stage from
/// files so compilation and execution can run in separate processes:
///
///   dhpfc compile prog.hpf -o prog.spmd   parse + analyze + emit + serialize
///   dhpfc run prog.spmd -p 4              parse .spmd + simulate + verify
///   dhpfc pipeline prog.hpf -p 4          compile, round-trip through the
///                                         serialized form, run, check
///   dhpfc export [-d DIR]                 write the Figure 7 benchmarks
///                                         as .hpf text
///   dhpfc list                            show the registered benchmarks
///
/// All malformed input is rejected with file:line:col diagnostics; the exit
/// code is 0 on success, 1 on any diagnostic / validity violation / failed
/// reference check, 2 on a usage error.
///
//===----------------------------------------------------------------------===//

#include "apps/Registry.h"
#include "coll/Collective.h"
#include "core/Compiler.h"
#include "core/CompilerService.h"
#include "core/InPlace.h"
#include "hpf/HpfPrinter.h"
#include "net/Server.h"
#include "obs/Trace.h"
#include "placement/Placement.h"
#include "pset/OpCache.h"
#include "rt/Daemon.h"
#include "rt/Launch.h"
#include "rt/Session.h"
#include "spmd/Interp.h"
#include "spmd/KernelCache.h"
#include "spmd/Serialize.h"
#include "support/Diag.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

using namespace dhpf;

namespace {

int usage(const char *Argv0) {
  std::cerr
      << "usage: " << Argv0 << " <command> [options]\n"
      << "\n"
      << "commands:\n"
      << "  compile <prog.hpf> [-o <out.spmd>]   compile to a serialized "
         "SPMD program\n"
      << "  run <prog.spmd> [-p N]               execute a serialized "
         "program\n"
      << "  launch <prog.spmd> [-p N]            execute across N rank "
         "processes over sockets\n"
      << "  place <prog> [-p N]                  price every processor "
         "shape by comm-set traffic\n"
      << "  pipeline <prog.hpf> [-p N]           compile + serialization "
         "round trip + run\n"
      << "  export [-d <dir>]                    write the benchmark "
         "programs as .hpf\n"
      << "  list                                 list registered "
         "benchmarks\n"
      << "  stats --server=<sock>                print a running daemon's "
         "statistics\n"
      << "  shutdown --server=<sock>             stop a running daemon\n"
      << "\n"
      << "client options (compile, run, pipeline):\n"
      << "  --server=<sock>      send the request to the dhpfd daemon on "
         "this socket\n"
      << "                       instead of compiling/running in-process\n"
      << "\n"
      << "compile options:\n"
      << "  -o <file>            output path ('-' = stdout; default: input "
         "with .spmd)\n"
      << "  -dump-after=<pass>   dump IR after pass(es); comma list or "
         "'all'\n"
      << "  --no-split           disable loop splitting (Figure 4)\n"
      << "  --no-coalesce        disable communication coalescing\n"
      << "  --no-inplace         disable in-place (contiguity) analysis\n"
      << "  --sequential         single-threaded analysis and execution\n"
      << "  --threads=<n>        analysis worker threads (0 = hardware)\n"
      << "  --stats              print compile statistics and phase times\n"
      << "\n"
      << "run options:\n"
      << "  -p <n>               total processors (default 4)\n"
      << "  --procs=<a,b,..>     explicit processor-array extents\n"
      << "  --engine=<e>         tree | bytecode | native | auto (default "
         "auto)\n"
      << "  --kernel-cache=<d>   native-kernel cache directory ('off' = "
         "in-memory only;\n"
      << "                       default DHPF_KERNEL_CACHE or "
         "~/.cache/dhpf-kernels)\n"
      << "  --param=<name=val>   bind a program parameter\n"
      << "  --place              pick the processor shape with the "
         "placement cost model\n"
      << "  --no-check           skip the serial reference check\n"
      << "  --no-validity        skip ownership/communication validation\n"
      << "  --stats              print message/byte/statement counts\n"
      << "\n"
      << "launch options (plus the run options above):\n"
      << "  --rt-bin=<path>      dhpf_rt binary (default: DHPF_RT_BIN or "
         "next to dhpfc)\n"
      << "  --hosts=<spec|auto>  TCP transport: host:port-per-rank spec "
         "file, or 'auto'\n"
      << "                       to reserve loopback ports (default: unix "
         "sockets)\n"
      << "  --coll=<algo>        reduction collective: naive | rdbl | auto\n"
      << "                       (default DHPF_COLL or auto)\n"
      << "  --timeout-ms=<n>     per-launch deadline (default "
         "DHPF_LAUNCH_TIMEOUT_MS or 60000)\n"
      << "  --keep-mesh          keep the mesh/result directory for "
         "debugging\n"
      << "\n"
      << "profiling options (all commands):\n"
      << "  --trace=<file>       write a Chrome trace (chrome://tracing "
         "JSON); under\n"
      << "                       launch, per-rank lanes are merged in\n"
      << "  --metrics=<file>     write the metrics registry report "
         "(.json = JSON,\n"
      << "                       else flat text)\n"
      << "\n"
      << "  --version            print version, build type, engines, and "
         "transports\n";
  return 2;
}

#ifndef DHPF_GIT_DESC
#define DHPF_GIT_DESC "unknown"
#endif
#ifndef DHPF_BUILD_TYPE
#define DHPF_BUILD_TYPE "unknown"
#endif

int printVersion() {
  spmd::native::KernelCache &KC = spmd::native::KernelCache::global();
  std::string Dir = spmd::native::KernelCache::resolvedDir();
  std::cout << "dhpfc " << DHPF_GIT_DESC << " (build " << DHPF_BUILD_TYPE
            << ")\n"
            << "  engines:    tree bytecode native";
  if (KC.compilerAvailable())
    std::cout << " (" << KC.compilerVersion() << ")";
  else
    std::cout << " (no C compiler: '"
              << spmd::native::KernelCache::compilerCommand()
              << "' unusable; native falls back to bytecode)";
  std::cout << "\n"
            << "  transports: loopback unix-socket tcp\n"
            << "  collectives: naive rdbl\n"
            << "  kernel cache: "
            << (Dir.empty() ? "disabled (in-memory only)" : Dir) << "\n";
  return 0;
}

bool readFile(const std::string &Path, std::string &Out, std::string &Err) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Err = "cannot open '" + Path + "' for reading";
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool writeFile(const std::string &Path, const std::string &Text,
               std::string &Err) {
  if (Path == "-") {
    std::cout << Text;
    return true;
  }
  std::ofstream Out(Path, std::ios::binary);
  if (!Out) {
    Err = "cannot open '" + Path + "' for writing";
    return false;
  }
  Out << Text;
  Out.flush();
  if (!Out) {
    Err = "error writing '" + Path + "'";
    return false;
  }
  return true;
}

void flushDiags(DiagnosticEngine &Diags) {
  if (!Diags.empty())
    std::cerr << Diags.str();
  Diags.clear();
}

struct CliOptions {
  std::string Input;
  std::string Output;
  std::string DumpAfter;
  std::string Engine;
  std::string ExportDir = ".";
  int64_t NumProcs = 4;
  std::vector<int64_t> ProcShape; ///< --procs override; empty = derive
  std::map<std::string, int64_t> Params;
  bool NoSplit = false;
  bool NoCoalesce = false;
  bool NoInPlace = false;
  bool Sequential = false;
  unsigned Threads = 0;
  bool Stats = false;
  bool NoCheck = false;
  bool NoValidity = false;
  std::string KernelCache; ///< --kernel-cache= native cache dir override
  std::string Server;  ///< --server= daemon socket (empty = in-process)
  std::string RtBin;   ///< --rt-bin override for launch
  std::string Hosts;   ///< --hosts= TCP rank spec ('auto' = loopback)
  std::string Coll;    ///< --coll= reduction collective algorithm
  bool Place = false;  ///< --place: cost-model processor shape
  int TimeoutMs = 0;   ///< --timeout-ms launch deadline
  bool KeepMesh = false;
  std::string TracePath;   ///< --trace= (or DHPF_TRACE)
  std::string MetricsPath; ///< --metrics= (or DHPF_METRICS)
};

/// Trace documents beyond the driver's own buffer (the per-rank traces a
/// launch collected), merged into the --trace output at exit.
std::vector<std::string> &extraTraceDocs() {
  static std::vector<std::string> Docs;
  return Docs;
}

bool parseInt(const std::string &S, int64_t &Out) {
  if (S.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  long long V = std::strtoll(S.c_str(), &End, 10);
  if (errno != 0 || End != S.c_str() + S.size())
    return false;
  Out = V;
  return true;
}

/// Parses everything after the subcommand. Returns false (after printing
/// the offending option) on a usage error.
bool parseArgs(int Argc, char **Argv, CliOptions &O) {
  auto Value = [](const std::string &A, const char *Pfx,
                  std::string &Out) -> bool {
    std::string P(Pfx);
    if (A.rfind(P, 0) != 0)
      return false;
    Out = A.substr(P.size());
    return true;
  };
  for (int I = 2; I < Argc; ++I) {
    std::string A = Argv[I];
    std::string V;
    if (A == "-o" || A == "-p" || A == "-d") {
      if (I + 1 >= Argc) {
        std::cerr << "dhpfc: " << A << " requires a value\n";
        return false;
      }
      V = Argv[++I];
      if (A == "-o")
        O.Output = V;
      else if (A == "-d")
        O.ExportDir = V;
      else if (!parseInt(V, O.NumProcs) || O.NumProcs < 1) {
        std::cerr << "dhpfc: invalid processor count '" << V << "'\n";
        return false;
      }
    } else if (Value(A, "-dump-after=", V) ||
               Value(A, "--dump-after=", V)) {
      O.DumpAfter = V;
    } else if (Value(A, "--engine=", V)) {
      O.Engine = V;
    } else if (Value(A, "--kernel-cache=", V)) {
      O.KernelCache = V;
    } else if (Value(A, "--server=", V)) {
      O.Server = V;
    } else if (Value(A, "--threads=", V)) {
      int64_t N;
      if (!parseInt(V, N) || N < 0) {
        std::cerr << "dhpfc: invalid thread count '" << V << "'\n";
        return false;
      }
      O.Threads = static_cast<unsigned>(N);
    } else if (Value(A, "--procs=", V)) {
      std::stringstream SS(V);
      std::string Tok;
      O.ProcShape.clear();
      while (std::getline(SS, Tok, ',')) {
        int64_t E;
        if (!parseInt(Tok, E) || E < 1) {
          std::cerr << "dhpfc: invalid --procs extent '" << Tok << "'\n";
          return false;
        }
        O.ProcShape.push_back(E);
      }
      if (O.ProcShape.empty()) {
        std::cerr << "dhpfc: empty --procs list\n";
        return false;
      }
    } else if (Value(A, "--param=", V)) {
      size_t Eq = V.find('=');
      int64_t Val;
      if (Eq == std::string::npos || Eq == 0 ||
          !parseInt(V.substr(Eq + 1), Val)) {
        std::cerr << "dhpfc: --param expects name=value, got '" << V
                  << "'\n";
        return false;
      }
      O.Params[V.substr(0, Eq)] = Val;
    } else if (Value(A, "--rt-bin=", V)) {
      O.RtBin = V;
    } else if (Value(A, "--hosts=", V)) {
      O.Hosts = V;
    } else if (Value(A, "--coll=", V)) {
      try {
        coll::parseAlgo(V);
      } catch (const net::TransportError &) {
        std::cerr << "dhpfc: unknown collective '" << V
                  << "' (want naive|rdbl|auto)\n";
        return false;
      }
      O.Coll = V;
    } else if (Value(A, "--timeout-ms=", V)) {
      int64_t N;
      if (!parseInt(V, N) || N < 1) {
        std::cerr << "dhpfc: invalid --timeout-ms '" << V << "'\n";
        return false;
      }
      O.TimeoutMs = static_cast<int>(N);
    } else if (Value(A, "--trace=", V)) {
      O.TracePath = V;
    } else if (Value(A, "--metrics=", V)) {
      O.MetricsPath = V;
    } else if (A == "--keep-mesh") {
      O.KeepMesh = true;
    } else if (A == "--place") {
      O.Place = true;
    } else if (A == "--no-split") {
      O.NoSplit = true;
    } else if (A == "--no-coalesce") {
      O.NoCoalesce = true;
    } else if (A == "--no-inplace") {
      O.NoInPlace = true;
    } else if (A == "--sequential") {
      O.Sequential = true;
    } else if (A == "--stats") {
      O.Stats = true;
    } else if (A == "--no-check") {
      O.NoCheck = true;
    } else if (A == "--no-validity") {
      O.NoValidity = true;
    } else if (!A.empty() && A[0] == '-') {
      std::cerr << "dhpfc: unknown option '" << A << "'\n";
      return false;
    } else if (O.Input.empty()) {
      O.Input = A;
    } else {
      std::cerr << "dhpfc: unexpected argument '" << A << "'\n";
      return false;
    }
  }
  return true;
}

core::CompilerOptions compilerOptions(const CliOptions &O) {
  core::CompilerOptions CO;
  CO.LoopSplitting = !O.NoSplit;
  CO.Coalescing = !O.NoCoalesce;
  CO.InPlaceAnalysis = !O.NoInPlace;
  CO.AnalysisThreads = O.Sequential ? 1 : O.Threads;
  CO.DumpAfter = O.DumpAfter;
  return CO;
}

/// What a compile produced, wherever it ran.
struct CompiledUnit {
  std::string ProgName;
  std::string Spmd; ///< serialized program text
};

/// Connects to --server's daemon; prints and rethrows nothing — a
/// connection failure is reported and null returned.
std::unique_ptr<net::MsgStream> connectServer(const CliOptions &O) {
  try {
    return net::connectClient(O.Server);
  } catch (const net::TransportError &E) {
    std::cerr << "dhpfc: " << E.what() << "\n";
    return nullptr;
  }
}

/// Compiles one .hpf file through the compiler service — in-process via
/// CompilerService::global() by default, or on the dhpfd daemon with
/// --server=. Both paths produce byte-identical serialized programs.
/// Returns false with diagnostics already printed on any error.
bool compileViaService(const std::string &Path, const CliOptions &O,
                       CompiledUnit &Out) {
  std::string Text, Err;
  if (!readFile(Path, Text, Err)) {
    std::cerr << "dhpfc: " << Err << "\n";
    return false;
  }
  if (!O.Server.empty()) {
    std::unique_ptr<net::MsgStream> Stream = connectServer(O);
    if (!Stream)
      return false;
    try {
      rt::DaemonCompileResult R =
          rt::daemonCompile(*Stream, Path, Text, compilerOptions(O));
      if (!R.DiagText.empty())
        std::cerr << R.DiagText;
      if (!R.Ok)
        return false;
      if (O.Stats) {
        std::cout << "compiled '" << R.ProgName << "' (" << Path
                  << ") on daemon " << O.Server << ", served " << R.Served
                  << "\n"
                  << R.StatsText;
      }
      Out.ProgName = R.ProgName;
      Out.Spmd = std::move(R.Spmd);
      return true;
    } catch (const net::TransportError &E) {
      std::cerr << "dhpfc: " << E.what() << "\n";
      return false;
    }
  }
  core::CompileRequest R;
  R.Name = Path;
  R.Source = std::move(Text);
  R.Opts = compilerOptions(O);
  core::CompileSession Sess =
      core::CompilerService::global().openSession("dhpfc");
  std::shared_ptr<const core::CompileArtifact> A = Sess.compile(R);
  if (!A->DiagText.empty())
    std::cerr << A->DiagText;
  if (!A->Ok)
    return false;
  if (O.Stats) {
    std::cout << "compiled '" << A->ProgName << "' (" << Path << ")\n"
              << A->StatsText;
  }
  Out.ProgName = A->ProgName;
  Out.Spmd = A->Spmd;
  return true;
}

/// Reparses a serialized program for in-process execution, wiring the
/// runtime contiguity check the serialized form cannot carry.
std::unique_ptr<spmd::SpmdProgram> reparseSpmd(const std::string &Text,
                                               const std::string &Name) {
  DiagnosticEngine Diags;
  std::unique_ptr<spmd::SpmdProgram> SP =
      spmd::parseSpmdProgram(Text, Diags, Name);
  flushDiags(Diags);
  if (SP)
    SP->InPlaceRuntimeCheck = &core::checkInPlaceAtRuntime;
  return SP;
}

bool parseEngine(const std::string &S, spmd::EngineKind &Out) {
  if (S.empty() || S == "auto")
    Out = spmd::EngineKind::Auto;
  else if (S == "tree")
    Out = spmd::EngineKind::Tree;
  else if (S == "bytecode")
    Out = spmd::EngineKind::Bytecode;
  else if (S == "native")
    Out = spmd::EngineKind::Native;
  else
    return false;
  return true;
}

const char *engineName(spmd::EngineKind E) {
  switch (spmd::Interpreter::resolveEngine(E)) {
  case spmd::EngineKind::Tree:
    return "tree";
  case spmd::EngineKind::Native:
    return "native";
  default:
    return "bytecode";
  }
}

/// Materializes the engine-affecting options into the environment, so the
/// in-process engines, the version banner, and — crucially — the rank
/// processes a launch forks all resolve them identically.
void applyEngineEnv(const CliOptions &O) {
  if (!O.Engine.empty() && O.Engine != "auto")
    ::setenv("DHPF_SPMD_ENGINE", O.Engine.c_str(), 1);
  if (!O.KernelCache.empty())
    ::setenv("DHPF_KERNEL_CACHE", O.KernelCache.c_str(), 1);
  if (!O.Coll.empty())
    ::setenv("DHPF_COLL", O.Coll.c_str(), 1);
}

rt::SessionOptions sessionOptions(const CliOptions &O) {
  rt::SessionOptions SO;
  SO.NumProcs = O.NumProcs;
  SO.ProcShape = O.ProcShape;
  SO.Params = O.Params;
  SO.CheckValidity = !O.NoValidity;
  SO.UsePlacement = O.Place;
  return SO;
}

void printRunHeader(const rt::Session &S, const char *How) {
  int64_t TotalProcs = 1;
  for (int64_t E : S.Shape)
    TotalProcs *= E;
  std::cout << "ran '" << S.ProgName << "'";
  if (!S.Shape.empty()) {
    std::cout << " on " << TotalProcs << " procs (";
    for (size_t D = 0; D != S.Shape.size(); ++D)
      std::cout << (D ? "x" : "") << S.Shape[D];
    std::cout << ")";
  }
  std::cout << ", " << How << "\n";
}

/// \p TimeLabel names what ElapsedSeconds measures: the simulated
/// machine's clock in process, the slowest rank's wall clock after a
/// launch.
void printRunStats(const spmd::RunResult &RR, const char *TimeLabel) {
  std::cout << "  " << TimeLabel << ": " << RR.ElapsedSeconds
            << " s, messages: " << RR.Messages << ", bytes: " << RR.Bytes
            << ", stmt instances: " << RR.StmtInstances
            << ", in-place upgrades: " << RR.InPlaceRuntimeUpgrades
            << "\n";
  std::cout << "  span copies: " << RR.SpanCopies
            << ", packed copies: " << RR.PackedCopies
            << ", compute/comm overlap: " << RR.OverlapRatio << "\n";
  if (RR.CollMessages != 0)
    std::cout << "  collective frames: " << RR.CollMessages
              << ", collective bytes: " << RR.CollBytes << "\n";
  for (const auto &Acc : RR.FinalAccums)
    std::cout << "  accum " << Acc.first << " = " << Acc.second << "\n";
}

int reportInvalid(const spmd::RunResult &RR) {
  std::cerr << "dhpfc: run INVALID (" << RR.Violations.size()
            << " recorded violations)\n";
  for (const std::string &V : RR.Violations)
    std::cerr << "  " << V << "\n";
  return 1;
}

/// Executes an SPMD program (from `run` or `pipeline`). Returns the
/// process exit code.
int runProgram(const spmd::SpmdProgram &SP, const CliOptions &O) {
  std::string Err;
  std::optional<rt::Session> S = rt::resolveSession(SP, sessionOptions(O), Err);
  if (!S) {
    std::cerr << "dhpfc: " << Err << "\n";
    return 2;
  }
  spmd::RunConfig RC = S->Config;
  if (O.Sequential)
    RC.ExecThreads = 1;
  if (!parseEngine(O.Engine, RC.Engine)) {
    std::cerr << "dhpfc: unknown engine '" << O.Engine
              << "' (want tree|bytecode|native|auto)\n";
    return 2;
  }
  applyEngineEnv(O);

  spmd::Interpreter I(SP, RC);
  S->setup(SP, I);
  spmd::RunResult RR = I.run();

  printRunHeader(*S, (std::string("engine ") + engineName(RC.Engine)).c_str());
  if (O.Stats)
    printRunStats(RR, "simulated time");
  if (!RR.Valid)
    return reportInvalid(RR);
  if (!O.NoCheck) {
    if (S->Reg && S->Canonical) {
      apps::AppInstance App = S->Reg->MakeCanonical();
      if (App.Check) {
        std::string CheckErr;
        if (!App.Check(I, CheckErr)) {
          std::cerr << "dhpfc: reference check FAILED: " << CheckErr << "\n";
          return 1;
        }
        std::cout << "reference check: OK\n";
      }
    } else if (S->Reg) {
      std::cout << "note: program differs from the canonical '"
                << S->ProgName << "' export; reference check skipped\n";
    }
  }
  return 0;
}

/// Bitwise comparison of a distributed run against an in-process engine
/// run of the same session. Returns a description of the first mismatch,
/// empty on agreement. Wall-clock time and the overlap ratio are real
/// measurements, not simulation outputs, and are excluded.
std::string compareRuns(const rt::MergedRun &Dist, const spmd::RunResult &Ref,
                        const spmd::Interpreter &I) {
  auto Num = [](const char *What, uint64_t A, uint64_t B) {
    return std::string(What) + ": distributed " + std::to_string(A) +
           " vs in-process " + std::to_string(B);
  };
  if (Dist.R.Messages != Ref.Messages)
    return Num("messages", Dist.R.Messages, Ref.Messages);
  if (Dist.R.Bytes != Ref.Bytes)
    return Num("bytes", Dist.R.Bytes, Ref.Bytes);
  if (Dist.R.SpanCopies != Ref.SpanCopies)
    return Num("span copies", Dist.R.SpanCopies, Ref.SpanCopies);
  if (Dist.R.PackedCopies != Ref.PackedCopies)
    return Num("packed copies", Dist.R.PackedCopies, Ref.PackedCopies);
  if (Dist.R.StmtInstances != Ref.StmtInstances)
    return Num("stmt instances", Dist.R.StmtInstances, Ref.StmtInstances);
  if (Dist.R.InPlaceRuntimeUpgrades != Ref.InPlaceRuntimeUpgrades)
    return Num("in-place upgrades", Dist.R.InPlaceRuntimeUpgrades,
               Ref.InPlaceRuntimeUpgrades);
  if (Dist.R.Valid != Ref.Valid)
    return "validity verdicts differ";
  if (Dist.R.FinalAccums.size() != Ref.FinalAccums.size())
    return "accumulator sets differ";
  for (const auto &[Name, V] : Ref.FinalAccums) {
    auto It = Dist.R.FinalAccums.find(Name);
    if (It == Dist.R.FinalAccums.end())
      return "accumulator '" + Name + "' missing from distributed run";
    if (std::memcmp(&It->second, &V, sizeof(double)) != 0)
      return "accumulator '" + Name + "' bits differ";
  }
  for (const auto &[Name, A] : Dist.Arrays) {
    const spmd::ArrayStore &B = I.array(Name);
    if (A.size() != B.size())
      return "array '" + Name + "' sizes differ";
    if (std::memcmp(A.values().data(), B.values().data(),
                    A.size() * sizeof(double)) != 0) {
      for (size_t F = 0; F != A.size(); ++F)
        if (std::memcmp(&A.values()[F], &B.values()[F], sizeof(double)) != 0)
          return "array '" + Name + "' differs first at flat " +
                 std::to_string(F);
    }
  }
  return "";
}

/// `dhpfc launch`: run the program across real rank processes over the
/// socket mesh, then (unless --no-check) re-run in-process and demand
/// bit-identical results.
int cmdLaunch(const CliOptions &O, const char *Argv0) {
  spmd::EngineKind EK;
  if (!parseEngine(O.Engine, EK)) {
    std::cerr << "dhpfc: unknown engine '" << O.Engine
              << "' (want tree|bytecode|native|auto)\n";
    return 2;
  }
  // Before any fork: the rank processes must resolve the same engine and
  // kernel cache as the in-process oracle below.
  applyEngineEnv(O);
  std::string Text, Err;
  if (!readFile(O.Input, Text, Err)) {
    std::cerr << "dhpfc: " << Err << "\n";
    return 1;
  }
  // Accept either a serialized .spmd or an .hpf source; the latter is
  // compiled here and serialized to a temp file the rank processes load.
  // The guard is armed the moment the temp file exists, so every return
  // below — parse failure, session failure, launch failure — removes it.
  struct TempFileGuard {
    std::string Path;
    ~TempFileGuard() {
      if (!Path.empty())
        ::unlink(Path.c_str());
    }
  } Guard;
  std::string SpmdPath = O.Input;
  std::unique_ptr<spmd::SpmdProgram> SP;
  if (O.Input.size() > 4 &&
      O.Input.compare(O.Input.size() - 4, 4, ".hpf") == 0) {
    CompiledUnit CU;
    if (!compileViaService(O.Input, O, CU))
      return 1;
    const char *Tmp = std::getenv("TMPDIR");
    std::string TempSpmd = std::string(Tmp && *Tmp ? Tmp : "/tmp") +
                           "/dhpfc_launch_" +
                           std::to_string(static_cast<long>(getpid())) +
                           ".spmd";
    if (!writeFile(TempSpmd, CU.Spmd, Err)) {
      std::cerr << "dhpfc: " << Err << "\n";
      return 1;
    }
    Guard.Path = TempSpmd;
    SpmdPath = TempSpmd;
    SP = reparseSpmd(CU.Spmd, SpmdPath);
  } else {
    SP = reparseSpmd(Text, O.Input);
  }
  if (!SP)
    return 1;

  std::optional<rt::Session> S =
      rt::resolveSession(*SP, sessionOptions(O), Err);
  if (!S) {
    std::cerr << "dhpfc: " << Err << "\n";
    return 2;
  }

  rt::LaunchOptions LO;
  LO.SpmdPath = SpmdPath;
  LO.TimeoutMs = O.TimeoutMs;
  LO.KeepDir = O.KeepMesh;
  LO.Hosts = O.Hosts;
  LO.Trace = obs::TraceBuffer::global().active();
  LO.RtBinary = rt::findRtBinary(O.RtBin, Argv0);
  if (LO.RtBinary.empty()) {
    std::cerr << "dhpfc: cannot find the dhpf_rt binary (try --rt-bin= or "
                 "DHPF_RT_BIN)\n";
    return 2;
  }

  rt::LaunchResult LR = rt::launchRanks(*SP, *S, LO);
  for (const std::string &Doc : LR.RankTraces)
    if (!Doc.empty())
      extraTraceDocs().push_back(Doc);
  if (!LR.Ok) {
    std::cerr << "dhpfc: launch FAILED:\n" << LR.Error << "\n";
    if (!LR.Dir.empty())
      std::cerr << "  mesh directory kept at " << LR.Dir << "\n";
    return 1;
  }

  printRunHeader(*S, (std::to_string(LR.NumRanks) +
                      " rank processes over " +
                      (O.Hosts.empty() ? "unix sockets" : "tcp"))
                         .c_str());
  if (O.Stats)
    printRunStats(LR.Merged.R, "rank wall time (max)");
  if (!LR.Merged.R.Valid)
    return reportInvalid(LR.Merged.R);

  if (!O.NoCheck) {
    // Differential oracle: the same session through the in-process engine
    // must agree bit for bit.
    spmd::RunConfig RC = S->Config;
    if (!parseEngine(O.Engine, RC.Engine)) {
      std::cerr << "dhpfc: unknown engine '" << O.Engine
                << "' (want tree|bytecode|native|auto)\n";
      return 2;
    }
    spmd::Interpreter I(*SP, RC);
    S->setup(*SP, I);
    spmd::RunResult Ref = I.run();
    std::string Mismatch = compareRuns(LR.Merged, Ref, I);
    if (!Mismatch.empty()) {
      std::cerr << "dhpfc: distributed run DIVERGED from the "
                << engineName(RC.Engine) << " engine: " << Mismatch << "\n";
      return 1;
    }
    std::cout << "in-process agreement (" << engineName(RC.Engine)
              << " engine): OK\n";
  }
  if (!LR.Dir.empty())
    std::cout << "mesh directory kept at " << LR.Dir << "\n";
  return 0;
}

/// Loads the input program for analysis commands: an .hpf source is
/// compiled through the service, anything else is parsed as serialized
/// SPMD. Null (with diagnostics printed) on failure.
std::unique_ptr<spmd::SpmdProgram> loadProgram(const CliOptions &O) {
  if (O.Input.size() > 4 &&
      O.Input.compare(O.Input.size() - 4, 4, ".hpf") == 0) {
    CompiledUnit CU;
    if (!compileViaService(O.Input, O, CU))
      return nullptr;
    return reparseSpmd(CU.Spmd, O.Input + ":spmd");
  }
  std::string Text, Err;
  if (!readFile(O.Input, Text, Err)) {
    std::cerr << "dhpfc: " << Err << "\n";
    return nullptr;
  }
  return reparseSpmd(Text, O.Input);
}

/// `dhpfc place`: enumerate every processor shape laying -p processors on
/// the program's grid, price each by its comm-set traffic, and print the
/// ranked table. The registry's hand-picked shape (when the program is a
/// canonical benchmark) is flagged for comparison.
int cmdPlace(const CliOptions &O) {
  std::unique_ptr<spmd::SpmdProgram> SP = loadProgram(O);
  if (!SP)
    return 1;
  std::string Err;
  if (!rt::checkParams(*SP, O.Params, Err)) {
    std::cerr << "dhpfc: " << Err << "\n";
    return 2;
  }
  std::string ProgName = SP->Source ? SP->Source->name() : "<unknown>";
  std::vector<placement::Candidate> Cands = placement::searchShapes(
      *SP, O.NumProcs, O.Params, placement::MachineCost());
  if (Cands.empty()) {
    std::cerr << "dhpfc: no shape lays " << O.NumProcs
              << " processors onto the '" << SP->ProcName << "' grid\n";
    return 1;
  }
  std::vector<int64_t> RegShape;
  if (const apps::RegistryEntry *Reg = apps::findApp(ProgName))
    RegShape = Reg->ProcShape(O.NumProcs);
  auto ShapeStr = [](const std::vector<int64_t> &Sh) {
    std::string S;
    for (size_t D = 0; D != Sh.size(); ++D)
      S += (D ? "x" : "") + std::to_string(Sh[D]);
    return S;
  };
  std::cout << "placement for '" << ProgName << "' on " << O.NumProcs
            << " procs (" << Cands.size() << " candidate shape"
            << (Cands.size() == 1 ? "" : "s") << "):\n";
  std::printf("  %-10s %10s %12s %14s %12s\n", "shape", "msgs", "bytes",
              "max-rank B", "est cost");
  for (size_t I = 0; I != Cands.size(); ++I) {
    const placement::Candidate &C = Cands[I];
    std::string Tags;
    if (I == 0)
      Tags += "  <- placed";
    if (!RegShape.empty() && C.Shape == RegShape)
      Tags += "  (registry)";
    std::printf("  %-10s %10llu %12llu %14llu %12.3e%s\n",
                ShapeStr(C.Shape).c_str(),
                static_cast<unsigned long long>(C.Traffic.totalMessages()),
                static_cast<unsigned long long>(C.Traffic.totalBytes()),
                static_cast<unsigned long long>(C.Traffic.maxRankBytes()),
                C.Cost, Tags.c_str());
  }
  return 0;
}

std::string defaultOutputPath(const std::string &Input) {
  size_t Dot = Input.find_last_of('.');
  size_t Slash = Input.find_last_of('/');
  if (Dot == std::string::npos ||
      (Slash != std::string::npos && Dot < Slash))
    return Input + ".spmd";
  return Input.substr(0, Dot) + ".spmd";
}

int cmdCompile(const CliOptions &O) {
  CompiledUnit CU;
  if (!compileViaService(O.Input, O, CU))
    return 1;
  std::string Path = O.Output.empty() ? defaultOutputPath(O.Input) : O.Output;
  std::string Err;
  if (!writeFile(Path, CU.Spmd, Err)) {
    std::cerr << "dhpfc: " << Err << "\n";
    return 1;
  }
  if (Path != "-")
    std::cout << "wrote " << Path << "\n";
  return 0;
}

int cmdRun(const CliOptions &O) {
  std::string Text, Err;
  if (!readFile(O.Input, Text, Err)) {
    std::cerr << "dhpfc: " << Err << "\n";
    return 1;
  }
  if (!O.Server.empty()) {
    // Remote run: the daemon executes and returns the engine-independent
    // summary; the verdicts inside it drive the exit code.
    std::unique_ptr<net::MsgStream> Stream = connectServer(O);
    if (!Stream)
      return 1;
    try {
      rt::DaemonRunResult R =
          rt::daemonRun(*Stream, Text, sessionOptions(O), !O.NoCheck);
      if (!R.Ok) {
        std::cerr << "dhpfc: daemon run failed: " << R.Error << "\n";
        return 1;
      }
      std::cout << "ran on daemon " << O.Server << ":\n" << R.Summary;
      bool Invalid = R.Summary.find("valid 0\n") != std::string::npos;
      bool CheckFailed =
          R.Summary.find("check failed:") != std::string::npos;
      return (Invalid || CheckFailed) ? 1 : 0;
    } catch (const net::TransportError &E) {
      std::cerr << "dhpfc: " << E.what() << "\n";
      return 1;
    }
  }
  std::unique_ptr<spmd::SpmdProgram> SP = reparseSpmd(Text, O.Input);
  if (!SP)
    return 1;
  return runProgram(*SP, O);
}

int cmdPipeline(const CliOptions &O) {
  CompiledUnit CU;
  if (!compileViaService(O.Input, O, CU))
    return 1;
  // The service hands back the serialized form, so `pipeline` inherently
  // exercises the same round trip as compile-to-file + run-from-file.
  std::unique_ptr<spmd::SpmdProgram> SP =
      reparseSpmd(CU.Spmd, O.Input + ":spmd");
  if (!SP) {
    std::cerr << "dhpfc: internal error: serialized program failed to "
                 "reparse\n";
    return 1;
  }
  std::cout << "pipeline: compiled '" << CU.ProgName << "', round-tripped "
            << CU.Spmd.size() << " bytes\n";
  return runProgram(*SP, O);
}

int cmdExport(const CliOptions &O) {
  for (const apps::RegistryEntry &E : apps::appRegistry()) {
    apps::AppInstance App = E.MakeCanonical();
    std::string Text = "! " + E.Name + ": " + E.Summary +
                       "\n! canonical export (dhpfc export)\n" +
                       hpf::printHpfProgram(*App.Prog);
    std::string Path = O.ExportDir + "/" + E.Name + ".hpf";
    std::string Err;
    if (!writeFile(Path, Text, Err)) {
      std::cerr << "dhpfc: " << Err << "\n";
      return 1;
    }
    std::cout << "wrote " << Path << "\n";
  }
  return 0;
}

int cmdList() {
  for (const apps::RegistryEntry &E : apps::appRegistry())
    std::cout << E.Name << "  -  " << E.Summary << "\n";
  return 0;
}

int cmdDaemonStats(const CliOptions &O) {
  std::unique_ptr<net::MsgStream> Stream = connectServer(O);
  if (!Stream)
    return 1;
  try {
    std::cout << rt::daemonStats(*Stream);
    return 0;
  } catch (const net::TransportError &E) {
    std::cerr << "dhpfc: " << E.what() << "\n";
    return 1;
  }
}

int cmdShutdown(const CliOptions &O) {
  std::unique_ptr<net::MsgStream> Stream = connectServer(O);
  if (!Stream)
    return 1;
  try {
    rt::daemonShutdown(*Stream);
    std::cout << "daemon on " << O.Server << " stopping\n";
    return 0;
  } catch (const net::TransportError &E) {
    std::cerr << "dhpfc: " << E.what() << "\n";
    return 1;
  }
}

} // namespace

/// Writes the --trace / --metrics outputs (no-ops when not requested).
/// The driver's buffer plus any per-rank documents a launch collected are
/// merged into one timeline; metrics pick JSON or text by extension.
void writeObsReports(const CliOptions &O) {
  if (!O.TracePath.empty()) {
    obs::TraceBuffer::global().stop();
    std::vector<std::string> Docs = {obs::TraceBuffer::global().chromeJson()};
    for (std::string &Doc : extraTraceDocs())
      Docs.push_back(std::move(Doc));
    std::string Err;
    if (!writeFile(O.TracePath, obs::mergeChromeTraces(Docs), Err))
      std::cerr << "dhpfc: " << Err << "\n";
  }
  if (!O.MetricsPath.empty()) {
    pset::OpCache::global().publishMetrics();
    obs::MetricsRegistry &R = obs::MetricsRegistry::global();
    bool Json = O.MetricsPath.size() > 5 &&
                O.MetricsPath.compare(O.MetricsPath.size() - 5, 5,
                                      ".json") == 0;
    std::string Err;
    if (!writeFile(O.MetricsPath, Json ? R.reportJson() : R.reportText(),
                   Err))
      std::cerr << "dhpfc: " << Err << "\n";
  }
}

int dispatch(const std::string &Cmd, const CliOptions &O, const char *Argv0) {
  if (Cmd == "list")
    return cmdList();
  if (Cmd == "export")
    return cmdExport(O);
  if (Cmd == "stats" || Cmd == "shutdown") {
    if (O.Server.empty()) {
      std::cerr << "dhpfc: " << Cmd << " requires --server=<socket>\n";
      return 2;
    }
    return Cmd == "stats" ? cmdDaemonStats(O) : cmdShutdown(O);
  }
  if (O.Input.empty()) {
    std::cerr << "dhpfc: " << Cmd << " requires an input file\n";
    return 2;
  }
  if (Cmd == "compile")
    return cmdCompile(O);
  if (Cmd == "run")
    return cmdRun(O);
  if (Cmd == "launch")
    return cmdLaunch(O, Argv0);
  if (Cmd == "place")
    return cmdPlace(O);
  if (Cmd == "pipeline")
    return cmdPipeline(O);
  std::cerr << "dhpfc: unknown command '" << Cmd << "'\n";
  return usage(Argv0);
}

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage(Argv[0]);
  std::string Cmd = Argv[1];
  if (Cmd == "--version" || Cmd == "version")
    return printVersion();
  CliOptions O;
  if (!parseArgs(Argc, Argv, O))
    return 2;
  // The env vars mirror the flags so wrapper scripts (and the rank
  // processes a launch spawns) can request profiles without CLI changes.
  if (O.TracePath.empty())
    if (const char *Env = std::getenv("DHPF_TRACE"))
      O.TracePath = Env;
  if (O.MetricsPath.empty())
    O.MetricsPath = obs::metricsPathFromEnv();
  if (!O.TracePath.empty()) {
    obs::TraceBuffer::global().setLane(0, "driver");
    obs::TraceBuffer::global().start();
  }
  int Rc = dispatch(Cmd, O, Argv[0]);
  writeObsReports(O);
  return Rc;
}
