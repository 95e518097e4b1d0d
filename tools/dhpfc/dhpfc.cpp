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
#include "support/Flags.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
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
      << "  --no-combined        per-reference comm equations instead of the "
         "combined\n"
      << "                       formulation (Section 5)\n"
      << "  --sequential         single-threaded analysis and execution\n"
      << "  --threads=<n>        analysis worker threads, 0.."
      << core::MaxAnalysisThreads << " (0 = hardware)\n"
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
  if (rt::readWholeFile(Path, Out))
    return true;
  Err = "cannot open '" + Path + "' for reading";
  return false;
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

struct CliOptions {
  std::string Input;
  std::string Output;
  std::string ExportDir = ".";
  core::CompilerOptions Compile; ///< compile flags, plus -dump-after
  rt::SessionOptions Session; ///< -p/--procs/--param/--place/--engine/...
  bool Sequential = false;
  bool Stats = false;
  bool NoCheck = false;
  std::string KernelCache; ///< --kernel-cache= native cache dir override
  std::string Server;  ///< --server= daemon socket (empty = in-process)
  std::string RtBin;   ///< --rt-bin override for launch
  std::string Hosts;   ///< --hosts= TCP rank spec ('auto' = loopback)
  std::string Coll;    ///< --coll= reduction collective algorithm
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

/// Expands a -dump-after list ("all" or comma-separated pass names) into
/// pass names. False with \p Err naming the first unknown one.
bool parseDumpAfter(const std::string &List, std::vector<std::string> &Out,
                    std::string &Err) {
  const std::vector<std::string> Passes = core::passNames();
  std::istringstream In(List);
  for (std::string Name; std::getline(In, Name, ',');) {
    if (Name == "all") {
      Out.insert(Out.end(), Passes.begin(), Passes.end());
    } else if (std::find(Passes.begin(), Passes.end(), Name) != Passes.end()) {
      Out.push_back(Name);
    } else {
      Err = "unknown pass '" + Name + "' in -dump-after (valid: all";
      for (const std::string &P : Passes)
        Err += ", " + P;
      Err += ")";
      return false;
    }
  }
  return true;
}

/// Parses everything after the subcommand. Returns false (after printing
/// the offending option) on a usage error. The session flags go to
/// rt/Session's parser, the compile flags to core/Compiler's.
bool parseArgs(const std::vector<std::string> &Args, CliOptions &O) {
  for (size_t I = 0; I < Args.size(); ++I) {
    std::string Err;
    FlagArg FA = rt::parseSessionArg(Args, I, O.Session, Err);
    if (FA == FlagArg::NotMine)
      FA = core::parseCompileArg(Args[I], O.Compile, Err);
    if (FA == FlagArg::Bad) {
      std::cerr << "dhpfc: " << Err << "\n";
      return false;
    }
    if (FA == FlagArg::Taken)
      continue;
    const std::string &A = Args[I];
    std::string V;
    if (A == "-o" || A == "-d") {
      if (I + 1 >= Args.size()) {
        std::cerr << "dhpfc: " << A << " requires a value\n";
        return false;
      }
      (A == "-o" ? O.Output : O.ExportDir) = Args[++I];
    } else if (flagValue(A, "-dump-after=", V) ||
               flagValue(A, "--dump-after=", V)) {
      if (!parseDumpAfter(V, O.Compile.DumpAfter, Err)) {
        std::cerr << "dhpfc: " << Err << "\n";
        return false;
      }
    } else if (flagValue(A, "--kernel-cache=", V)) {
      O.KernelCache = V;
    } else if (flagValue(A, "--server=", V)) {
      O.Server = V;
    } else if (flagValue(A, "--rt-bin=", V)) {
      O.RtBin = V;
    } else if (flagValue(A, "--hosts=", V)) {
      O.Hosts = V;
    } else if (flagValue(A, "--coll=", V)) {
      try {
        coll::parseAlgo(V);
      } catch (const net::TransportError &) {
        std::cerr << "dhpfc: unknown collective '" << V
                  << "' (want naive|rdbl|auto)\n";
        return false;
      }
      O.Coll = V;
    } else if (flagValue(A, "--timeout-ms=", V)) {
      int64_t N;
      if (!parseInt(V, N) || N < 1 || N > INT32_MAX) {
        std::cerr << "dhpfc: invalid --timeout-ms '" << V << "'\n";
        return false;
      }
      O.TimeoutMs = static_cast<int>(N);
    } else if (flagValue(A, "--trace=", V)) {
      O.TracePath = V;
    } else if (flagValue(A, "--metrics=", V)) {
      O.MetricsPath = V;
    } else if (A == "--keep-mesh") {
      O.KeepMesh = true;
    } else if (A == "--sequential") {
      O.Sequential = true;
    } else if (A == "--stats") {
      O.Stats = true;
    } else if (A == "--no-check") {
      O.NoCheck = true;
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
  // --sequential wins over --threads=, wherever it stands.
  if (O.Sequential)
    O.Compile.AnalysisThreads = 1;
  return true;
}

/// What a compile produced, wherever it ran.
struct CompiledUnit {
  std::string ProgName;
  std::string Spmd; ///< serialized program text
};

/// Runs \p F on a connection to --server's daemon and returns its exit
/// code; a connection or transport failure is reported and exits 1.
template <typename Fn> int withServer(const CliOptions &O, Fn &&F) {
  try {
    std::unique_ptr<net::MsgStream> Stream = net::connectClient(O.Server);
    return F(*Stream);
  } catch (const net::TransportError &E) {
    std::cerr << "dhpfc: " << E.what() << "\n";
    return 1;
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
  if (!O.Server.empty())
    return withServer(O, [&](net::MsgStream &S) {
             rt::DaemonCompileResult R =
                 rt::daemonCompile(S, Path, Text, O.Compile);
             std::cerr << R.DiagText;
             if (!R.Ok)
               return 1;
             if (O.Stats)
               std::cout << "compiled '" << R.ProgName << "' (" << Path
                         << ") on daemon " << O.Server << ", served "
                         << R.Served << "\n"
                         << R.StatsText;
             Out.ProgName = R.ProgName;
             Out.Spmd = std::move(R.Spmd);
             return 0;
           }) == 0;
  core::CompileRequest R;
  R.Name = Path;
  R.Source = std::move(Text);
  R.Opts = O.Compile;
  std::shared_ptr<const core::CompileArtifact> A =
      core::CompilerService::global().compile(R);
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

bool isHpfPath(const std::string &Path) {
  return Path.size() > 4 && Path.compare(Path.size() - 4, 4, ".hpf") == 0;
}

/// Reparses a serialized program for in-process execution, wiring the
/// runtime contiguity check the serialized form cannot carry.
std::unique_ptr<spmd::SpmdProgram> reparseSpmd(const std::string &Text,
                                               const std::string &Name) {
  DiagnosticEngine Diags;
  std::unique_ptr<spmd::SpmdProgram> SP = rt::loadSpmd(Text, Name, Diags);
  std::cerr << Diags.str();
  return SP;
}

/// Materializes the runtime options that are not session flags into the
/// environment, so the in-process engines and the rank processes a launch
/// forks resolve them identically. (The engine is a session flag: ranks
/// receive it in their argv.)
void applyRuntimeEnv(const CliOptions &O) {
  if (!O.KernelCache.empty())
    ::setenv("DHPF_KERNEL_CACHE", O.KernelCache.c_str(), 1);
  if (!O.Coll.empty())
    ::setenv("DHPF_COLL", O.Coll.c_str(), 1);
}

/// A processor shape as "2x4".
std::string shapeStr(const std::vector<int64_t> &Sh) {
  std::string S;
  for (size_t D = 0; D != Sh.size(); ++D)
    S += (D ? "x" : "") + std::to_string(Sh[D]);
  return S;
}

void printRunHeader(const rt::Session &S, const char *How) {
  int64_t TotalProcs = 1;
  for (int64_t E : S.Shape)
    TotalProcs *= E;
  std::cout << "ran '" << S.ProgName << "'";
  if (!S.Shape.empty())
    std::cout << " on " << TotalProcs << " procs (" << shapeStr(S.Shape)
              << ")";
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
  std::optional<rt::Session> S = rt::resolveSession(SP, O.Session, Err);
  if (!S) {
    std::cerr << "dhpfc: " << Err << "\n";
    return 2;
  }
  if (O.Sequential)
    S->Config.ExecThreads = 1;
  applyRuntimeEnv(O);

  rt::SessionRun Run = rt::runSession(SP, *S, !O.NoCheck);
  printRunHeader(
      *S, (std::string("engine ") + rt::engineName(S->Config.Engine)).c_str());
  if (O.Stats)
    printRunStats(Run.R, "simulated time");
  if (!Run.R.Valid)
    return reportInvalid(Run.R);
  if (Run.Check.K == rt::CheckVerdict::Failed) {
    std::cerr << "dhpfc: reference check FAILED: " << Run.Check.Why << "\n";
    return 1;
  }
  if (Run.Check.K == rt::CheckVerdict::Ok)
    std::cout << "reference check: OK\n";
  else if (!O.NoCheck && S->Reg && !S->Canonical)
    std::cout << "note: program differs from the canonical '" << S->ProgName
              << "' export; reference check skipped\n";
  return 0;
}

/// Loads the input program: an .hpf source is compiled through the
/// service, anything else is read as serialized SPMD. \p Spmd, when given,
/// receives the serialized text. Null (with diagnostics printed) on
/// failure.
std::unique_ptr<spmd::SpmdProgram> loadProgram(const CliOptions &O,
                                               std::string *Spmd = nullptr) {
  std::string Text, Name = O.Input, Err;
  if (isHpfPath(O.Input)) {
    CompiledUnit CU;
    if (!compileViaService(O.Input, O, CU))
      return nullptr;
    Text = std::move(CU.Spmd);
    Name += ":spmd";
  } else if (!readFile(O.Input, Text, Err)) {
    std::cerr << "dhpfc: " << Err << "\n";
    return nullptr;
  }
  std::unique_ptr<spmd::SpmdProgram> SP = reparseSpmd(Text, Name);
  if (Spmd)
    *Spmd = std::move(Text);
  return SP;
}

/// `dhpfc launch`: run the program across real rank processes over the
/// socket mesh, then (unless --no-check) re-run in-process and demand
/// bit-identical results.
int cmdLaunch(const CliOptions &O, const char *Argv0) {
  // Before any fork: the rank processes must resolve the same kernel
  // cache and collective as the in-process oracle below.
  applyRuntimeEnv(O);
  // Accept either a serialized .spmd or an .hpf source; the latter is
  // compiled here and serialized to a temp file the rank processes load.
  // The guard is armed the moment the temp file exists, so every return
  // below — session failure, launch failure — removes it.
  struct TempFileGuard {
    std::string Path;
    ~TempFileGuard() {
      if (!Path.empty())
        ::unlink(Path.c_str());
    }
  } Guard;
  std::string Spmd, Err;
  std::unique_ptr<spmd::SpmdProgram> SP = loadProgram(O, &Spmd);
  if (!SP)
    return 1;
  std::string SpmdPath = O.Input;
  if (isHpfPath(O.Input)) {
    const char *Tmp = std::getenv("TMPDIR");
    SpmdPath = std::string(Tmp && *Tmp ? Tmp : "/tmp") + "/dhpfc_launch_" +
               std::to_string(static_cast<long>(getpid())) + ".spmd";
    if (!writeFile(SpmdPath, Spmd, Err)) {
      std::cerr << "dhpfc: " << Err << "\n";
      return 1;
    }
    Guard.Path = SpmdPath;
  }

  std::optional<rt::Session> S = rt::resolveSession(*SP, O.Session, Err);
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
    rt::SessionRun Ref = rt::runSession(*SP, *S, /*Check=*/false);
    std::string Mismatch = rt::diffLaunch(LR.Merged, Ref.R, *Ref.Interp);
    const char *Engine = rt::engineName(S->Config.Engine);
    if (!Mismatch.empty()) {
      std::cerr << "dhpfc: distributed run DIVERGED from the " << Engine
                << " engine: " << Mismatch << "\n";
      return 1;
    }
    std::cout << "in-process agreement (" << Engine << " engine): OK\n";
  }
  if (!LR.Dir.empty())
    std::cout << "mesh directory kept at " << LR.Dir << "\n";
  return 0;
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
  const rt::SessionOptions &SO = O.Session;
  if (!rt::checkParams(*SP, SO.Params, Err)) {
    std::cerr << "dhpfc: " << Err << "\n";
    return 2;
  }
  std::string ProgName = SP->Source ? SP->Source->name() : "<unknown>";
  std::vector<placement::Candidate> Cands = placement::searchShapes(
      *SP, SO.NumProcs, SO.Params, placement::MachineCost());
  if (Cands.empty()) {
    std::cerr << "dhpfc: no shape lays " << SO.NumProcs
              << " processors onto the '" << SP->ProcName << "' grid\n";
    return 1;
  }
  std::vector<int64_t> RegShape;
  if (const apps::RegistryEntry *Reg = apps::findApp(ProgName))
    RegShape = Reg->ProcShape(SO.NumProcs);
  std::cout << "placement for '" << ProgName << "' on " << SO.NumProcs
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
                shapeStr(C.Shape).c_str(),
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
  if (isHpfPath(O.Input)) {
    std::cerr << "dhpfc: run expects a serialized .spmd program, got '"
              << O.Input << "'; compile it, or use 'dhpfc pipeline' or "
              << "'dhpfc launch', which accept .hpf\n";
    return 2;
  }
  std::string Text, Err;
  if (!readFile(O.Input, Text, Err)) {
    std::cerr << "dhpfc: " << Err << "\n";
    return 1;
  }
  if (!O.Server.empty())
    // Remote run: the daemon returns the engine-independent summary plus
    // the validity and check verdicts that drive the exit code.
    return withServer(O, [&](net::MsgStream &S) {
      rt::DaemonRunResult R = rt::daemonRun(S, Text, O.Session, !O.NoCheck);
      if (!R.Ok) {
        std::cerr << "dhpfc: daemon run failed: " << R.Error << "\n";
        return R.Usage ? 2 : 1; // a rejected session exits as locally
      }
      std::cout << "ran on daemon " << O.Server << ":\n"
                << R.Summary << "check " << rt::CheckVerdict::Names[R.Check.K]
                << (R.Check.Why.empty() ? "" : ": " + R.Check.Why) << "\n";
      return R.Valid && R.Check.K != rt::CheckVerdict::Failed ? 0 : 1;
    });
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
  return withServer(O, [](net::MsgStream &S) {
    std::cout << rt::daemonStats(S);
    return 0;
  });
}

int cmdShutdown(const CliOptions &O) {
  return withServer(O, [&O](net::MsgStream &S) {
    rt::daemonShutdown(S);
    std::cout << "daemon on " << O.Server << " stopping\n";
    return 0;
  });
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
  if (!parseArgs(std::vector<std::string>(Argv + 2, Argv + Argc), O))
    return 2;
  if (!O.Compile.DumpAfter.empty() && !O.Server.empty()) {
    std::cerr << "dhpfc: -dump-after cannot be combined with --server=: "
                 "the daemon returns no IR dumps\n";
    return 2;
  }
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
