//===- bench_e2e/driver.cpp - End-to-end, layer-by-layer benchmark -------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the whole toolchain from outside, the way `dhpfc launch` does:
/// mini-HPF text -> CompilerService (cold OpCache, artifact cache bypassed)
/// -> .spmd parse -> rt::launchRanks over a Unix or TCP mesh on the native
/// engine -> merged result, timed by the wall clock. Around that path it
/// times each layer's public entry point, runs every program in-process on
/// the native engine, and checks every result bit for bit against the tree
/// interpreter (the oracle), off the clock.
///
///   bench_e2e --workload W --seed N --seconds S --trace 0|1
///             --state DIR --rt-bin PATH [--revision TEXT]
///
/// With --trace 1 every other iteration records the program's own obs
/// spans in the driver and in each rank; the run then prints a per-layer
/// self-time table, writes one merged Chrome trace per program, and reports
/// the per-layer metrics. The last stdout line is one JSON object.
///
//===----------------------------------------------------------------------===//

#include "layers.h"

#include "apps/Apps.h"
#include "coll/Collective.h"
#include "core/CompilerService.h"
#include "core/InPlace.h"
#include "hpf/HpfParser.h"
#include "hpf/HpfPrinter.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "pset/OpCache.h"
#include "rt/Launch.h"
#include "rt/RankResult.h"
#include "rt/Session.h"
#include "spmd/ExecPlan.h"
#include "spmd/Interp.h"
#include "spmd/KernelCache.h"
#include "spmd/Layout.h"
#include "spmd/NativeGen.h"
#include "spmd/Serialize.h"
#include "support/Diag.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <regex>
#include <sstream>
#include <string>
#include <malloc.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace dhpf;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Rank processes per launch, and the cap on threads, whatever the host.
constexpr unsigned MaxParallel = 4;
constexpr int LaunchTimeoutMs = 30000;
/// Stop starting iterations once the run has used this much wall time, so
/// a slow host still finishes well inside the benchmark's time limit.
constexpr double RunBudgetS = 140.0;
/// Cold set-up passes per run (this process plus fresh ones); setup_s is
/// their median.
constexpr unsigned SetupPasses = 3;
/// Cold compiles of one program per iteration of a --trace 0 run (the timed
/// one first): repeated until they add up to ColdSampleS, at most this many.
constexpr int MaxColdSamples = 8;
constexpr double ColdSampleS = 0.2;
/// The reference job's median time on a 4-vCPU KVM guest at its usual
/// speed: end-to-end timings are scaled to a host running at this pace.
constexpr double RefNominalS = 0.019;
/// Where --trace 1 writes the merged Chrome traces.
const std::string TraceDir = ".bench_out";

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string State;
  std::string RtBin;
  std::string Revision = "unknown";
  /// Forced failures for the benchmark's own tests: net-fault,
  /// corrupt-merge, wipe-kernels or rank-fallback (applied after set-up).
  std::string Inject;
  bool SetupChild = false;
};

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct ProgramSpec {
  std::string Label;
  std::string Text; ///< the only thing the program under test receives
  std::string Fig7Label; ///< series in BENCH_fig7.json, if any
  /// The path ends at the reparsed .spmd artifact: no launch, no run.
  bool CompileOnly = false;
};

struct Workload {
  std::string Name;
  std::string Hosts; ///< "" = Unix-domain mesh, "auto" = TCP loopback
  std::vector<ProgramSpec> Programs;
};

ProgramSpec program(std::string Label, const apps::AppInstance &App,
                    std::string Fig7Label = "", bool CompileOnly = false) {
  return {std::move(Label), hpf::printHpfProgram(*App.Prog),
          std::move(Fig7Label), CompileOnly};
}

std::optional<Workload> makeWorkload(const std::string &Name) {
  // Execution outweighs compilation: big arrays, few steps, bulk halos.
  if (Name == "stencil-bulk")
    return Workload{Name,
                    "",
                    {program("tomcatv-514x3", apps::makeTomcatv(514, 3),
                             "tomcatv 514x514"),
                     program("erlebacher-64x2", apps::makeErlebacher(64, 2),
                             "erlebacher 64^3")}};
  // Tiny compute, many steps: per-message latency and reductions over TCP.
  if (Name == "timestep-tcp")
    return Workload{Name,
                    "auto",
                    {program("tomcatv-66x100", apps::makeTomcatv(66, 100)),
                     program("jacobi-32x400", apps::makeJacobi(32, 400))}};
  // Compilation dominates: the Table 1 subject and a large BLOCK program
  // are compiled only; the CYCLIC VP model (gauss) is also launched and
  // run in-process, which is enough to give the workload its e2e_s and
  // run_inproc_s. Launching the other two would measure what stencil-bulk
  // already does, and sp-sym's 30-procedure kernel would add seconds of
  // `cc` to every cold pass.
  if (Name == "compile-sym")
    return Workload{Name,
                    "",
                    {program("sp-sym", apps::makeSpLike(30, true), "",
                             /*CompileOnly=*/true),
                     program("gauss-96", apps::makeGauss(96)),
                     program("tomcatv-514x1", apps::makeTomcatv(514, 1), "",
                             /*CompileOnly=*/true)}};
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Bookkeeping
//===----------------------------------------------------------------------===//

/// One program's measurements in one pass, by metric name.
using Sample = std::map<std::string, double>;

struct Iteration {
  bool Traced = false;
  /// The driver's peak RSS on the timed path (compile, launch, merge),
  /// the largest over the iteration's programs.
  double PeakRssMb = 0;
  std::vector<size_t> Order;
  std::vector<Sample> PerProg;
};

/// Attempted and failed operations, with a note per failure.
struct Ledger {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Notes;

  /// Counts one operation; \p Err empty means it succeeded.
  void record(const std::string &Where, const std::string &Err) {
    ++Attempted;
    if (Err.empty())
      return;
    ++Failed;
    Notes.push_back(Where + ": " + Err);
    std::cerr << "bench_e2e: FAILED " << Where << ": " << Err << "\n";
  }
};

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Short, jittery timings: calls \p Once (which returns its own seconds)
/// at least \p MinReps times and until the calls add up to \p MinTotalS,
/// at most \p MaxReps times, and returns the fastest call. A 50-250 ms
/// multi-threaded run on a shared host is slowed by whatever else runs
/// during it; the fastest of a few calls shows the code's own cost.
double fastest(int MinReps, int MaxReps, double MinTotalS,
               const std::function<double()> &Once) {
  std::vector<double> V;
  double Total = 0;
  while (static_cast<int>(V.size()) < MaxReps &&
         (static_cast<int>(V.size()) < MinReps || Total < MinTotalS)) {
    V.push_back(Once());
    Total += V.back();
  }
  return *std::min_element(V.begin(), V.end());
}

/// A fixed, single-threaded job of the benchmark's own — sorting, ordered
/// map inserts, bulk copies — that no change to the program under test
/// alters. Timed all through a run, it measures how fast the shared host
/// runs: its speed drifts by up to ±25% over minutes, and every timing of
/// the program drifts with it. Returns seconds.
double referenceJob() {
  Clock::time_point T0 = Clock::now();
  std::vector<uint32_t> V(1u << 17);
  uint32_t X = 12345;
  for (uint32_t &E : V) {
    X = X * 1664525u + 1013904223u;
    E = X;
  }
  std::sort(V.begin(), V.end());
  std::map<uint32_t, uint32_t> M;
  for (uint32_t I = 0; I != (1u << 13); ++I)
    M[V[(I * 7919u) % V.size()]] = I;
  std::vector<char> A(4u << 20, 1), B(4u << 20);
  for (int R = 0; R != 4; ++R)
    std::memcpy(B.data(), A.data(), A.size());
  static volatile uint64_t Sink;
  Sink = Sink + V[V.size() / 2] + M.size() + static_cast<uint64_t>(B.back());
  return since(T0);
}

uint64_t counterValue(const char *Name) {
  return obs::MetricsRegistry::global().counter(Name)->value();
}

/// Returns freed heap to the system, then resets this process's peak-RSS
/// high-water mark (Linux clear_refs), so the next peak does not carry
/// memory that earlier work freed but the allocator kept.
void resetPeakRss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// This process's peak RSS in MB since start or the last reset.
double peakRssMb() {
  std::ifstream IS("/proc/self/status");
  std::string Line;
  while (std::getline(IS, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream OS(Path, std::ios::binary | std::ios::trunc);
  OS << Text;
  OS.close();
  return static_cast<bool>(OS);
}

bool readFile(const std::string &Path, std::string &Text) {
  std::ifstream IS(Path, std::ios::binary);
  if (!IS)
    return false;
  std::ostringstream SS;
  SS << IS.rdbuf();
  Text = SS.str();
  return true;
}

/// Removes a file when it goes out of scope, on every path.
struct TempFile {
  explicit TempFile(std::string P) : Path(std::move(P)) {}
  TempFile(const TempFile &) = delete;
  TempFile &operator=(const TempFile &) = delete;
  ~TempFile() {
    if (!Path.empty())
      ::unlink(Path.c_str());
  }
  const std::string Path;
};

/// Removes a directory tree when it goes out of scope.
struct TempDir {
  explicit TempDir(std::string P) : Path(std::move(P)) {}
  TempDir(const TempDir &) = delete;
  TempDir &operator=(const TempDir &) = delete;
  ~TempDir() {
    std::error_code EC;
    if (!Path.empty())
      fs::remove_all(Path, EC);
  }
  const std::string Path;
};

/// Identity of every kernel object in a cache directory; any change after
/// set-up means a rank or the driver compiled a kernel again.
std::map<std::string, std::pair<uint64_t, int64_t>>
kernelObjects(const std::string &Dir) {
  std::map<std::string, std::pair<uint64_t, int64_t>> Out;
  std::error_code EC;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir, EC)) {
    std::string Name = E.path().filename().string();
    if (Name.size() < 3 || Name.compare(Name.size() - 3, 3, ".so") != 0)
      continue;
    struct stat St{};
    if (::stat(E.path().c_str(), &St) == 0)
      Out[Name] = {static_cast<uint64_t>(St.st_ino),
                   static_cast<int64_t>(St.st_mtim.tv_sec) * 1000000000 +
                       St.st_mtim.tv_nsec};
  }
  return Out;
}

unsigned changedObjects(
    const std::map<std::string, std::pair<uint64_t, int64_t>> &Before,
    const std::map<std::string, std::pair<uint64_t, int64_t>> &After) {
  unsigned N = 0;
  for (const auto &[Name, Id] : After) {
    auto It = Before.find(Name);
    N += It == Before.end() || It->second != Id;
  }
  return N;
}

//===----------------------------------------------------------------------===//
// The oracle and result comparison
//===----------------------------------------------------------------------===//

/// The tree interpreter's result for one program: the reference every
/// launch and in-process run must reproduce bit for bit.
struct Reference {
  spmd::RunResult R;
  std::map<std::string, std::vector<double>> Arrays;
};

bool sameBits(double A, double B) { return std::memcmp(&A, &B, sizeof A) == 0; }

/// First difference between a run and the reference ("" when identical).
/// Wall-clock time, the overlap ratio and collective frame counts are
/// measurements, not results, and are not compared.
std::string
diffResult(const Reference &Ref, const spmd::RunResult &R,
           const std::function<const std::vector<double> *(const std::string &)>
               &ArrayOf) {
  auto Num = [](const char *What, uint64_t A, uint64_t B) {
    return std::string(What) + " " + std::to_string(A) + " vs oracle " +
           std::to_string(B);
  };
  if (!R.Valid)
    return "run reported " + std::to_string(R.Violations.size()) +
           " validity violations";
  if (R.Messages != Ref.R.Messages)
    return Num("messages", R.Messages, Ref.R.Messages);
  if (R.Bytes != Ref.R.Bytes)
    return Num("bytes", R.Bytes, Ref.R.Bytes);
  if (R.SpanCopies != Ref.R.SpanCopies)
    return Num("span copies", R.SpanCopies, Ref.R.SpanCopies);
  if (R.PackedCopies != Ref.R.PackedCopies)
    return Num("packed copies", R.PackedCopies, Ref.R.PackedCopies);
  if (R.StmtInstances != Ref.R.StmtInstances)
    return Num("stmt instances", R.StmtInstances, Ref.R.StmtInstances);
  if (R.InPlaceRuntimeUpgrades != Ref.R.InPlaceRuntimeUpgrades)
    return Num("in-place upgrades", R.InPlaceRuntimeUpgrades,
               Ref.R.InPlaceRuntimeUpgrades);
  if (R.FinalAccums.size() != Ref.R.FinalAccums.size())
    return "accumulator sets differ";
  for (const auto &[Name, V] : Ref.R.FinalAccums) {
    auto It = R.FinalAccums.find(Name);
    if (It == R.FinalAccums.end())
      return "accumulator '" + Name + "' missing";
    if (!sameBits(It->second, V))
      return "accumulator '" + Name + "' bits differ";
  }
  for (const auto &[Name, Want] : Ref.Arrays) {
    const std::vector<double> *Got = ArrayOf(Name);
    if (!Got)
      return "array '" + Name + "' missing";
    if (Got->size() != Want.size())
      return "array '" + Name + "' sizes differ";
    for (size_t F = 0; F != Want.size(); ++F)
      if (!sameBits((*Got)[F], Want[F]))
        return "array '" + Name + "' differs first at flat index " +
               std::to_string(F);
  }
  return "";
}

//===----------------------------------------------------------------------===//
// The runner
//===----------------------------------------------------------------------===//

/// Output of the timed .hpf -> merged-result path for one program.
struct PathResult {
  std::shared_ptr<const core::CompileArtifact> Art;
  std::unique_ptr<spmd::SpmdProgram> SP;
  std::optional<rt::Session> Sess;
  rt::LaunchResult LR;
  std::string CompileErr; ///< compile failed
  std::string LaunchErr;  ///< anything after the compile failed
};

class Runner {
public:
  Runner(const Options &O, Workload W)
      : O(O), W(std::move(W)), Svc(core::CompilerService::global()),
        Threads(std::min(MaxParallel, ThreadPool::hardwareThreads())) {
    Refs.resize(this->W.Programs.size());
    RefSpmd.resize(this->W.Programs.size());
    ColdSamples.resize(this->W.Programs.size());
  }

  int runMain();
  int runSetupChild();

private:
  const Options &O;
  Workload W;
  core::CompilerService &Svc;
  unsigned Threads;
  Ledger L;
  std::vector<std::unique_ptr<Reference>> Refs;
  std::vector<std::string> RefSpmd;
  std::string TmpDir, KernelDir;
  std::vector<double> SetupSamples;
  std::vector<Iteration> Iters;
  std::map<std::string, std::pair<uint64_t, int64_t>> WarmKernels;
  uint64_t KernelCompiles = 0, Fallbacks = 0;
  double CcSeconds = 0;
  /// Every cold compile of each program in a --trace 0 run, timed path
  /// and repeats.
  std::vector<std::vector<double>> ColdSamples;
  /// referenceJob() times: before each set-up pass and each program's
  /// timed path.
  std::vector<double> RefSamples;
  bool Measuring = false; ///< set-up is over; --inject applies

  void configureEnv(const std::string &KernelCacheDir);
  core::CompilerOptions compilerOptions() const;
  PathResult runPath(size_t P, unsigned NumProcs, bool Traced, Sample &S,
                     bool Launch = true);
  std::unique_ptr<spmd::Interpreter> runInProcess(const PathResult &Res,
                                                  spmd::RunResult &R,
                                                  double &Seconds,
                                                  std::string &Err);
  void ensureReference(size_t P, const PathResult &Res);
  double coldPass(bool Verify);
  void measureProgram(size_t P, bool Traced, Iteration &It, size_t Iter);
  void probeRankStartup(const PathResult &Res, Sample &S, std::string &Err);
  std::string analyzeTrace(size_t P, PathResult &Res,
                           const std::string &DriverDoc, Sample &S);
  void writeTrace(size_t P, const std::vector<std::string> &Docs);
  std::vector<size_t> order(size_t Iter) const;
  std::string verifyLaunch(size_t P, PathResult &Res);
  std::string verifyInProcess(size_t P, const spmd::Interpreter &I,
                              const spmd::RunResult &R);
  std::optional<double> childSetup(unsigned Rep);
  void measureCc();
  void printScaling();
  int report();
  std::string where(size_t P, const std::string &Phase, size_t Iter) const {
    return W.Programs[P].Label + " iteration " + std::to_string(Iter) + " " +
           Phase;
  }
};

void Runner::configureEnv(const std::string &KernelCacheDir) {
  TmpDir = O.State + "/tmp";
  KernelDir = KernelCacheDir;
  fs::create_directories(TmpDir);
  fs::create_directories(KernelDir);
  // Rank processes inherit all of this: private temp and mesh
  // directories, a private kernel cache, the native engine and the
  // default collective schedule.
  ::setenv("TMPDIR", TmpDir.c_str(), 1);
  ::setenv("DHPF_KERNEL_CACHE", KernelDir.c_str(), 1);
  ::setenv("DHPF_SPMD_ENGINE", "native", 1);
  ::setenv("DHPF_COLL", "auto", 1);
  for (const char *V :
       {"DHPF_TRACE", "DHPF_METRICS", "DHPF_NET_FAULT", "DHPF_NET_TIMEOUT_MS",
        "DHPF_NET_CONNECT_MS", "DHPF_SPMD_THREADS", "DHPF_PSET_CACHE",
        "DHPF_LAUNCH_TIMEOUT_MS", "DHPF_RT_BIN"})
    ::unsetenv(V);
  Svc.opCache().setEnabled(true);
}

core::CompilerOptions Runner::compilerOptions() const {
  core::CompilerOptions CO; // dhpfc's defaults, with the thread cap
  CO.AnalysisThreads = Threads;
  return CO;
}

/// Ranks of a launch whose stderr says they left the native engine.
unsigned rankFallbacks(const std::string &Dir, unsigned NumRanks) {
  unsigned N = 0;
  for (unsigned R = 0; R != NumRanks; ++R) {
    std::string Text;
    N += readFile(Dir + "/rank" + std::to_string(R) + ".err", Text) &&
         Text.find("falling back") != std::string::npos;
  }
  return N;
}

/// The timed path, exactly what `dhpfc launch prog.hpf -p N` does after
/// reading the file: compile through the service with a cold OpCache,
/// reparse the .spmd, resolve the session, write the .spmd the ranks
/// load, launch and merge. Without \p Launch it stops at the session.
/// Every launch keeps its result directory so the ranks' stderr can be
/// checked for native fallbacks off the clock; an untraced path then
/// removes it on the clock (what launchRanks does itself), a traced one
/// leaves it to analyzeTrace.
PathResult Runner::runPath(size_t P, unsigned NumProcs, bool Traced,
                           Sample &S, bool Launch) {
  PathResult Res;
  const ProgramSpec &Spec = W.Programs[P];
  obs::TraceBuffer *TB = &obs::TraceBuffer::global();
  core::CompileRequest Req;
  Req.Name = Spec.Label + ".hpf";
  Req.Source = Spec.Text;
  Req.Opts = compilerOptions();
  Req.BypassArtifactCache = true;
  Svc.opCache().clear(); // a fresh dhpfc process starts with none

  Clock::time_point T0 = Clock::now();
  {
    obs::TraceSpan Span(TB, "bench:compile", "bench");
    Res.Art = Svc.compile(Req);
  }
  Clock::time_point T1 = Clock::now();
  S["core.compile_s"] = std::chrono::duration<double>(T1 - T0).count();
  if (!Res.Art->Ok) {
    Res.CompileErr = "compile failed: " + Res.Art->DiagText;
    return Res;
  }
  {
    obs::TraceSpan Span(TB, "bench:spmd.parse", "bench");
    DiagnosticEngine Diags;
    Res.SP = spmd::parseSpmdProgram(Res.Art->Spmd, Diags, Spec.Label + ".spmd");
    if (Res.SP)
      Res.SP->InPlaceRuntimeCheck = &core::checkInPlaceAtRuntime;
    else
      Res.LaunchErr = ".spmd reparse failed: " + Diags.str();
  }
  Clock::time_point T2 = Clock::now();
  S["spmd.parse_s"] = std::chrono::duration<double>(T2 - T1).count();
  if (Spec.CompileOnly)
    S["e2e_s"] = std::chrono::duration<double>(T2 - T0).count();
  if (!Res.SP || Spec.CompileOnly)
    return Res;
  {
    obs::TraceSpan Span(TB, "bench:launch", "bench");
    rt::SessionOptions SO;
    SO.NumProcs = NumProcs;
    std::string Err;
    Res.Sess = rt::resolveSession(*Res.SP, SO, Err);
    if (!Res.Sess) {
      Res.LaunchErr = "session: " + Err;
      return Res;
    }
    if (!Launch)
      return Res;
    TempFile F{TmpDir + "/" + Spec.Label + ".spmd"};
    if (!writeFile(F.Path, Res.Art->Spmd)) {
      Res.LaunchErr = "cannot write " + F.Path;
      return Res;
    }
    rt::LaunchOptions LO;
    LO.SpmdPath = F.Path;
    LO.RtBinary = O.RtBin;
    LO.TimeoutMs = LaunchTimeoutMs;
    LO.KeepDir = true;
    LO.Trace = Traced;
    LO.Hosts = W.Hosts;
    Res.LR = rt::launchRanks(*Res.SP, *Res.Sess, LO);
  }
  Clock::time_point T3 = Clock::now();
  unsigned Fell = Res.LR.Dir.empty()
                      ? 0
                      : rankFallbacks(Res.LR.Dir, Res.LR.NumRanks);
  double RemoveS = 0;
  if (!Traced && !Res.LR.Dir.empty()) {
    Clock::time_point T4 = Clock::now();
    std::error_code EC;
    fs::remove_all(Res.LR.Dir, EC);
    Res.LR.Dir.clear();
    RemoveS = since(T4);
  }
  S["rt.launch_s"] = std::chrono::duration<double>(T3 - T2).count() + RemoveS;
  S["e2e_s"] = std::chrono::duration<double>(T3 - T0).count() + RemoveS;
  Fallbacks += Fell;
  if (!Res.LR.Ok)
    Res.LaunchErr = "launch failed: " + Res.LR.Error;
  else if (!Res.LR.Merged.R.Valid)
    Res.LaunchErr = "launch reported validity violations";
  else if (Fell)
    Res.LaunchErr = std::to_string(Fell) +
                    " rank(s) fell back from the native engine";
  return Res;
}

/// `dhpfc run`'s path on the parsed program: the in-process native engine
/// with up to MaxParallel threads. Times construction (plan build, kernel
/// load) plus semantics set-up plus the run.
std::unique_ptr<spmd::Interpreter>
Runner::runInProcess(const PathResult &Res, spmd::RunResult &R, double &Seconds,
                     std::string &Err) {
  spmd::RunConfig RC = Res.Sess->Config;
  RC.Engine = spmd::EngineKind::Native;
  RC.ExecThreads = Threads;
  uint64_t FallbacksBefore = counterValue("spmd.native.fallbacks");
  Clock::time_point T0 = Clock::now();
  auto I = std::make_unique<spmd::Interpreter>(*Res.SP, RC);
  Res.Sess->setup(*Res.SP, *I);
  R = I->run();
  Seconds = since(T0);
  if (uint64_t F = counterValue("spmd.native.fallbacks") - FallbacksBefore) {
    Fallbacks += F;
    Err = "in-process native engine fell back to bytecode";
  }
  return I;
}

void Runner::ensureReference(size_t P, const PathResult &Res) {
  if (Refs[P])
    return;
  spmd::RunConfig RC = Res.Sess->Config;
  RC.Engine = spmd::EngineKind::Tree;
  spmd::Interpreter I(*Res.SP, RC);
  Res.Sess->setup(*Res.SP, I);
  auto Ref = std::make_unique<Reference>();
  Ref->R = I.run();
  for (const auto &A : Res.SP->Source->arrays())
    Ref->Arrays[A.first] = I.array(A.first).values();
  Refs[P] = std::move(Ref);
}

std::vector<size_t> Runner::order(size_t Iter) const {
  std::vector<size_t> Order(W.Programs.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  std::mt19937_64 Rng(O.Seed * 1000003u + Iter);
  std::shuffle(Order.begin(), Order.end(), Rng);
  return Order;
}

std::string Runner::verifyLaunch(size_t P, PathResult &Res) {
  if (!Res.LaunchErr.empty())
    return Res.LaunchErr;
  std::map<std::string, spmd::ArrayStore> &Arrays = Res.LR.Merged.Arrays;
  if (Measuring && O.Inject == "corrupt-merge" && !Arrays.empty() &&
      Arrays.begin()->second.size() != 0) {
    double &V = Arrays.begin()->second.at(0);
    uint64_t Bits = 0;
    std::memcpy(&Bits, &V, sizeof Bits);
    Bits ^= 1;
    std::memcpy(&V, &Bits, sizeof Bits);
  }
  auto Lookup = [&](const std::string &Name) -> const std::vector<double> * {
    auto It = Arrays.find(Name);
    return It == Arrays.end() ? nullptr : &It->second.values();
  };
  return diffResult(*Refs[P], Res.LR.Merged.R, Lookup);
}

std::string Runner::verifyInProcess(size_t P, const spmd::Interpreter &I,
                                    const spmd::RunResult &R) {
  auto Lookup = [&](const std::string &Name) -> const std::vector<double> * {
    return &I.array(Name).values();
  };
  return diffResult(*Refs[P], R, Lookup);
}

/// One cold pass over the workload's programs — the first thing a fresh
/// process does: cold OpCache, empty kernel cache, so the ranks run `cc`.
/// Returns the on-clock seconds (the timed path plus the in-process run);
/// the oracle and the checks run off the clock, and only with \p Verify.
double Runner::coldPass(bool Verify) {
  double OnClock = 0;
  for (size_t P : order(0)) {
    Sample S;
    PathResult Res = runPath(P, MaxParallel, /*Traced=*/false, S);
    OnClock += S.count("e2e_s") ? S["e2e_s"] : S["core.compile_s"];
    std::string Where = W.Programs[P].Label + " set-up ";
    L.record(Where + "compile", Res.SP || !Res.CompileErr.empty()
                                    ? Res.CompileErr
                                    : Res.LaunchErr);
    if (Res.SP && Verify)
      RefSpmd[P] = Res.Art->Spmd;
    if (!Res.SP || W.Programs[P].CompileOnly)
      continue;
    if (!Res.Sess) {
      L.record(Where + "launch", Res.LaunchErr);
      continue;
    }
    spmd::RunResult IR;
    std::string RunErr;
    double RunS = 0;
    std::unique_ptr<spmd::Interpreter> I = runInProcess(Res, IR, RunS, RunErr);
    OnClock += RunS;
    std::string LaunchErr = Res.LaunchErr;
    if (Verify) {
      ensureReference(P, Res);
      LaunchErr = verifyLaunch(P, Res);
      if (RunErr.empty())
        RunErr = verifyInProcess(P, *I, IR);
    } else if (RunErr.empty() && !IR.Valid) {
      RunErr = "in-process run reported validity violations";
    }
    L.record(Where + "launch", LaunchErr);
    L.record(Where + "in-process run", RunErr);
  }
  return OnClock;
}

/// The start-up work every rank repeats before it runs, timed from
/// outside: layout, array stores, plan build, kernel source emission, and
/// a kernel load through a fresh KernelCache (compiler probe, disk-cache
/// hit, dlopen, table verification). After set-up the load must hit.
void Runner::probeRankStartup(const PathResult &Res, Sample &S,
                              std::string &Err) {
  Clock::time_point T0 = Clock::now();
  spmd::ProgramLayout Lay = spmd::resolveLayout(*Res.SP, Res.Sess->Config);
  std::map<std::string, spmd::ArrayStore> Arrays =
      spmd::buildArrayStores(*Res.SP, Res.Sess->Config, Lay);
  unsigned Upgrades = 0;
  std::vector<char> InPlace = spmd::resolveEventInPlace(*Res.SP, Lay, Upgrades);
  spmd::PlanBuild B = spmd::buildExecPlan(
      *Res.SP, {&Arrays, &Lay.AllBindings, &Lay.ProcShape, &InPlace});
  Clock::time_point T1 = Clock::now();
  spmd::native::PlanSource Src = spmd::native::emitPlanSource(B.Plan);
  Clock::time_point T2 = Clock::now();
  uint64_t CompilesBefore = counterValue("spmd.kernel.compile.invocations");
  spmd::native::KernelCache KC;
  std::string KErr;
  const spmd::native::Kernel *K = KC.get(Src, &KErr);
  Clock::time_point T3 = Clock::now();
  S["spmd.plan_build_s"] = std::chrono::duration<double>(T1 - T0).count();
  S["spmd.native.emit_s"] = std::chrono::duration<double>(T2 - T1).count();
  S["spmd.native.load_s"] = std::chrono::duration<double>(T3 - T2).count();
  if (!K) {
    ++Fallbacks;
    Err = "rank kernel unavailable (ranks would fall back): " + KErr;
  } else if (counterValue("spmd.kernel.compile.invocations") !=
             CompilesBefore) {
    Err = "rank kernel was not in the warm cache";
  }
}

/// Folds the driver lane of one traced path into layer figures: each
/// compile pass (pass:* spans, which run one after another) and the
/// compile time outside them.
void tracePasses(const std::string &DriverDoc, Sample &S) {
  double PassSum = 0;
  for (const bench::Span &Sp : bench::parseChromeSpans(DriverDoc))
    if (Sp.Name.rfind("pass:", 0) == 0) {
      double D = static_cast<double>(Sp.DurUs) * 1e-6;
      S["core.pass." + Sp.Name.substr(5) + "_s"] += D;
      PassSum += D;
    }
  S["core.compile.other_s"] = std::max(0.0, S["core.compile_s"] - PassSum);
  S["obs.covered_s"] = S["core.compile_s"] + S["spmd.parse_s"];
}

/// Folds one traced launch into layer figures: the critical rank's
/// breakdown from the rank lanes, and the rank-dump parse and merge
/// re-timed on the kept result files. Writes the merged Chrome trace.
/// Returns a failure note (a kept file is missing or bad) or "".
std::string Runner::analyzeTrace(size_t P, PathResult &Res,
                                 const std::string &DriverDoc, Sample &S) {
  std::string Err;
  TempDir Kept{Res.LR.Dir};

  bench::RankLayers Crit;
  double RunSum = 0;
  unsigned Ranks = 0;
  for (const std::string &Doc : Res.LR.RankTraces) {
    std::vector<bench::Span> Spans = bench::parseChromeSpans(Doc);
    bench::computeSelfTimes(Spans);
    bench::RankLayers RL = bench::rankLayers(Spans);
    RunSum += RL.RunS;
    ++Ranks;
    if (RL.RunS >= Crit.RunS)
      Crit = RL;
  }
  S["rt.rank.run_s"] = Crit.RunS;
  S["rt.rank.mean_run_s"] = Ranks ? RunSum / Ranks : 0.0;
  S["rt.rank.finish_s"] = Crit.FinishS;
  S["rt.rank.compute_s"] = Crit.ComputeS;
  S["rt.rank.send_s"] = Crit.SendS;
  S["rt.rank.recv_wait_s"] = Crit.RecvS;
  S["rt.rank.reduce_s"] = Crit.ReduceS;
  S["rt.rank.run_other_s"] = Crit.RunSelfS;
  S["rt.rank.native_s"] = Crit.NativeS;
  S["rt.launch_overhead_s"] = S["rt.launch_s"] - Crit.RunS;

  std::vector<rt::RankDump> Dumps(Res.LR.NumRanks);
  double Bytes = 0, ParseS = 0;
  for (unsigned R = 0; R != Res.LR.NumRanks; ++R) {
    std::string Base = Res.LR.Dir + "/rank" + std::to_string(R);
    std::string Text, PErr;
    if (!readFile(Base + ".result", Text)) {
      Err = "kept rank " + std::to_string(R) + " result file is missing";
      continue;
    }
    Bytes += static_cast<double>(Text.size());
    Clock::time_point T0 = Clock::now();
    if (!rt::parseRankDump(Text, Dumps[R], PErr))
      Err = "kept rank dump does not parse: " + PErr;
    ParseS += since(T0);
  }
  Clock::time_point T0 = Clock::now();
  rt::MergedRun Merged;
  std::string MErr;
  if (Err.empty() &&
      !rt::mergeRankDumps(*Res.SP, Res.Sess->Config, Dumps, Merged, MErr))
    Err = "kept rank dumps do not merge: " + MErr;
  S["rt.dump.merge_s"] = since(T0);
  S["rt.dump.parse_s"] = ParseS;
  S["rt.dump_bytes"] = Bytes;
  S["obs.covered_s"] += Crit.NativeS + Crit.RunS + Crit.FinishS + ParseS +
                        S["rt.dump.merge_s"];

  std::vector<std::string> Docs = {DriverDoc};
  for (const std::string &Doc : Res.LR.RankTraces)
    Docs.push_back(Doc);
  writeTrace(P, Docs);
  return Err;
}

/// Writes one program's merged Chrome trace (driver lane plus rank lanes)
/// into the output directory, replacing the previous traced iteration's.
void Runner::writeTrace(size_t P, const std::vector<std::string> &Docs) {
  std::string Path =
      TraceDir + "/trace-" + W.Name + "-" + W.Programs[P].Label + ".json";
  if (!writeFile(Path, obs::mergeChromeTraces(Docs)))
    std::cerr << "bench_e2e: cannot write " << Path << "\n";
}

/// One program in one measured iteration: the timed path, then — off the
/// clock — the checks against the oracle and the set-up artifact, and
/// either repeated cold compiles (--trace 0) or the warm recompile, the
/// layer probes and the in-process run (--trace 1).
void Runner::measureProgram(size_t P, bool Traced, Iteration &It,
                            size_t Iter) {
  Sample &S = It.PerProg[P];
  const ProgramSpec &Spec = W.Programs[P];
  obs::TraceBuffer &TB = obs::TraceBuffer::global();
  if (Traced) {
    TB.clear();
    TB.start();
  }
  RefSamples.push_back(referenceJob());
  resetPeakRss();
  PathResult Res = runPath(P, MaxParallel, Traced, S);
  It.PeakRssMb = std::max(It.PeakRssMb, peakRssMb());
  std::string DriverDoc;
  if (Traced) {
    TB.stop();
    DriverDoc = TB.chromeJson();
    tracePasses(DriverDoc, S);
    if (Spec.CompileOnly)
      writeTrace(P, {DriverDoc});
  }

  std::string CompileErr = Res.CompileErr;
  if (CompileErr.empty() && !Res.SP)
    CompileErr = Res.LaunchErr; // the artifact does not reparse
  if (CompileErr.empty() && Res.Art->Spmd != RefSpmd[P])
    CompileErr = "artifact differs from the set-up compile (non-reproducing)";
  if (CompileErr.empty() &&
      spmd::serializeSpmdProgram(*Res.SP) != Res.Art->Spmd)
    CompileErr = ".spmd does not reserialize byte-identically";
  L.record(where(P, "compile", Iter), CompileErr);
  if (!Res.SP)
    return;
  const pset::CacheStats &C = Res.Art->CacheDelta;
  S["core.spmd_bytes"] = static_cast<double>(Res.Art->Spmd.size());
  S["pset.cache.lookups"] = static_cast<double>(C.Hits + C.Misses);
  S["pset.cache.hits"] = static_cast<double>(C.Hits);
  S["pset.intern.lookups"] = static_cast<double>(C.InternLookups);
  S["pset.intern.hits"] = static_cast<double>(C.InternHits);

  if (!Spec.CompileOnly) {
    std::string LaunchErr = Res.Sess ? verifyLaunch(P, Res) : Res.LaunchErr;
    if (Res.LR.Ok) {
      const rt::MergedRun &M = Res.LR.Merged;
      S["net.messages"] = static_cast<double>(M.R.Messages);
      S["net.bytes"] = static_cast<double>(M.R.Bytes);
      S["net.span_copies"] = static_cast<double>(M.R.SpanCopies);
      S["net.packed_copies"] = static_cast<double>(M.R.PackedCopies);
      S["net.overlap_bytes"] =
          M.R.OverlapRatio * static_cast<double>(M.R.Bytes);
      S["coll.frames"] = static_cast<double>(M.R.CollMessages);
      S["coll.bytes"] = static_cast<double>(M.R.CollBytes);
      S["coll.max_rank_frames"] = static_cast<double>(M.MaxRankCollMessages);
    }
    if (Traced && Res.LR.Ok) {
      std::string TraceErr = analyzeTrace(P, Res, DriverDoc, S);
      if (LaunchErr.empty())
        LaunchErr = TraceErr;
    } else if (!Res.LR.Dir.empty()) {
      TempDir Kept{Res.LR.Dir};
    }
    L.record(where(P, "launch", Iter), LaunchErr);
  }

  core::CompileRequest Req;
  Req.Name = Spec.Label + ".hpf";
  Req.Source = Spec.Text;
  Req.Opts = compilerOptions();
  Req.BypassArtifactCache = true;

  // An end-to-end run (--trace 0) adds only repeated cold compiles
  // (cleared OpCache), off the e2e clock, so that compile_cold_s, the
  // fastest of them, rests on many samples even where one compile takes
  // tens of milliseconds; each must reproduce the timed artifact. The
  // per-layer probes below belong to --trace 1 alone: leaving them out
  // gives e2e_s more iterations in the same time.
  if (!O.Trace) {
    std::vector<double> &Cold = ColdSamples[P];
    Cold.push_back(S["core.compile_s"]);
    double Total = Cold.back();
    std::string ColdErr;
    int Reps = 0;
    for (; Reps + 1 < MaxColdSamples && Total < ColdSampleS; ++Reps) {
      Svc.opCache().clear();
      Clock::time_point T0 = Clock::now();
      std::shared_ptr<const core::CompileArtifact> A = Svc.compile(Req);
      Cold.push_back(since(T0));
      Total += Cold.back();
      if (ColdErr.empty() && (!A->Ok || A->Spmd != Res.Art->Spmd))
        ColdErr = "repeated cold compile differs from the timed one";
    }
    if (Reps)
      L.record(where(P, "repeated cold compile", Iter), ColdErr);
    return;
  }

  // The daemon's warm recompile: OpCache kept, artifact cache bypassed.
  std::string WarmErr;
  S["compile_warm_s"] = fastest(3, 9, 0.15, [&] {
    Clock::time_point T0 = Clock::now();
    std::shared_ptr<const core::CompileArtifact> Warm = Svc.compile(Req);
    double Secs = since(T0);
    S["pset.warm.lookups"] =
        static_cast<double>(Warm->CacheDelta.Hits + Warm->CacheDelta.Misses);
    S["pset.warm.hits"] = static_cast<double>(Warm->CacheDelta.Hits);
    if (WarmErr.empty() && !Warm->Ok)
      WarmErr = "warm compile failed";
    else if (WarmErr.empty() && Warm->Spmd != Res.Art->Spmd)
      WarmErr = "warm artifact differs from cold";
    return Secs;
  });
  L.record(where(P, "warm compile", Iter), WarmErr);

  Clock::time_point T0 = Clock::now();
  {
    DiagnosticEngine Diags;
    auto Parsed = hpf::parseHpfProgram(Spec.Text, Diags, Req.Name);
    L.record(where(P, "hpf parse", Iter), Parsed ? "" : Diags.str());
  }
  S["hpf.parse_s"] = since(T0);
  if (Spec.CompileOnly || !Res.Sess)
    return;

  std::string ProbeErr;
  probeRankStartup(Res, S, ProbeErr);
  L.record(where(P, "rank start-up probe", Iter), ProbeErr);

  S["run_inproc_s"] = fastest(1, 9, 0.3, [&] {
    uint64_t CompilesBefore =
        counterValue("spmd.kernel.compile.invocations");
    spmd::RunResult IR;
    std::string RunErr;
    double Secs = 0;
    std::unique_ptr<spmd::Interpreter> I = runInProcess(Res, IR, Secs, RunErr);
    if (uint64_t N =
            counterValue("spmd.kernel.compile.invocations") - CompilesBefore) {
      KernelCompiles += N;
      if (RunErr.empty())
        RunErr = "in-process run compiled a kernel after set-up";
    }
    if (RunErr.empty())
      RunErr = verifyInProcess(P, *I, IR);
    L.record(where(P, "in-process run", Iter), RunErr);
    S["spmd.inproc.stmts"] = static_cast<double>(IR.StmtInstances);
    return Secs;
  });
}

/// A cold pass in a fresh process (its own empty kernel cache, cold
/// OpCache and intern table). Returns its set-up seconds, or nothing when
/// the process failed; its operations join this run's ledger.
std::optional<double> Runner::childSetup(unsigned Rep) {
  std::string Dir = O.State + "/setup" + std::to_string(Rep);
  TempDir Guard{Dir};
  fs::create_directories(Dir);
  std::vector<std::string> Args = {
      "/proc/self/exe", "--setup-child", "--workload", O.Workload,
      "--seed",         std::to_string(O.Seed),     "--state",
      Dir,              "--rt-bin",                 O.RtBin};
  std::string Where = "set-up process " + std::to_string(Rep);
  pid_t Pid = ::fork();
  if (Pid < 0) {
    L.record(Where, "fork failed");
    return std::nullopt;
  }
  if (Pid == 0) {
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    ::execv(Argv[0], Argv.data());
    ::_exit(127);
  }
  int Status = 0;
  Clock::time_point T0 = Clock::now();
  while (::waitpid(Pid, &Status, WNOHANG) == 0) {
    if (since(T0) > 120) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, &Status, 0);
      L.record(Where, "timed out");
      return std::nullopt;
    }
    ::usleep(2000);
  }
  std::string Text;
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0 ||
      !readFile(Dir + "/setup.result", Text)) {
    L.record(Where, "exited abnormally");
    return std::nullopt;
  }
  std::istringstream IS(Text);
  std::string Key;
  double Seconds = 0;
  uint64_t Attempted = 0, Failed = 0;
  IS >> Key >> Seconds >> Key >> Attempted >> Key >> Failed;
  L.Attempted += Attempted;
  L.Failed += Failed;
  if (Failed)
    L.Notes.push_back(Where + ": " + std::to_string(Failed) +
                      " operation(s) failed (see its stderr above)");
  return Seconds;
}

int Runner::runSetupChild() {
  configureEnv(O.State + "/kc");
  double Seconds = coldPass(/*Verify=*/false);
  std::ostringstream OS;
  OS << std::setprecision(17) << "setup_s " << Seconds << "\nattempted "
     << L.Attempted << "\nfailed " << L.Failed << "\n";
  return writeFile(O.State + "/setup.result", OS.str()) ? 0 : 1;
}

/// spmd.native.cc_s: each program's rank kernel compiled from scratch by
/// a fresh KernelCache into an empty directory (the `cc` a cold launch
/// pays). Reporting only; runs after the measured iterations.
void Runner::measureCc() {
  std::string Saved = KernelDir;
  for (size_t P = 0; P != W.Programs.size(); ++P) {
    if (W.Programs[P].CompileOnly)
      continue;
    Sample S;
    PathResult Res =
        runPath(P, MaxParallel, /*Traced=*/false, S, /*Launch=*/false);
    if (!Res.Sess)
      continue;
    std::string Err;
    TempDir Fresh{O.State + "/kc-cold-" + std::to_string(P)};
    ::setenv("DHPF_KERNEL_CACHE", Fresh.Path.c_str(), 1);
    probeRankStartup(Res, S, Err);
    CcSeconds += S["spmd.native.load_s"];
  }
  ::setenv("DHPF_KERNEL_CACHE", Saved.c_str(), 1);
}

/// Simulated Figure 7 speedups for one series of BENCH_fig7.json, by
/// processor count (empty when the file or series is absent).
std::map<int, double> fig7Speedups(const std::string &Label) {
  std::map<int, double> Out;
  std::string Text;
  if (Label.empty() || !readFile("BENCH_fig7.json", Text))
    return Out;
  size_t At = Text.find("\"label\": \"" + Label + "\"");
  if (At == std::string::npos)
    return Out;
  size_t End = Text.find(']', At);
  std::regex Point("\"procs\": ([0-9]+), \"speedup\": ([0-9.]+)");
  std::string Series = Text.substr(At, End - At);
  for (std::sregex_iterator I(Series.begin(), Series.end(), Point), E; I != E;
       ++I)
    Out[std::stoi((*I)[1])] = std::stod((*I)[2]);
  return Out;
}

/// Wall-clock .hpf -> merged-result scaling at P = 1, 2, 4 beside the
/// simulated speedups of BENCH_fig7.json. Reporting only.
void Runner::printScaling() {
  std::cout << "\nwall-clock scaling (one warm untraced launch per row; "
               "the simulated column is BENCH_fig7.json):\n"
            << "  program            P    e2e_s   wall speedup   simulated\n";
  for (size_t P = 0; P != W.Programs.size(); ++P) {
    std::map<int, double> Sim = fig7Speedups(W.Programs[P].Fig7Label);
    double Base = 0;
    for (unsigned NP : {1u, 2u, 4u}) {
      Sample S;
      runPath(P, NP, false, S); // compiles this shape's rank kernel
      PathResult Res = runPath(P, NP, false, S);
      bool Ok = Res.CompileErr.empty() && Res.LaunchErr.empty();
      double E = S["e2e_s"];
      if (NP == 1)
        Base = E;
      std::cout << "  " << std::left << std::setw(18) << W.Programs[P].Label
                << std::right << std::setw(2) << NP << std::fixed
                << std::setprecision(4) << std::setw(9) << E
                << std::setw(15) << (Ok && E > 0 ? Base / E : 0.0);
      if (Sim.count(static_cast<int>(NP)))
        std::cout << std::setw(12) << Sim[static_cast<int>(NP)];
      else
        std::cout << std::setw(12) << "-";
      std::cout << (Ok ? "" : "   (launch failed)") << "\n"
                << std::defaultfloat;
    }
  }
}

struct MetricDef {
  const char *Name;
  const char *Unit;
};

// The metric sets BENCHMARK.json names: end-to-end ones for --trace 0,
// per-layer ones for --trace 1. The warm recompile and the in-process run
// are per-layer metrics: at 10-150 ms (the warm recompile) and with four
// threads (the in-process run, up to 3x slower while a shared host is
// busy) their run-to-run spread exceeds the largest regression bound an
// end-to-end metric may have. compile_cold_s is each program's fastest
// cold compile, summed (README.md says why not the median).
const MetricDef EndToEnd[] = {{"setup_s", "s"},
                              {"e2e_s", "s"},
                              {"compile_cold_s", "s"},
                              {"ok_frac", "ratio"},
                              {"peak_rss_mb", "MB"}};

const MetricDef PerLayer[] = {
    {"hpf.parse_s", "s"},
    {"core.compile_s", "s"},
    {"compile_warm_s", "s"},
    {"core.pass.partition_s", "s"},
    {"core.pass.comm_s", "s"},
    {"core.pass.split_s", "s"},
    {"core.pass.vp_s", "s"},
    {"core.pass.emit_s", "s"},
    {"core.spmd_bytes", "bytes"},
    {"pset.cache.lookups", "count"},
    {"pset.cache.hit_rate", "ratio"},
    {"pset.cache.warm_hit_rate", "ratio"},
    {"pset.intern.hit_rate", "ratio"},
    {"spmd.parse_s", "s"},
    {"spmd.plan_build_s", "s"},
    {"spmd.native.emit_s", "s"},
    {"spmd.native.load_s", "s"},
    {"spmd.native.cc_s", "s"},
    {"spmd.kernel.compiles", "count"},
    {"spmd.native.fallbacks", "count"},
    {"run_inproc_s", "s"},
    {"spmd.inproc.stmt_per_s", "1/s"},
    {"rt.launch_s", "s"},
    {"rt.rank.run_s", "s"},
    {"rt.launch_overhead_s", "s"},
    {"rt.rank.compute_s", "s"},
    {"rt.rank.recv_wait_s", "s"},
    {"rt.rank.send_s", "s"},
    {"rt.rank.reduce_s", "s"},
    {"rt.rank.imbalance", "ratio"},
    {"rt.dump_bytes", "bytes"},
    {"rt.dump.parse_s", "s"},
    {"rt.dump.merge_s", "s"},
    {"net.messages", "count"},
    {"net.bytes", "bytes"},
    {"net.span_copies", "count"},
    {"net.packed_copies", "count"},
    {"net.overlap_ratio", "ratio"},
    {"coll.frames", "count"},
    {"coll.bytes", "bytes"},
    {"coll.max_rank_frames", "count"},
    {"obs.trace_overhead", "ratio"},
    {"obs.layer_coverage", "ratio"},
    {"failed_frac", "ratio"}};

/// Median of one program's \p Key over the traced or the untraced
/// iterations that recorded it.
double programMedian(const std::vector<Iteration> &Iters, size_t P,
                     const std::string &Key, bool Traced) {
  std::vector<double> V;
  for (const Iteration &It : Iters) {
    auto F = It.PerProg[P].find(Key);
    if (It.Traced == Traced && F != It.PerProg[P].end())
      V.push_back(F->second);
  }
  return median(V);
}

/// Per-iteration program sums of \p Key over the untraced iterations.
std::vector<double> iterSums(const std::vector<Iteration> &Iters,
                             const std::string &Key) {
  std::vector<double> Out;
  for (const Iteration &It : Iters) {
    if (It.Traced)
      continue;
    double Sum = 0;
    for (const Sample &S : It.PerProg) {
      auto F = S.find(Key);
      Sum += F == S.end() ? 0.0 : F->second;
    }
    Out.push_back(Sum);
  }
  return Out;
}

double ratio(double Num, double Den) { return Den != 0 ? Num / Den : 0.0; }

int Runner::report() {
  // A workload's figure is the sum over its programs of each program's
  // median, so the per-program table below adds up to it.
  auto Med = [&](const std::string &Key, bool Traced) {
    double Sum = 0;
    for (size_t P = 0; P != W.Programs.size(); ++P)
      Sum += programMedian(Iters, P, Key, Traced);
    return Sum;
  };
  auto Last = [&](const std::string &Key) {
    std::vector<double> V = iterSums(Iters, Key);
    return V.empty() ? 0.0 : V.back();
  };
  struct rusage RU;
  ::getrusage(RUSAGE_SELF, &RU);
  double FailedFrac = ratio(static_cast<double>(L.Failed),
                            static_cast<double>(L.Attempted));

  // The end-to-end timings are scaled to a host running the reference job
  // in RefNominalS; the unscaled figures are printed below.
  const double HostScale = RefNominalS / median(RefSamples);
  std::map<std::string, double> M;
  M["setup_s"] = median(SetupSamples);
  M["e2e_s"] = Med("e2e_s", false);
  M["run_inproc_s"] = Med("run_inproc_s", false);
  M["compile_cold_s"] = 0;
  for (const std::vector<double> &Cold : ColdSamples)
    if (!Cold.empty())
      M["compile_cold_s"] += *std::min_element(Cold.begin(), Cold.end());
  M["compile_warm_s"] = Med("compile_warm_s", false);
  M["ok_frac"] = L.Attempted ? 1.0 - FailedFrac : 0.0;
  std::vector<double> IterRss;
  for (const Iteration &It : Iters)
    if (!It.Traced)
      IterRss.push_back(It.PeakRssMb);
  M["peak_rss_mb"] = median(IterRss);
  const double Unscaled[] = {M["setup_s"], M["e2e_s"], M["compile_cold_s"]};
  for (const char *K : {"setup_s", "e2e_s", "compile_cold_s"})
    M[K] *= HostScale;

  for (const char *K : {"hpf.parse_s", "core.compile_s", "spmd.parse_s",
                        "spmd.plan_build_s", "spmd.native.emit_s",
                        "spmd.native.load_s", "rt.launch_s"})
    M[K] = Med(K, false);
  for (const char *K :
       {"core.pass.partition_s", "core.pass.comm_s", "core.pass.split_s",
        "core.pass.vp_s", "core.pass.emit_s", "rt.rank.run_s",
        "rt.launch_overhead_s", "rt.rank.compute_s", "rt.rank.recv_wait_s",
        "rt.rank.send_s", "rt.rank.reduce_s", "rt.dump_bytes",
        "rt.dump.parse_s", "rt.dump.merge_s"})
    M[K] = Med(K, true);
  for (const char *K :
       {"core.spmd_bytes", "pset.cache.lookups", "net.messages", "net.bytes",
        "net.span_copies", "net.packed_copies", "coll.frames", "coll.bytes",
        "coll.max_rank_frames"})
    M[K] = Last(K);
  M["pset.cache.hit_rate"] =
      ratio(Last("pset.cache.hits"), Last("pset.cache.lookups"));
  M["pset.cache.warm_hit_rate"] =
      ratio(Last("pset.warm.hits"), Last("pset.warm.lookups"));
  M["pset.intern.hit_rate"] =
      ratio(Last("pset.intern.hits"), Last("pset.intern.lookups"));
  M["spmd.native.cc_s"] = CcSeconds;
  M["spmd.kernel.compiles"] = static_cast<double>(KernelCompiles);
  M["spmd.native.fallbacks"] = static_cast<double>(Fallbacks);
  M["spmd.inproc.stmt_per_s"] =
      ratio(Med("spmd.inproc.stmts", false), Med("run_inproc_s", false));
  M["net.overlap_ratio"] = ratio(Last("net.overlap_bytes"), Last("net.bytes"));
  M["rt.rank.imbalance"] =
      ratio(Med("rt.rank.run_s", true), Med("rt.rank.mean_run_s", true));
  M["obs.trace_overhead"] = ratio(Med("e2e_s", true), Med("e2e_s", false));
  M["obs.layer_coverage"] =
      ratio(Med("obs.covered_s", true), Med("e2e_s", true));
  M["failed_frac"] = FailedFrac;

  // Per-program layer table: medians over the iterations each row is
  // taken from (traced rows from traced iterations).
  static const std::pair<const char *, bool> Rows[] = {
      {"hpf.parse_s", false},       {"core.compile_s", false},
      {"core.pass.partition_s", true}, {"core.pass.comm_s", true},
      {"core.pass.split_s", true},  {"core.pass.vp_s", true},
      {"core.pass.emit_s", true},   {"core.compile.other_s", true},
      {"compile_warm_s", false},    {"spmd.parse_s", false},
      {"spmd.plan_build_s", false}, {"spmd.native.emit_s", false},
      {"spmd.native.load_s", false}, {"rt.launch_s", false},
      {"rt.rank.native_s", true},   {"rt.rank.run_s", true},
      {"rt.rank.compute_s", true},  {"rt.rank.send_s", true},
      {"rt.rank.recv_wait_s", true}, {"rt.rank.reduce_s", true},
      {"rt.rank.run_other_s", true}, {"rt.rank.finish_s", true},
      {"rt.launch_overhead_s", true}, {"rt.dump.parse_s", true},
      {"rt.dump.merge_s", true},    {"e2e_s", false},
      {"run_inproc_s", false}};
  std::cout << "\nper-layer seconds (median per program over its iterations; "
               "rank rows are self times on the rank with the longest "
               "rank:run)\n"
            << std::left << std::setw(24) << "layer";
  for (const ProgramSpec &Spec : W.Programs)
    std::cout << std::right << std::setw(17) << Spec.Label;
  std::cout << std::setw(12) << "total" << "\n";
  // Rows of probes a run did not make (--trace 0 makes none) are left out.
  auto Recorded = [&](const std::string &Key) {
    for (const Iteration &It : Iters)
      for (const Sample &S : It.PerProg)
        if (S.count(Key))
          return true;
    return false;
  };
  for (const auto &[Key, Traced] : Rows) {
    if (!Recorded(Key))
      continue;
    std::cout << std::left << std::setw(24) << Key << std::right << std::fixed
              << std::setprecision(5);
    double Total = 0;
    for (size_t P = 0; P != W.Programs.size(); ++P) {
      double Med = programMedian(Iters, P, Key, Traced);
      Total += Med;
      std::cout << std::setw(17) << Med;
    }
    std::cout << std::setw(12) << Total << std::defaultfloat << "\n";
  }

  auto Print = [&](const MetricDef *Defs, size_t N, const char *Title) {
    std::cout << "\n" << Title << " (" << W.Name << ")\n";
    for (size_t I = 0; I != N; ++I)
      std::cout << "  " << std::left << std::setw(26) << Defs[I].Name
                << std::right << std::setprecision(6) << std::setw(14)
                << M[Defs[I].Name] << " " << Defs[I].Unit << "\n";
  };
  size_t NumUntraced = 0;
  for (const Iteration &It : Iters)
    NumUntraced += !It.Traced;
  std::cout << "\n" << Iters.size() << " measured iterations ("
            << NumUntraced << " untraced), " << SetupSamples.size()
            << " set-up passes; " << L.Attempted << " operations, "
            << L.Failed << " failed (failed_frac " << FailedFrac << ")\n";
  for (const std::string &N : L.Notes)
    std::cout << "  FAILED " << N << "\n";
  std::cout << "driver peak RSS over the whole run (set-up and oracle "
               "included): "
            << static_cast<double>(RU.ru_maxrss) / 1024.0 << " MB\n"
            << "set-up passes (s):";
  for (double V : SetupSamples)
    std::cout << " " << V;
  for (const char *K :
       {"e2e_s", "core.compile_s", "compile_warm_s", "run_inproc_s"}) {
    if (!Recorded(K))
      continue;
    std::cout << "\n" << K << " per untraced iteration:";
    for (double V : iterSums(Iters, K))
      std::cout << " " << V;
  }
  for (size_t P = 0; P != W.Programs.size(); ++P) {
    const std::vector<double> &Cold = ColdSamples[P];
    if (Cold.empty())
      continue;
    std::cout << "\n" << W.Programs[P].Label << " cold compiles: "
              << Cold.size() << ", fastest " << std::setprecision(6)
              << *std::min_element(Cold.begin(), Cold.end()) << " s, median "
              << median(Cold) << " s";
  }
  if (!O.Trace)
    std::cout << "\nreference job: median " << median(RefSamples)
              << " s over " << RefSamples.size() << " calls (nominal "
              << RefNominalS
              << " s), so setup_s, e2e_s and compile_cold_s are scaled by "
              << HostScale << "; unscaled: setup_s " << Unscaled[0]
              << " s, e2e_s " << Unscaled[1] << " s, compile_cold_s "
              << Unscaled[2] << " s";
  std::cout << "\npeak RSS (MB) per untraced iteration:";
  for (double V : IterRss)
    std::cout << " " << V;

  std::cout << "\n";
  Print(EndToEnd, std::size(EndToEnd), "end-to-end metrics");
  if (O.Trace) {
    Print(PerLayer, std::size(PerLayer), "per-layer metrics");
    std::cout << "obs.layer_coverage " << M["obs.layer_coverage"]
              << " of e2e_s is explained by traced layer self times; the "
                 "rest is untraced launch work (spawn, rank .spmd parse and "
                 "set-up, dump write and collect)\n"
              << "merged Chrome traces: " << TraceDir << "/trace-" << W.Name
              << "-<program>.json\n";
  }

  bool Correct = L.Failed == 0 && L.Attempted != 0 && !Iters.empty();
  std::ostringstream J;
  J << std::setprecision(17) << "{\"correct\": " << (Correct ? "true" : "false")
    << ", \"attempted\": " << L.Attempted << ", \"failed\": " << L.Failed
    << ", \"metrics\": {";
  const MetricDef *Defs = O.Trace ? PerLayer : EndToEnd;
  size_t N = O.Trace ? std::size(PerLayer) : std::size(EndToEnd);
  for (size_t I = 0; I != N; ++I)
    J << (I ? ", " : "") << "\"" << Defs[I].Name << "\": {\"value\": "
      << M[Defs[I].Name] << ", \"unit\": \"" << Defs[I].Unit << "\"}";
  J << "}}";
  std::cout << J.str() << std::endl;
  return Correct ? 0 : 1;
}

int Runner::runMain() {
  Clock::time_point Start = Clock::now();
  configureEnv(O.State + "/kc");
  if (O.Trace)
    fs::create_directories(TraceDir);
  std::cout << "workload " << W.Name << ", seed " << O.Seed << ", revision "
            << O.Revision << "\n"
            << "kernel compiler: "
            << spmd::native::KernelCache::global().compilerVersion() << "\n"
            << "engine: "
            << (spmd::Interpreter::resolveEngine(spmd::EngineKind::Auto) ==
                        spmd::EngineKind::Native
                    ? "native"
                    : "NOT native")
            << "; collective: "
            << coll::algoName(
                   coll::resolveAlgo(coll::algoFromEnv(), MaxParallel))
            << " (DHPF_COLL=auto at P=" << MaxParallel << "); transport: "
            << (W.Hosts.empty() ? "unix sockets" : "tcp loopback")
            << "; threads: " << Threads << "\n"
            << "state: private kernel cache and temp dir under " << O.State
            << "; cold compiles clear the OpCache; the InternTable is "
               "append-only and stays warm across iterations\n";

  // Set-up: this process's own cold pass (verified against the oracle),
  // then cold passes in fresh processes; setup_s is their median.
  RefSamples.push_back(referenceJob());
  SetupSamples.push_back(coldPass(/*Verify=*/true));
  for (unsigned R = 1; R < SetupPasses; ++R) {
    RefSamples.push_back(referenceJob());
    if (std::optional<double> Secs = childSetup(R))
      SetupSamples.push_back(*Secs);
  }
  WarmKernels = kernelObjects(KernelDir);
  Measuring = true;
  if (O.Inject == "net-fault") {
    ::setenv("DHPF_NET_FAULT", "corrupt=1,seed=3", 1);
    ::setenv("DHPF_NET_TIMEOUT_MS", "2000", 1);
  } else if (O.Inject == "rank-fallback") {
    // The ranks find no working compiler and run on the tree engine: the
    // results stay bit-identical, so only the fallback check can see it.
    ::setenv("DHPF_CC", "false", 1);
  }

  // Iterate while another iteration (at the mean pace so far) still fits
  // in --seconds, and at least twice.
  const size_t MinIters = 2;
  Clock::time_point MeasureStart = Clock::now();
  for (size_t Iter = 1;; ++Iter) {
    double Used = since(MeasureStart);
    if (Iters.size() >= MinIters &&
        Used + Used / static_cast<double>(Iters.size()) > O.Seconds)
      break;
    if (!Iters.empty() && since(Start) > RunBudgetS)
      break;
    if (O.Inject == "wipe-kernels") {
      std::error_code EC;
      for (const fs::directory_entry &E : fs::directory_iterator(KernelDir, EC))
        fs::remove(E.path(), EC);
    }
    Iteration It;
    It.Traced = O.Trace && Iter % 2 == 0;
    It.Order = order(Iter);
    It.PerProg.resize(W.Programs.size());
    for (size_t P : It.Order)
      measureProgram(P, It.Traced, It, Iter);
    auto Now = kernelObjects(KernelDir);
    if (unsigned Changed = changedObjects(WarmKernels, Now)) {
      KernelCompiles += Changed;
      L.record("iteration " + std::to_string(Iter) + " kernel cache",
               std::to_string(Changed) + " kernel(s) compiled after set-up");
      WarmKernels = std::move(Now);
    }
    Iters.push_back(std::move(It));
  }
  std::cout << "iteration program order (seed " << O.Seed << "):";
  for (const Iteration &It : Iters) {
    std::cout << " [";
    for (size_t I = 0; I != It.Order.size(); ++I)
      std::cout << (I ? " " : "") << W.Programs[It.Order[I]].Label;
    std::cout << "]";
  }
  std::cout << "\n";
  ::unsetenv("DHPF_NET_FAULT");
  ::unsetenv("DHPF_CC");
  if (O.Trace) {
    measureCc();
    if (W.Name == "stencil-bulk")
      printScaling();
  }
  return report();
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&](std::string &Out) {
      if (I + 1 >= Argc)
        return false;
      Out = Argv[++I];
      return true;
    };
    std::string V;
    if (A == "--setup-child") {
      O.SetupChild = true;
      continue;
    }
    if (!Next(V)) {
      std::cerr << "bench_e2e: " << A << " needs a value\n";
      return false;
    }
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), &End);
    } else if (A == "--trace") {
      if (V != "0" && V != "1") {
        std::cerr << "bench_e2e: --trace takes 0 or 1\n";
        return false;
      }
      O.Trace = V == "1";
    } else if (A == "--state") {
      O.State = V;
    } else if (A == "--rt-bin") {
      O.RtBin = V;
    } else if (A == "--revision") {
      O.Revision = V;
    } else if (A == "--inject") {
      if (V != "net-fault" && V != "corrupt-merge" && V != "wipe-kernels" &&
          V != "rank-fallback") {
        std::cerr << "bench_e2e: unknown --inject '" << V << "'\n";
        return false;
      }
      O.Inject = V;
    } else {
      std::cerr << "bench_e2e: unknown argument '" << A << "'\n";
      return false;
    }
    if (End && *End) {
      std::cerr << "bench_e2e: bad number '" << V << "' for " << A << "\n";
      return false;
    }
  }
  if (O.Workload.empty() || O.State.empty() || O.RtBin.empty() ||
      !(O.Seconds > 0)) {
    std::cerr << "usage: bench_e2e --workload W --seed N --seconds S "
                 "--trace 0|1 --state DIR --rt-bin PATH [--revision TEXT] "
                 "[--inject KIND]\n";
    return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O))
    return 2;
  std::optional<Workload> W = makeWorkload(O.Workload);
  if (!W) {
    std::cerr << "bench_e2e: unknown workload '" << O.Workload
              << "' (stencil-bulk, timestep-tcp, compile-sym)\n";
    return 2;
  }
  try {
    Runner R(O, std::move(*W));
    return O.SetupChild ? R.runSetupChild() : R.runMain();
  } catch (const std::exception &E) {
    std::cerr << "bench_e2e: " << E.what() << "\n";
    return 1;
  }
}
