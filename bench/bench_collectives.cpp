//===- bench/bench_collectives.cpp - Collective schedule comparison -------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// Runs every Figure 7 app distributed at P=8 (loopback mesh, one thread
// per rank) under each reduction collective and reports the physical
// frame/byte counters the schedules differ in: total collective frames,
// total collective payload bytes, and the bottleneck rank's share of each.
// The logical message/byte counters are algorithm-independent and printed
// once per app as the baseline.
//
//   bench_collectives [--out=BENCH_collectives.json] [--check]
//                     [--ref=<json>]
//
// --check enforces the acceptance gates:
//   * every algorithm leaves the merged accumulators bit-identical;
//   * recursive doubling cuts the bottleneck rank's frame count strictly
//     below naive gather/broadcast for every app with reductions at P=8;
//   * with --ref, every counter must equal the committed reference
//     exactly (the schedules are deterministic — any drift is a
//     regression, not noise).
//
//===----------------------------------------------------------------------===//

#include "apps/Registry.h"
#include "core/Compiler.h"
#include "net/Loopback.h"
#include "placement/Placement.h"
#include "rt/RankEngine.h"
#include "rt/RankResult.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace dhpf;

namespace {

constexpr int64_t Procs = 8;
const char *Algos[] = {"naive", "rdbl"};

struct AlgoRow {
  std::string Algo;
  uint64_t CollMessages = 0;
  uint64_t CollBytes = 0;
  uint64_t MaxRankMessages = 0;
  uint64_t MaxRankBytes = 0;
};

struct AppReport {
  std::string Name;
  std::vector<int64_t> Shape;
  uint64_t LogicalMessages = 0;
  uint64_t LogicalBytes = 0;
  uint64_t ReduceInstances = 0;
  std::vector<AlgoRow> Rows;
  /// Serialized FinalAccums bits of the first algorithm, compared against
  /// every other one.
  std::string AccumBits;
  bool BitIdentical = true;
};

std::string shapeStr(const std::vector<int64_t> &Sh) {
  std::string S;
  for (size_t D = 0; D != Sh.size(); ++D)
    S += (D ? "x" : "") + std::to_string(Sh[D]);
  return S;
}

std::string accumBits(const spmd::RunResult &R) {
  std::ostringstream SS;
  for (const auto &[Name, V] : R.FinalAccums) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    SS << Name << "=" << std::hex << Bits << ";";
  }
  return SS.str();
}

/// One distributed run over the loopback mesh; exits the process on any
/// rank failure (a bench subject must not half-run).
rt::MergedRun runDistributed(const spmd::SpmdProgram &SP,
                             const apps::AppInstance &App,
                             const spmd::RunConfig &RC) {
  spmd::ProgramLayout L = spmd::resolveLayout(SP, RC);
  unsigned NP = L.NumProcs;
  net::LoopbackMesh Mesh(NP);
  std::vector<std::string> Dumps(NP), Errs(NP);
  std::vector<std::thread> Ts;
  for (unsigned R = 0; R != NP; ++R)
    Ts.emplace_back([&, R] {
      try {
        auto T = Mesh.transport(R);
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
  for (unsigned R = 0; R != NP; ++R)
    if (!Errs[R].empty()) {
      std::fprintf(stderr, "rank %u failed: %s\n", R, Errs[R].c_str());
      std::exit(1);
    }
  std::vector<rt::RankDump> Parsed(NP);
  std::string Err;
  for (unsigned R = 0; R != NP; ++R)
    if (!rt::parseRankDump(Dumps[R], Parsed[R], Err)) {
      std::fprintf(stderr, "rank %u dump: %s\n", R, Err.c_str());
      std::exit(1);
    }
  rt::MergedRun Merged;
  if (!rt::mergeRankDumps(SP, RC, Parsed, Merged, Err)) {
    std::fprintf(stderr, "merge: %s\n", Err.c_str());
    std::exit(1);
  }
  return Merged;
}

AppReport measureApp(const apps::RegistryEntry &E) {
  AppReport Rep;
  Rep.Name = E.Name;
  Rep.Shape = E.ProcShape(Procs);
  if (Rep.Shape.empty())
    return Rep;
  apps::AppInstance App = E.MakeCanonical();
  auto Compiled = core::compileProgram(*App.Prog);
  spmd::RunConfig RC;
  RC.ProcExtents[App.ProcArrayName] = Rep.Shape;
  Rep.ReduceInstances =
      placement::estimateTraffic(Compiled->Program, RC).ReduceInstances;
  for (const char *Algo : Algos) {
    ::setenv("DHPF_COLL", Algo, 1);
    rt::MergedRun M = runDistributed(Compiled->Program, App, RC);
    AlgoRow Row;
    Row.Algo = Algo;
    Row.CollMessages = M.R.CollMessages;
    Row.CollBytes = M.R.CollBytes;
    Row.MaxRankMessages = M.MaxRankCollMessages;
    Row.MaxRankBytes = M.MaxRankCollBytes;
    Rep.Rows.push_back(Row);
    Rep.LogicalMessages = M.R.Messages;
    Rep.LogicalBytes = M.R.Bytes;
    std::string Bits = accumBits(M.R);
    if (Rep.AccumBits.empty())
      Rep.AccumBits = Bits;
    else if (Bits != Rep.AccumBits)
      Rep.BitIdentical = false;
  }
  ::unsetenv("DHPF_COLL");
  return Rep;
}

void printReport(const std::vector<AppReport> &Reps) {
  std::printf("== Reduction collectives at P=%lld (loopback mesh) ==\n",
              static_cast<long long>(Procs));
  for (const AppReport &R : Reps) {
    if (R.Shape.empty()) {
      std::printf("\n%s: cannot lay %lld procs on its grid, skipped\n",
                  R.Name.c_str(), static_cast<long long>(Procs));
      continue;
    }
    std::printf("\n%s (%s): logical msgs %llu, bytes %llu, "
                "reduce instances %llu\n",
                R.Name.c_str(), shapeStr(R.Shape).c_str(),
                static_cast<unsigned long long>(R.LogicalMessages),
                static_cast<unsigned long long>(R.LogicalBytes),
                static_cast<unsigned long long>(R.ReduceInstances));
    std::printf("  %-6s %12s %12s %14s %14s\n", "algo", "frames", "bytes",
                "max-rank fr", "max-rank B");
    for (const AlgoRow &Row : R.Rows)
      std::printf("  %-6s %12llu %12llu %14llu %14llu\n", Row.Algo.c_str(),
                  static_cast<unsigned long long>(Row.CollMessages),
                  static_cast<unsigned long long>(Row.CollBytes),
                  static_cast<unsigned long long>(Row.MaxRankMessages),
                  static_cast<unsigned long long>(Row.MaxRankBytes));
    std::printf("  accumulators bit-identical across algorithms: %s\n",
                R.BitIdentical ? "yes" : "NO");
  }
}

void writeJson(const char *Path, const std::vector<AppReport> &Reps) {
  std::FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", Path);
    std::exit(1);
  }
  std::fprintf(F, "{\n  \"bench\": \"collectives\",\n  \"procs\": %lld,\n"
                  "  \"apps\": [\n",
               static_cast<long long>(Procs));
  bool FirstApp = true;
  for (const AppReport &R : Reps) {
    if (R.Shape.empty())
      continue;
    std::fprintf(F, "%s    {\n      \"name\": \"%s\",\n"
                    "      \"shape\": \"%s\",\n"
                    "      \"logical_messages\": %llu,\n"
                    "      \"logical_bytes\": %llu,\n"
                    "      \"reduce_instances\": %llu,\n"
                    "      \"bit_identical\": %s,\n"
                    "      \"algos\": [\n",
                 FirstApp ? "" : ",\n", R.Name.c_str(),
                 shapeStr(R.Shape).c_str(),
                 static_cast<unsigned long long>(R.LogicalMessages),
                 static_cast<unsigned long long>(R.LogicalBytes),
                 static_cast<unsigned long long>(R.ReduceInstances),
                 R.BitIdentical ? "true" : "false");
    for (size_t I = 0; I != R.Rows.size(); ++I) {
      const AlgoRow &Row = R.Rows[I];
      std::fprintf(F,
                   "        {\"name\": \"%s\", \"coll_messages\": %llu, "
                   "\"coll_bytes\": %llu, \"max_rank_messages\": %llu, "
                   "\"max_rank_bytes\": %llu}%s\n",
                   Row.Algo.c_str(),
                   static_cast<unsigned long long>(Row.CollMessages),
                   static_cast<unsigned long long>(Row.CollBytes),
                   static_cast<unsigned long long>(Row.MaxRankMessages),
                   static_cast<unsigned long long>(Row.MaxRankBytes),
                   I + 1 != R.Rows.size() ? "," : "");
    }
    std::fprintf(F, "      ]\n    }");
    FirstApp = false;
  }
  std::fprintf(F, "\n  ]\n}\n");
  std::fclose(F);
}

const AlgoRow *findRow(const AppReport &R, const char *Algo) {
  for (const AlgoRow &Row : R.Rows)
    if (Row.Algo == Algo)
      return &Row;
  return nullptr;
}

/// The deterministic-counter regression gate: the committed reference must
/// contain exactly the counters this run produced (substring match per
/// algo row — the rows embed every counter).
bool matchesReference(const char *RefPath,
                      const std::vector<AppReport> &Reps) {
  std::ifstream In(RefPath);
  if (!In) {
    std::fprintf(stderr, "CHECK FAILED: cannot read reference %s\n",
                 RefPath);
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string Ref = SS.str();
  bool Ok = true;
  for (const AppReport &R : Reps) {
    if (R.Shape.empty())
      continue;
    for (const AlgoRow &Row : R.Rows) {
      char Buf[256];
      std::snprintf(Buf, sizeof(Buf),
                    "{\"name\": \"%s\", \"coll_messages\": %llu, "
                    "\"coll_bytes\": %llu, \"max_rank_messages\": %llu, "
                    "\"max_rank_bytes\": %llu}",
                    Row.Algo.c_str(),
                    static_cast<unsigned long long>(Row.CollMessages),
                    static_cast<unsigned long long>(Row.CollBytes),
                    static_cast<unsigned long long>(Row.MaxRankMessages),
                    static_cast<unsigned long long>(Row.MaxRankBytes));
      if (Ref.find(Buf) == std::string::npos) {
        std::fprintf(stderr,
                     "CHECK FAILED: %s/%s counters drifted from %s:\n  %s\n",
                     R.Name.c_str(), Row.Algo.c_str(), RefPath, Buf);
        Ok = false;
      }
    }
  }
  return Ok;
}

} // namespace

int main(int argc, char **argv) {
  const char *Out = "BENCH_collectives.json";
  const char *Ref = nullptr;
  bool Check = false;
  for (int I = 1; I < argc; ++I) {
    if (std::strncmp(argv[I], "--out=", 6) == 0)
      Out = argv[I] + 6;
    else if (std::strncmp(argv[I], "--ref=", 6) == 0)
      Ref = argv[I] + 6;
    else if (std::strcmp(argv[I], "--check") == 0)
      Check = true;
    else {
      std::fprintf(stderr,
                   "usage: bench_collectives [--out=<json>] [--check] "
                   "[--ref=<json>]\n");
      return 2;
    }
  }

  std::vector<AppReport> Reps;
  for (const apps::RegistryEntry &E : apps::appRegistry())
    Reps.push_back(measureApp(E));
  printReport(Reps);
  writeJson(Out, Reps);
  std::printf("\nwrote %s\n", Out);

  if (!Check)
    return 0;
  bool Ok = true;
  for (const AppReport &R : Reps) {
    if (R.Shape.empty())
      continue;
    if (!R.BitIdentical) {
      std::fprintf(stderr, "CHECK FAILED: %s accumulators differ across "
                           "collective algorithms\n",
                   R.Name.c_str());
      Ok = false;
    }
    const AlgoRow *Naive = findRow(R, "naive");
    if (R.ReduceInstances != 0 && Naive) {
      const AlgoRow *Row = findRow(R, "rdbl");
      if (Row && Row->MaxRankMessages >= Naive->MaxRankMessages) {
        std::fprintf(stderr,
                     "CHECK FAILED: %s: rdbl bottleneck (%llu frames) "
                     "does not beat naive (%llu)\n",
                     R.Name.c_str(),
                     static_cast<unsigned long long>(Row->MaxRankMessages),
                     static_cast<unsigned long long>(Naive->MaxRankMessages));
        Ok = false;
      }
    }
  }
  if (Ref)
    Ok &= matchesReference(Ref, Reps);
  if (Ok)
    std::printf("CHECK OK: recursive doubling beats the naive "
                "bottleneck, results bit-identical\n");
  return Ok ? 0 : 1;
}
