//===- core/Compiler.cpp - The compiler front end ------------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
//
// The one pipeline entry point (compileProgram: validation, then the pass
// pipeline of core/Passes.cpp and core/EmitPass.cpp over a CompileContext,
// with per-pass trace spans, counters and IR dumps), the compile-flag
// codec, and the rectangular-section query shared by the analysis and its
// tests.
//
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"

#include "core/CompileContext.h"
#include "core/InPlace.h"
#include "obs/Trace.h"
#include "support/Diag.h"

#include <algorithm>
#include <functional>
#include <iostream>
#include <set>
#include <utility>

using namespace dhpf;
using namespace dhpf::core;
using namespace dhpf::hpf;

bool core::isRectSectionProven(const Relation &S) {
  assert(S.isSet());
  unsigned N = S.numOut();
  if (N <= 1)
    return true;
  // candidate = intersection of per-dimension projections lifted back to
  // rank N; S is a rectangular section iff candidate is a subset of S
  // (the other inclusion always holds).
  Relation Cand = Relation::universe(S.space());
  for (unsigned D = 0; D != N; ++D) {
    Relation Pd = S.projectOntoDim(D);
    Relation Lift(S.space());
    for (const Conjunct &C : std::as_const(Pd).conjuncts()) {
      unsigned NP = Pd.numParams();
      std::vector<int> Map(C.numVars());
      for (unsigned P = 0; P != NP; ++P)
        Map[C.paramCol(P)] = P;
      Map[C.outCol(0)] = NP + D;
      for (unsigned E = 0; E != C.numExists(); ++E)
        Map[C.existCol(E)] = NP + N + E;
      Lift.addConjunct(Conjunct::remap(C, NP, 0, N, C.numExists(), Map));
    }
    Relation Aligned(Space::set(S.space().outNames(), Pd.space().params()));
    for (Conjunct &C : Lift.conjuncts())
      Aligned.addConjunct(std::move(C));
    Cand = Cand.intersect(Aligned);
  }
  return Cand.isSubsetOf(S);
}

//===----------------------------------------------------------------------===//
// Program validation
//===----------------------------------------------------------------------===//

bool core::validateProgram(const Program &P, DiagnosticEngine &Diags) {
  unsigned Before = Diags.errorCount();
  SourceLoc Loc(P.name().empty() ? "<program>" : P.name());
  auto Err = [&](const std::string &Msg) { Diags.error(Loc, Msg); };

  auto CheckRef = [&](const Reference &R, const std::string &Where) {
    auto It = P.arrays().find(R.Array);
    if (It == P.arrays().end()) {
      Err(Where + " references undeclared array '" + R.Array + "'");
      return;
    }
    if (R.Subs.size() != It->second.rank())
      Err(Where + " indexes array '" + R.Array + "' with " +
          std::to_string(R.Subs.size()) + " subscript(s), rank is " +
          std::to_string(It->second.rank()));
  };

  for (const auto &[Name, A] : P.aligns()) {
    if (P.arrays().find(Name) == P.arrays().end())
      Err("align of undeclared array '" + Name + "'");
    auto It = P.templates().find(A.TemplateName);
    if (It == P.templates().end()) {
      Err("array '" + Name + "' aligned with undeclared template '" +
          A.TemplateName + "'");
      continue;
    }
    if (A.Terms.size() != It->second.rank())
      Err("array '" + Name + "' alignment has " +
          std::to_string(A.Terms.size()) + " term(s), template '" +
          A.TemplateName + "' has rank " +
          std::to_string(It->second.rank()));
  }

  for (const auto &[Name, D] : P.distributes()) {
    auto TIt = P.templates().find(Name);
    if (TIt == P.templates().end()) {
      Err("distribute of undeclared template '" + Name + "'");
      continue;
    }
    if (P.procArrays().find(D.ProcName) == P.procArrays().end())
      Err("template '" + Name + "' distributed onto undeclared processor "
          "array '" + D.ProcName + "'");
    if (D.Specs.size() != TIt->second.rank())
      Err("template '" + Name + "' distribution has " +
          std::to_string(D.Specs.size()) + " spec(s), template rank is " +
          std::to_string(TIt->second.rank()));
  }

  std::function<void(const Phase &)> CheckPhase = [&](const Phase &Ph) {
    if (Ph.K == Phase::Kind::Nest) {
      const ComputeNest &Nest = Ph.Nest;
      std::set<std::string> LoopVars;
      for (const Loop &L : Nest.Loops)
        if (!LoopVars.insert(L.Var).second)
          Err("nest '" + Nest.Name + "' repeats loop variable '" + L.Var +
              "'");
      for (const Statement &St : Nest.Stmts) {
        std::string Where = "nest '" + Nest.Name + "' statement S" +
                            std::to_string(St.Id);
        CheckRef(St.Write, Where);
        for (const Reference &R : St.Reads)
          CheckRef(R, Where);
        for (const Reference &R : St.OnHome)
          CheckRef(R, Where + " (onhome)");
      }
    }
    for (const Phase &Sub : Ph.Body)
      CheckPhase(Sub);
  };
  for (const Procedure &Proc : P.procedures())
    for (const Phase &Ph : Proc.Phases)
      CheckPhase(Ph);

  // Every distributed array must trace to a distributed template: the map
  // builder asserts this; report it as a diagnostic first.
  for (const auto &[Name, A] : P.aligns()) {
    (void)Name;
    if (P.templates().find(A.TemplateName) != P.templates().end() &&
        P.distributes().find(A.TemplateName) == P.distributes().end())
      Err("template '" + A.TemplateName + "' is aligned to but never "
          "distributed");
  }

  return Diags.errorCount() == Before;
}

//===----------------------------------------------------------------------===//
// The pipeline
//===----------------------------------------------------------------------===//

namespace {

std::vector<std::unique_ptr<Pass>> makePipeline() {
  std::vector<std::unique_ptr<Pass>> Passes;
  for (auto *Create : {createPartitionPass, createCommPass, createSplitPass,
                       createVPPass, createEmitPass})
    Passes.push_back(Create());
  return Passes;
}

} // namespace

std::vector<std::string> core::passNames() {
  std::vector<std::string> Names;
  for (const std::unique_ptr<Pass> &P : makePipeline())
    Names.push_back(P->name());
  return Names;
}

std::unique_ptr<CompileOutput> core::compileProgram(const Program &P,
                                                    CompilerOptions Opts,
                                                    DiagnosticEngine *Diags) {
  if (Diags && !validateProgram(P, *Diags))
    return nullptr;

  auto Out = std::make_unique<CompileOutput>();
  CompileContext Ctx(P, std::move(Opts));
  Ctx.Out = Out.get();
  Ctx.SP = &Out->Program;
  Ctx.T = &Out->Timers;
  Ctx.SP->Source = &P;
  // Hand the interpreter the synthesized Section 3.3 runtime check (the
  // spmd library cannot link this analysis code directly).
  Ctx.SP->InPlaceRuntimeCheck = &checkInPlaceAtRuntime;

  pset::CacheStats CacheBefore = pset::OpCache::global().stats();
  obs::TraceBuffer *TB = &obs::TraceBuffer::global();
  {
    PhaseTimers::Scope Total(*Ctx.T, phase::Total);
    obs::TraceSpan CompileSpan(
        TB, "compile:" + (Ctx.P.name().empty() ? "<program>" : Ctx.P.name()),
        "compile");
    // Register program parameters up front so slots are stable.
    for (const std::string &Pr : Ctx.P.params())
      Ctx.SP->Vars.slot(Pr);

    // "Interprocedural analysis": per-procedure array access summaries.
    {
      PhaseTimers::Scope S(*Ctx.T, phase::Interproc);
      std::map<std::string, std::set<std::string>> Summary;
      std::function<void(const Phase &, std::set<std::string> &)> Scan =
          [&](const Phase &Ph, std::set<std::string> &Acc) {
            if (Ph.K == Phase::Kind::Nest) {
              for (const Statement &St : Ph.Nest.Stmts) {
                Acc.insert(St.Write.Array);
                for (const Reference &R : St.Reads)
                  Acc.insert(R.Array);
              }
            }
            for (const Phase &Sub : Ph.Body)
              Scan(Sub, Acc);
          };
      for (const Procedure &Proc : Ctx.P.procedures())
        for (const Phase &Ph : Proc.Phases)
          Scan(Ph, Summary[Proc.Name]);
    }

    // Collect compute nests in the exact order EmitPass visits them
    // (SeqLoop bodies recursed in place), so emission consumes the
    // analyses strictly in order.
    std::function<void(const Phase &)> Collect = [&](const Phase &Ph) {
      if (Ph.K == Phase::Kind::Nest) {
        Ctx.Nests.push_back(&Ph.Nest);
        return;
      }
      if (Ph.K == Phase::Kind::SeqLoop)
        for (const Phase &Sub : Ph.Body)
          Collect(Sub);
    };
    for (const Procedure &Proc : Ctx.P.procedures())
      for (const Phase &Ph : Proc.Phases)
        Collect(Ph);
    Ctx.NestAnalyses.resize(Ctx.Nests.size());

    // Analysis parallelism is per nest, so a worker beyond the nest count
    // would never get an index.
    unsigned Threads = Ctx.Opts.AnalysisThreads ? Ctx.Opts.AnalysisThreads
                                                : ThreadPool::hardwareThreads();
    Threads = std::max<size_t>(1, std::min<size_t>(Threads, Ctx.Nests.size()));
    Out->ThreadsUsed = Threads;
    if (Threads > 1)
      Ctx.Pool = std::make_unique<ThreadPool>(Threads);

    // The pipeline. The analysis passes write per-nest records (with
    // private timers, merged below in nest order); EmitPass then builds
    // the SPMD program sequentially.
    for (std::unique_ptr<Pass> &P : makePipeline()) {
      if (P->name() == std::string("emit")) {
        Ctx.Pool.reset(); // analysis is done; emission is sequential
        for (const NestAnalysis &NA : Ctx.NestAnalyses)
          Ctx.T->merge(NA.Timers);
      }
      {
        obs::TraceSpan PassSpan(TB, std::string("pass:") + P->name(),
                                "compile",
                                "\"nests\": " +
                                    std::to_string(Ctx.Nests.size()));
        P->run(Ctx);
      }
      obs::MetricsRegistry::global()
          .counter(std::string("core.pass.") + P->name() + ".runs")
          ->inc();
      const std::vector<std::string> &Dump = Ctx.Opts.DumpAfter;
      if (std::find(Dump.begin(), Dump.end(), P->name()) != Dump.end()) {
        std::cerr << "*** IR dump after " << P->name() << " ***\n";
        P->dump(Ctx, std::cerr);
      }
    }
  }
  Out->Cache = pset::OpCache::global().stats() - CacheBefore;
  return Out;
}

//===----------------------------------------------------------------------===//
// The compile-flag codec
//===----------------------------------------------------------------------===//

namespace {

/// The boolean compile flags: each clears its option.
struct NegFlag {
  const char *Spelling;
  bool CompilerOptions::*Field;
};
const NegFlag NegFlags[] = {
    {"--no-split", &CompilerOptions::LoopSplitting},
    {"--no-coalesce", &CompilerOptions::Coalescing},
    {"--no-inplace", &CompilerOptions::InPlaceAnalysis},
    {"--no-combined", &CompilerOptions::CombinedFormulation},
};

} // namespace

FlagArg core::parseCompileArg(const std::string &Arg, CompilerOptions &Opts,
                              std::string &Err) {
  Err.clear();
  std::string V;
  if (flagValue(Arg, "--threads=", V)) {
    int64_t N;
    if (!parseInt(V, N) || N < 0 || N > MaxAnalysisThreads) {
      Err = "invalid --threads value '" + V + "' (want 0.." +
            std::to_string(MaxAnalysisThreads) + ", 0 = hardware)";
      return FlagArg::Bad;
    }
    Opts.AnalysisThreads = static_cast<unsigned>(N);
    return FlagArg::Taken;
  }
  for (const NegFlag &F : NegFlags) {
    if (Arg == F.Spelling) {
      Opts.*F.Field = false;
      return FlagArg::Taken;
    }
    if (flagValue(Arg, std::string(F.Spelling) + "=", V)) {
      Err = std::string(F.Spelling) + " takes no value, got '" + Arg + "'";
      return FlagArg::Bad;
    }
  }
  return FlagArg::NotMine;
}

bool core::parseCompileArgs(const std::vector<std::string> &Args,
                            CompilerOptions &Opts, std::string &Err) {
  for (const std::string &A : Args) {
    FlagArg R = parseCompileArg(A, Opts, Err);
    if (R == FlagArg::NotMine)
      Err = "not a compile flag: '" + A + "'";
    if (R != FlagArg::Taken)
      return false;
  }
  return true;
}

std::vector<std::string> core::encodeCompileArgs(const CompilerOptions &Opts) {
  std::vector<std::string> Out;
  for (const NegFlag &F : NegFlags)
    if (!(Opts.*F.Field))
      Out.push_back(F.Spelling);
  if (Opts.AnalysisThreads != CompilerOptions().AnalysisThreads)
    Out.push_back("--threads=" + std::to_string(Opts.AnalysisThreads));
  return Out;
}
