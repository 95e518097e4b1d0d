//===- core/CompilerDriver.cpp - Pass-pipeline compiler driver -----------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/CompilerDriver.h"

#include "core/InPlace.h"
#include "obs/Trace.h"

#include <functional>
#include <iostream>
#include <set>
#include <sstream>

using namespace dhpf;
using namespace dhpf::core;
using namespace dhpf::hpf;

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
// The driver
//===----------------------------------------------------------------------===//

CompilerDriver::CompilerDriver(const Program &P, CompilerOptions Opts,
                               DiagnosticEngine *Diags)
    : Ctx(P, std::move(Opts)), Out(std::make_unique<CompileOutput>()) {
  Ctx.Diags = Diags;
  Ctx.Out = Out.get();
  Ctx.SP = &Out->Program;
  Ctx.T = &Out->Timers;
  Ctx.SP->Source = &P;
  // Hand the interpreter the synthesized Section 3.3 runtime check (the
  // spmd library cannot link this analysis code directly).
  Ctx.SP->InPlaceRuntimeCheck = &checkInPlaceAtRuntime;
}

std::vector<std::string> CompilerDriver::passNames() {
  return {"partition", "comm", "split", "vp", "emit"};
}

namespace {

bool wantDump(const std::string &DumpAfter, const char *PassName) {
  std::istringstream In(DumpAfter);
  std::string Tok;
  while (std::getline(In, Tok, ',')) {
    size_t B = Tok.find_first_not_of(" \t");
    size_t E = Tok.find_last_not_of(" \t");
    if (B == std::string::npos)
      continue;
    std::string Name = Tok.substr(B, E - B + 1);
    if (Name == "all" || Name == PassName)
      return true;
  }
  return false;
}

} // namespace

std::unique_ptr<CompileOutput> CompilerDriver::run() {
  if (Ctx.Diags && !validateProgram(Ctx.P, *Ctx.Diags))
    return nullptr;

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

    Ctx.Threads = Ctx.Opts.AnalysisThreads ? Ctx.Opts.AnalysisThreads
                                           : ThreadPool::hardwareThreads();
    Out->ThreadsUsed = Ctx.Threads;
    if (Ctx.Threads > 1 && Ctx.Nests.size() > 1)
      Ctx.Pool = std::make_unique<ThreadPool>(Ctx.Threads);

    // The pipeline. The analysis passes write per-nest records (with
    // private timers, merged below in nest order); EmitPass then builds
    // the SPMD program sequentially.
    std::unique_ptr<Pass> Pipeline[] = {createPartitionPass(),
                                        createCommPass(), createSplitPass(),
                                        createVPPass(), createEmitPass()};
    for (std::unique_ptr<Pass> &P : Pipeline) {
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
      if (!Ctx.Opts.DumpAfter.empty() &&
          wantDump(Ctx.Opts.DumpAfter, P->name())) {
        std::ostream &OS =
            Ctx.Opts.DumpStream ? *Ctx.Opts.DumpStream : std::cerr;
        OS << "*** IR dump after " << P->name() << " ***\n";
        P->dump(Ctx, OS);
      }
    }
  }
  Out->Cache = pset::OpCache::global().stats() - CacheBefore;
  return std::move(Out);
}
