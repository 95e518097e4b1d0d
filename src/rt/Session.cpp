//===- rt/Session.cpp - The one run-binding front end ---------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "rt/Session.h"

#include "core/InPlace.h"
#include "hpf/HpfPrinter.h"
#include "placement/Placement.h"
#include "spmd/Serialize.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <sstream>

using namespace dhpf;
using namespace dhpf::rt;

namespace {

/// Fallback semantics for programs with no registered benchmark: a
/// deterministic function of the values read, plus a deterministic array
/// initialization, so any valid .hpf input is runnable end to end.
void genericSetup(spmd::ProgramHost &H, const spmd::SpmdProgram &SP) {
  std::set<int> Sems;
  for (const spmd::CompiledStmt &S : SP.Stmts)
    if (S.SemanticsId >= 0)
      Sems.insert(S.SemanticsId);
  for (int Id : Sems)
    H.setSemantics(Id, [](const std::vector<double> &Reads,
                          const std::vector<int64_t> &, spmd::AccumMap &) {
      double V = 1.0;
      for (double R : Reads)
        V += 0.25 * R;
      return V;
    });
  if (!SP.Source)
    return;
  for (const auto &A : SP.Source->arrays())
    H.initArray(A.first, [](const std::vector<int64_t> &Idx) {
      double V = 0.5;
      for (int64_t X : Idx)
        V = V * 1.9 + 0.3 * static_cast<double>(X);
      return std::sin(V);
    });
}

/// Flag spellings of the engines, indexed by spmd::EngineKind.
const char *const EngineNames[] = {"auto", "tree", "bytecode", "native"};

bool parseProcs(const std::string &V, std::vector<int64_t> &Out,
                std::string &Err) {
  Out.clear();
  std::istringstream SS(V + ","); // "2," must not pass as "2"
  for (std::string Tok; std::getline(SS, Tok, ',');) {
    int64_t X;
    if (!rt::parseInt(Tok, X) || X < 1) {
      Err = V.empty() ? "empty --procs list"
                      : "invalid --procs extent '" + Tok + "' in '" + V + "'";
      return false;
    }
    Out.push_back(X);
  }
  return true;
}

} // namespace

bool rt::parseInt(const std::string &S, int64_t &Out) {
  if (S.empty() || std::isspace(static_cast<unsigned char>(S[0])))
    return false;
  errno = 0;
  char *End = nullptr;
  long long V = std::strtoll(S.c_str(), &End, 10);
  if (errno != 0 || End != S.c_str() + S.size())
    return false;
  Out = V;
  return true;
}

bool rt::flagValue(const std::string &Arg, const std::string &Prefix,
                   std::string &Out) {
  if (Arg.rfind(Prefix, 0) != 0)
    return false;
  Out = Arg.substr(Prefix.size());
  return true;
}

const char *rt::engineName(spmd::EngineKind E) {
  return EngineNames[static_cast<size_t>(E)];
}

SessionArg rt::parseSessionArg(const std::vector<std::string> &Args,
                               size_t &I, SessionOptions &SO,
                               std::string &Err) {
  const std::string &A = Args[I];
  std::string V;
  Err.clear();
  if (A == "-p") {
    V = I + 1 < Args.size() ? Args[++I] : "";
    if (!parseInt(V, SO.NumProcs) || SO.NumProcs < 1)
      Err = "invalid processor count '" + V + "'";
  } else if (flagValue(A, "--procs=", V)) {
    parseProcs(V, SO.ProcShape, Err);
  } else if (flagValue(A, "--param=", V)) {
    size_t Eq = V.find('=');
    int64_t Val;
    if (Eq == std::string::npos || Eq == 0 || !parseInt(V.substr(Eq + 1), Val))
      Err = "--param expects name=value, got '" + V + "'";
    else
      SO.Params[V.substr(0, Eq)] = Val;
  } else if (flagValue(A, "--engine=", V)) {
    const char *const *It =
        std::find(std::begin(EngineNames), std::end(EngineNames), V);
    if (It == std::end(EngineNames))
      Err = "unknown engine '" + V + "' (want tree|bytecode|native|auto)";
    else
      SO.Engine = static_cast<spmd::EngineKind>(It - std::begin(EngineNames));
  } else if (A == "--place") {
    SO.UsePlacement = true;
  } else if (A == "--no-validity") {
    SO.CheckValidity = false;
  } else {
    return SessionArg::NotSession;
  }
  return Err.empty() ? SessionArg::Taken : SessionArg::Bad;
}

bool rt::parseSessionArgs(const std::vector<std::string> &Args,
                          SessionOptions &SO, std::string &Err) {
  for (size_t I = 0; I != Args.size(); ++I) {
    SessionArg R = parseSessionArg(Args, I, SO, Err);
    if (R == SessionArg::NotSession)
      Err = "not a session flag: '" + Args[I] + "'";
    if (R != SessionArg::Taken)
      return false;
  }
  return true;
}

std::vector<std::string> rt::encodeSessionArgs(const SessionOptions &SO) {
  const SessionOptions Def;
  std::vector<std::string> Out;
  if (SO.NumProcs != Def.NumProcs)
    Out.insert(Out.end(), {"-p", std::to_string(SO.NumProcs)});
  std::string Procs;
  for (int64_t E : SO.ProcShape)
    Procs += (Procs.empty() ? "--procs=" : ",") + std::to_string(E);
  if (!Procs.empty())
    Out.push_back(Procs);
  for (const auto &[K, V] : SO.Params)
    Out.push_back("--param=" + K + "=" + std::to_string(V));
  if (SO.Engine != Def.Engine)
    Out.push_back(std::string("--engine=") + engineName(SO.Engine));
  if (SO.UsePlacement)
    Out.push_back("--place");
  if (!SO.CheckValidity)
    Out.push_back("--no-validity");
  return Out;
}

std::unique_ptr<spmd::SpmdProgram> rt::loadSpmd(const std::string &Text,
                                                const std::string &Name,
                                                DiagnosticEngine &Diags) {
  std::unique_ptr<spmd::SpmdProgram> SP =
      spmd::parseSpmdProgram(Text, Diags, Name);
  if (SP)
    SP->InPlaceRuntimeCheck = &core::checkInPlaceAtRuntime;
  return SP;
}

SessionOptions Session::pinned() const {
  return {.ProcShape = Shape, .Params = Config.Params,
          .CheckValidity = Config.CheckValidity, .Engine = Config.Engine};
}

void Session::setup(const spmd::SpmdProgram &SP,
                    spmd::ProgramHost &H) const {
  if (Reg && Canonical) {
    apps::AppInstance App = Reg->MakeCanonical();
    App.Setup(H);
  } else {
    genericSetup(H, SP);
  }
}

bool rt::checkParams(const spmd::SpmdProgram &SP,
                     const std::map<std::string, int64_t> &Params,
                     std::string &Err) {
  static const std::vector<std::string> None;
  const std::vector<std::string> &Known =
      SP.Source ? SP.Source->params() : None;
  for (const auto &KV : Params) {
    if (std::find(Known.begin(), Known.end(), KV.first) != Known.end())
      continue;
    Err = "unknown parameter '" + KV.first + "' for program '" +
          (SP.Source ? SP.Source->name() : std::string("<unknown>")) + "' (";
    if (Known.empty())
      Err += "it declares no parameters";
    for (size_t I = 0; I != Known.size(); ++I)
      Err += (I ? ", " : "declared: ") + Known[I];
    Err += ")";
    return false;
  }
  return true;
}

std::optional<Session> rt::resolveSession(const spmd::SpmdProgram &SP,
                                          const SessionOptions &Opts,
                                          std::string &Err) {
  if (!checkParams(SP, Opts.Params, Err))
    return std::nullopt;
  Session S;
  S.ProgName = SP.Source ? SP.Source->name() : "<unknown>";
  S.Config.Params = Opts.Params;
  S.Config.CheckValidity = Opts.CheckValidity;
  S.Config.Engine = spmd::Interpreter::resolveEngine(Opts.Engine);
  S.Reg = apps::findApp(S.ProgName);
  if (S.Reg) {
    apps::AppInstance App = S.Reg->MakeCanonical();
    S.Canonical = SP.Source && hpf::printHpfProgram(*App.Prog) ==
                                   hpf::printHpfProgram(*SP.Source);
  }

  // Processor-array extents: an explicit --procs wins; otherwise map -p
  // onto the benchmark's grid, or put all processors on the first
  // symbolic dimension.
  bool AnySymbolic = false;
  for (const hpf::VPDimInfo &D : SP.ProcDims)
    AnySymbolic |= !D.ProcSym.empty();
  S.Shape = Opts.ProcShape;
  if (S.Shape.empty() && AnySymbolic && Opts.UsePlacement) {
    // Cost-model placement: price every factorization of the requested
    // processor count by its comm-set traffic and take the cheapest.
    S.Shape = placement::bestShape(SP, Opts.NumProcs, Opts.Params);
    if (S.Shape.empty()) {
      Err = "placement found no shape laying " +
            std::to_string(Opts.NumProcs) + " processors onto the '" +
            S.ProgName + "' grid";
      return std::nullopt;
    }
  }
  if (S.Shape.empty() && AnySymbolic) {
    if (S.Reg) {
      S.Shape = S.Reg->ProcShape(Opts.NumProcs);
      if (S.Shape.empty()) {
        Err = "cannot map " + std::to_string(Opts.NumProcs) +
              " processors onto the '" + S.ProgName + "' grid";
        return std::nullopt;
      }
    } else {
      bool First = true;
      for (const hpf::VPDimInfo &D : SP.ProcDims) {
        if (D.ProcSym.empty())
          S.Shape.push_back(D.ProcFixed);
        else {
          S.Shape.push_back(First ? Opts.NumProcs : 1);
          First = false;
        }
      }
    }
  }
  if (!S.Shape.empty()) {
    if (S.Shape.size() != SP.ProcDims.size()) {
      Err = "processor shape has " + std::to_string(S.Shape.size()) +
            " extents but '" + SP.ProcName + "' has " +
            std::to_string(SP.ProcDims.size()) + " dimensions";
      return std::nullopt;
    }
    S.Config.ProcExtents[SP.ProcName] = S.Shape;
  }
  return S;
}

SessionRun rt::runSession(const spmd::SpmdProgram &SP, const Session &S,
                          bool Check) {
  SessionRun Run;
  Run.Interp = std::make_unique<spmd::Interpreter>(SP, S.Config);
  S.setup(SP, *Run.Interp);
  Run.R = Run.Interp->run();
  if (!Check || !S.Reg || !S.Canonical)
    return Run;
  apps::AppInstance App = S.Reg->MakeCanonical();
  if (!App.Check)
    return Run;
  // A check sets its message only when it fails.
  Run.Check.K = App.Check(*Run.Interp, Run.Check.Why) ? CheckVerdict::Ok
                                                       : CheckVerdict::Failed;
  return Run;
}

std::string rt::runSummary(const spmd::RunResult &RR) {
  std::ostringstream OS;
  OS << "messages " << RR.Messages << "\n"
     << "bytes " << RR.Bytes << "\n"
     << "stmt_instances " << RR.StmtInstances << "\n"
     << "span_copies " << RR.SpanCopies << "\n"
     << "packed_copies " << RR.PackedCopies << "\n"
     << "inplace_upgrades " << RR.InPlaceRuntimeUpgrades << "\n"
     << "valid " << (RR.Valid ? 1 : 0) << "\n";
  for (const std::string &V : RR.Violations)
    OS << "violation " << V << "\n";
  for (const auto &Acc : RR.FinalAccums) {
    uint64_t Bits;
    static_assert(sizeof(Bits) == sizeof(double), "accum bit rendering");
    std::memcpy(&Bits, &Acc.second, sizeof(Bits));
    char B[32];
    std::snprintf(B, sizeof(B), "%016llx",
                  static_cast<unsigned long long>(Bits));
    OS << "accum " << Acc.first << " " << B << "\n";
  }
  return OS.str();
}
