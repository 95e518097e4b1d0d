//===- rt/Session.cpp - Shared program/semantics resolution --------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "rt/Session.h"

#include "hpf/HpfPrinter.h"
#include "placement/Placement.h"

#include <algorithm>
#include <cmath>
#include <set>

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

} // namespace

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
