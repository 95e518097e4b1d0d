//===- spmd/ExecPlan.cpp - Lowered SPMD execution plan --------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "spmd/ExecPlan.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "spmd/KernelABI.h"
#include "spmd/KernelCache.h"
#include "spmd/NativeGen.h"
#include "support/MathExtras.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <limits>
#include <set>
#include <utility>

using namespace dhpf;
using namespace dhpf::spmd;
using namespace dhpf::hpf;

//===----------------------------------------------------------------------===//
// Lowering
//===----------------------------------------------------------------------===//

namespace {

/// Collects every loop-variable slot of a generated AST.
void collectLoopSlots(const cg::AstNode &N, std::set<unsigned> &Out) {
  if (N.K == cg::AstNode::Kind::Loop)
    Out.insert(N.VarSlot);
  for (const cg::AstPtr &C : N.Children)
    collectLoopSlots(*C, Out);
}

/// Collects every leaf id of a generated AST.
void collectLeaves(const cg::AstNode &N, std::vector<int> &Out) {
  if (N.K == cg::AstNode::Kind::Leaf)
    Out.push_back(N.LeafId);
  for (const cg::AstPtr &C : N.Children)
    collectLeaves(*C, Out);
}

/// Collects the TimeLoop sequence slots and loop slots of the whole
/// program (the slots rebound between event executions).
void collectRebound(const SpmdNode &N, std::set<unsigned> &Time,
                    std::set<unsigned> &Loops) {
  if (N.K == SpmdNode::Kind::TimeLoop)
    Time.insert(N.SeqSlot);
  if (N.K == SpmdNode::Kind::Compute && N.Loops)
    collectLoopSlots(*N.Loops, Loops);
  for (const auto &C : N.Children)
    collectRebound(*C, Time, Loops);
}

void addUsedSlots(const bc::Prog &P, std::set<unsigned> &Out) {
  for (const bc::Insn &In : P.code())
    if (In.O == bc::Op::PushVar || In.O == bc::Op::PushVarK)
      Out.insert(In.A);
}

void addUsedSlots(const PlanAst &A, std::set<unsigned> &Out) {
  for (const bc::Prog &P : A.Exprs)
    addUsedSlots(P, Out);
  for (const PlanGuard &G : A.Guards)
    for (const auto &Conj : G.AnyOf)
      for (const PlanAtom &At : Conj)
        addUsedSlots(At.E, Out);
}

bool atomHolds(int64_t V, cg::GuardAtom::Kind K, int64_t Mod) {
  switch (K) {
  case cg::GuardAtom::Kind::NonNeg:
    return V >= 0;
  case cg::GuardAtom::Kind::Zero:
    return V == 0;
  case cg::GuardAtom::Kind::ModZero:
    return floorMod(V, Mod) == 0;
  }
  return false;
}

} // namespace

namespace {

/// Lowers one SpmdProgram into a PlanBuild. Stateless beyond the output,
/// so every process of a launch builds the identical plan (and therefore
/// the identical native kernel source) from its own bindings.
class PlanLowering {
public:
  PlanLowering(const SpmdProgram &Prog, const PlanBuildInputs &In,
               PlanBuild &Out)
      : Prog(Prog), In(In), B(Out), Plan(Out.Plan) {}

  void run();

private:
  const SpmdProgram &Prog;
  const PlanBuildInputs &In;
  PlanBuild &B;
  ExecPlan &Plan;
  int32_t NextComputeId = 0, NextReduceId = 0;

  void noteDepth(const bc::Prog &P);
  bc::Prog flattenExpr(const std::vector<cg::Expr> &Subs, const ArrayStore &A,
                       const bc::SlotConsts &Fixed);
  void lowerInto(PlanAst &Out, const cg::AstNode &N,
                 const bc::SlotConsts &Fixed);
  PlanNode lowerNode(const SpmdNode &N, const bc::SlotConsts &Fixed);
};

void PlanLowering::noteDepth(const bc::Prog &P) {
  if (P.depth() > Plan.StackDepth)
    Plan.StackDepth = P.depth();
}

bc::Prog PlanLowering::flattenExpr(const std::vector<cg::Expr> &Subs,
                                   const ArrayStore &A,
                                   const bc::SlotConsts &Fixed) {
  assert(Subs.size() == A.rank() && "subscript arity mismatch");
  cg::Expr E = cg::Expr::constant(0);
  int64_t Stride = 1, LoOff = 0;
  for (unsigned D = 0; D != A.rank(); ++D) {
    E = cg::Expr::add(E, cg::Expr::mul(Subs[D], Stride));
    LoOff = addOv(LoOff, mulOv(A.lo(D), Stride));
    Stride = mulOv(Stride, A.extent(D));
  }
  E = cg::Expr::add(E, cg::Expr::constant(-LoOff));
  bc::Prog P = bc::compileExpr(E, Fixed);
  noteDepth(P);
  return P;
}

void PlanLowering::lowerInto(PlanAst &Out, const cg::AstNode &N,
                             const bc::SlotConsts &Fixed) {
  switch (N.K) {
  case cg::AstNode::Kind::Block:
    for (const cg::AstPtr &C : N.Children)
      lowerInto(Out, *C, Fixed);
    return;
  case cg::AstNode::Kind::Loop: {
    bc::Prog LB = bc::compileExpr(N.LB, Fixed);
    bc::Prog UB = bc::compileExpr(N.UB, Fixed);
    if (LB.isConst() && UB.isConst() && LB.constVal() > UB.constVal())
      return; // statically empty
    bc::Prog Step = bc::compileExpr(N.Step, Fixed);
    noteDepth(LB);
    noteDepth(UB);
    noteDepth(Step);
    PlanAst::Node Nd;
    Nd.K = PlanAst::Node::Kind::Loop;
    Nd.VarSlot = N.VarSlot;
    Nd.LB = static_cast<int32_t>(Out.Exprs.size());
    Out.Exprs.push_back(std::move(LB));
    Nd.UB = static_cast<int32_t>(Out.Exprs.size());
    Out.Exprs.push_back(std::move(UB));
    if (Step.isConst() && Step.constVal() == 1) {
      Nd.Step = -1;
    } else {
      Nd.Step = static_cast<int32_t>(Out.Exprs.size());
      Out.Exprs.push_back(std::move(Step));
    }
    size_t Me = Out.Nodes.size();
    Out.Nodes.push_back(Nd);
    for (const cg::AstPtr &C : N.Children)
      lowerInto(Out, *C, Fixed);
    if (Out.Nodes.size() == Me + 1) {
      Out.Nodes.pop_back(); // body folded away entirely
      return;
    }
    Out.Nodes[Me].SubtreeEnd = static_cast<uint32_t>(Out.Nodes.size());
    return;
  }
  case cg::AstNode::Kind::If: {
    std::vector<PlanGuard> Kept;
    for (const cg::Guard &G : N.AllOf) {
      if (G.isTrue())
        continue;
      PlanGuard PG;
      bool GuardTrue = false;
      for (const std::vector<cg::GuardAtom> &Conj : G.AnyOf) {
        std::vector<PlanAtom> PC;
        bool ConjFalse = false;
        for (const cg::GuardAtom &At : Conj) {
          bc::Prog E = bc::compileExpr(At.E, Fixed);
          if (E.isConst()) {
            if (!atomHolds(E.constVal(), At.K, At.Mod)) {
              ConjFalse = true;
              break;
            }
            continue; // statically true atom
          }
          noteDepth(E);
          PC.push_back({std::move(E), At.K, At.Mod});
        }
        if (ConjFalse)
          continue;
        if (PC.empty()) { // a statically true conjunct: guard is true
          GuardTrue = true;
          break;
        }
        PG.AnyOf.push_back(std::move(PC));
      }
      if (GuardTrue)
        continue;
      if (PG.AnyOf.empty())
        return; // every conjunct false: the branch is dead
      Kept.push_back(std::move(PG));
    }
    if (Kept.empty()) { // all guards statically true: splice children
      for (const cg::AstPtr &C : N.Children)
        lowerInto(Out, *C, Fixed);
      return;
    }
    PlanAst::Node Nd;
    Nd.K = PlanAst::Node::Kind::If;
    Nd.GuardBegin = static_cast<uint32_t>(Out.Guards.size());
    for (PlanGuard &PG : Kept)
      Out.Guards.push_back(std::move(PG));
    Nd.GuardEnd = static_cast<uint32_t>(Out.Guards.size());
    size_t Me = Out.Nodes.size();
    Out.Nodes.push_back(Nd);
    for (const cg::AstPtr &C : N.Children)
      lowerInto(Out, *C, Fixed);
    if (Out.Nodes.size() == Me + 1) {
      Out.Nodes.pop_back();
      return;
    }
    Out.Nodes[Me].SubtreeEnd = static_cast<uint32_t>(Out.Nodes.size());
    return;
  }
  case cg::AstNode::Kind::Leaf: {
    PlanAst::Node Nd;
    Nd.K = PlanAst::Node::Kind::Leaf;
    Nd.LeafId = N.LeafId;
    Nd.SubtreeEnd = static_cast<uint32_t>(Out.Nodes.size() + 1);
    Out.Nodes.push_back(Nd);
    return;
  }
  }
}

PlanNode PlanLowering::lowerNode(const SpmdNode &N,
                                 const bc::SlotConsts &Fixed) {
  PlanNode P;
  P.K = N.K;
  switch (N.K) {
  case SpmdNode::Kind::Seq:
    break;
  case SpmdNode::Kind::TimeLoop:
    P.SeqSlot = N.SeqSlot;
    P.SeqLo = bc::compileExpr(N.SeqLo, Fixed);
    P.SeqHi = bc::compileExpr(N.SeqHi, Fixed);
    noteDepth(P.SeqLo);
    noteDepth(P.SeqHi);
    break;
  case SpmdNode::Kind::Compute: {
    P.NativeComputeId = NextComputeId++;
    P.NestName = N.NestName;
    if (!N.Loops)
      break;
    lowerInto(P.Loops, *N.Loops, Fixed);
    // Parallel ranks need full per-element ownership on every written
    // array: unowned or replicated writes land on the same storage from
    // every rank and must replay the tree engine's sequential order.
    P.ParallelSafe = true;
    std::vector<int> Leaves;
    collectLeaves(*N.Loops, Leaves);
    for (int L : Leaves) {
      const ArrayStore &A =
          *B.Stores[B.ArrayIds.at(Prog.Stmts[L].WriteArray)];
      if (A.Owner.empty() ||
          std::any_of(A.Owner.begin(), A.Owner.end(),
                      [](int32_t O) { return O < 0; }))
        P.ParallelSafe = false;
    }
    break;
  }
  case SpmdNode::Kind::Send:
  case SpmdNode::Kind::Recv:
    P.EventId = N.EventId;
    break;
  case SpmdNode::Kind::Reduce:
    P.NativeReduceId = NextReduceId++;
    P.RedOp = N.RedOp;
    P.RedName = N.RedName;
    P.RedBytes = N.RedBytes;
    P.RedCost = N.RedCost;
    break;
  }
  for (const auto &C : N.Children)
    P.Children.push_back(lowerNode(*C, Fixed));
  return P;
}

void PlanLowering::run() {
  // Dense array ids in map order (deterministic).
  for (auto &[Name, Store] : *In.Arrays) {
    B.ArrayIds[Name] = static_cast<uint32_t>(Plan.ArrayNames.size());
    Plan.ArrayNames.push_back(Name);
    B.Stores.push_back(&Store);
  }

  // Slots whose values are fixed for the whole run: named in AllBindings
  // and never rebound by a loop, a TimeLoop, or the per-processor mv*/mc*
  // assignment.
  std::set<unsigned> TimeSlots, LoopSlots;
  if (Prog.Root)
    collectRebound(*Prog.Root, TimeSlots, LoopSlots);
  for (const CommEvent &Ev : Prog.Events) {
    if (Ev.SendLoops)
      collectLoopSlots(*Ev.SendLoops, LoopSlots);
    if (Ev.RecvLoops)
      collectLoopSlots(*Ev.RecvLoops, LoopSlots);
  }
  std::set<unsigned> Rebound = TimeSlots;
  Rebound.insert(LoopSlots.begin(), LoopSlots.end());
  Rebound.insert(Prog.MySlots.begin(), Prog.MySlots.end());
  Rebound.insert(Prog.CoordSlots.begin(), Prog.CoordSlots.end());
  bc::SlotConsts Fixed;
  for (unsigned S = 0; S != Prog.Vars.size(); ++S) {
    if (Rebound.count(S))
      continue;
    auto It = In.AllBindings->find(Prog.Vars.name(S));
    if (It != In.AllBindings->end())
      Fixed[S] = It->second;
  }

  for (const CompiledStmt &S : Prog.Stmts) {
    StmtPlan SP;
    SP.WriteArray = B.ArrayIds.at(S.WriteArray);
    SP.WriteFlat = flattenExpr(S.WriteSubs, *B.Stores[SP.WriteArray], Fixed);
    for (const CompiledStmt::Read &Rd : S.Reads) {
      StmtPlan::Read R;
      R.Array = B.ArrayIds.at(Rd.Array);
      R.Flat = flattenExpr(Rd.Subs, *B.Stores[R.Array], Fixed);
      SP.Reads.push_back(std::move(R));
    }
    SP.Cost = S.Cost;
    SP.SemanticsId = S.SemanticsId;
    Plan.Stmts.push_back(std::move(SP));
  }

  for (unsigned EI = 0; EI != Prog.Events.size(); ++EI) {
    const CommEvent &Ev = Prog.Events[EI];
    EventPlan EP;
    EP.Id = Ev.Id;
    EP.Array = B.ArrayIds.at(Ev.Array);
    EP.PartnerSlots = Ev.PartnerSlots;
    EP.ElemSlots = Ev.ElemSlots;
    EP.ElemBytes = B.Stores[EP.Array]->elemBytes();
    EP.InPlace = (*In.EventInPlace)[EI] != 0;
    if (Ev.SendLoops)
      lowerInto(EP.Send, *Ev.SendLoops, Fixed);
    if (Ev.RecvLoops)
      lowerInto(EP.Recv, *Ev.RecvLoops, Fixed);
    std::vector<cg::Expr> ElemSubs;
    for (unsigned S : Ev.ElemSlots)
      ElemSubs.push_back(cg::Expr::var(S, Prog.Vars.name(S)));
    EP.ElemFlat = flattenExpr(ElemSubs, *B.Stores[EP.Array], Fixed);

    // Cacheable iff no free slot of either nest is a TimeLoop variable:
    // then the enumerated lists are identical every execution.
    std::set<unsigned> Used;
    addUsedSlots(EP.Send, Used);
    addUsedSlots(EP.Recv, Used);
    addUsedSlots(EP.ElemFlat, Used);
    Used.insert(EP.PartnerSlots.begin(), EP.PartnerSlots.end());
    Used.insert(EP.ElemSlots.begin(), EP.ElemSlots.end());
    std::set<unsigned> Bound;
    for (const PlanAst *A : {&EP.Send, &EP.Recv})
      for (const PlanAst::Node &Nd : A->Nodes)
        if (Nd.K == PlanAst::Node::Kind::Loop)
          Bound.insert(Nd.VarSlot);
    EP.Cacheable = true;
    for (unsigned S : Used)
      if (!Bound.count(S) && TimeSlots.count(S))
        EP.Cacheable = false;
    Plan.Events.push_back(std::move(EP));
  }

  for (unsigned D = 0; D != Prog.ProcDims.size(); ++D) {
    const VPDimInfo &Info = Prog.ProcDims[D];
    DimPlan DP;
    DP.Kind = Info.Kind;
    DP.Virtualized = Info.Virtualized;
    DP.TmplLo = Info.TmplLo;
    DP.CyclicK = Info.CyclicK;
    DP.Extent = (*In.ProcShape)[D];
    if (Info.Virtualized && Info.Kind == DistSpec::Kind::Block)
      DP.Block = Info.BlockParam.empty()
                     ? Info.BlockFixed
                     : In.AllBindings->at(Info.BlockParam);
    Plan.Dims.push_back(DP);
  }

  if (Prog.Root)
    Plan.Root = lowerNode(*Prog.Root, Fixed);
}

} // namespace

PlanBuild spmd::buildExecPlan(const SpmdProgram &Prog,
                              const PlanBuildInputs &In) {
  PlanBuild B;
  PlanLowering(Prog, In, B).run();
  return B;
}


//===----------------------------------------------------------------------===//
// Plan walking and virtual-processor mapping
//===----------------------------------------------------------------------===//

namespace {

bool guardHolds(const PlanGuard &G, const int64_t *Regs, int64_t *Stack) {
  for (const std::vector<PlanAtom> &Conj : G.AnyOf) {
    bool All = true;
    for (const PlanAtom &At : Conj)
      if (!atomHolds(At.E.eval(Regs, Stack), At.K, At.Mod)) {
        All = false;
        break;
      }
    if (All)
      return true;
  }
  return false;
}

template <typename LeafFn>
void walk(const PlanAst &A, uint32_t Idx, int64_t *Regs, int64_t *Stack,
          const LeafFn &F) {
  const PlanAst::Node &N = A.Nodes[Idx];
  switch (N.K) {
  case PlanAst::Node::Kind::Loop: {
    int64_t Lo = A.Exprs[N.LB].eval(Regs, Stack);
    int64_t Hi = A.Exprs[N.UB].eval(Regs, Stack);
    int64_t Step = N.Step < 0 ? 1 : A.Exprs[N.Step].eval(Regs, Stack);
    assert(Step > 0 && "loop step must be positive");
    int64_t Saved = Regs[N.VarSlot];
    for (int64_t V = Lo; V <= Hi; V += Step) {
      Regs[N.VarSlot] = V;
      for (uint32_t C = Idx + 1; C != N.SubtreeEnd; C = A.Nodes[C].SubtreeEnd)
        walk(A, C, Regs, Stack, F);
    }
    Regs[N.VarSlot] = Saved;
    return;
  }
  case PlanAst::Node::Kind::If:
    for (uint32_t G = N.GuardBegin; G != N.GuardEnd; ++G)
      if (!guardHolds(A.Guards[G], Regs, Stack))
        return;
    for (uint32_t C = Idx + 1; C != N.SubtreeEnd; C = A.Nodes[C].SubtreeEnd)
      walk(A, C, Regs, Stack, F);
    return;
  case PlanAst::Node::Kind::Leaf:
    F(N.LeafId, Regs);
    return;
  }
}

template <typename LeafFn>
void walkAll(const PlanAst &A, int64_t *Regs, int64_t *Stack,
             const LeafFn &F) {
  for (uint32_t C = 0; C < A.Nodes.size(); C = A.Nodes[C].SubtreeEnd)
    walk(A, C, Regs, Stack, F);
}

/// The runtime check the paper attaches to VP communication code, over
/// the pre-resolved DimPlan forms.
bool isRealVP(const std::vector<DimPlan> &Dims, const int64_t *PT) {
  for (unsigned D = 0; D != Dims.size(); ++D) {
    const DimPlan &DP = Dims[D];
    if (!DP.Virtualized)
      continue;
    int64_t Off = PT[D] - DP.TmplLo;
    switch (DP.Kind) {
    case DistSpec::Kind::Block:
      if (floorMod(Off, DP.Block) != 0 || Off / DP.Block >= DP.Extent)
        return false; // fictitious: not a block start, or past the array
      break;
    case DistSpec::Kind::Cyclic:
      break; // every template cell is a real VP
    case DistSpec::Kind::CyclicK:
      if (floorMod(Off, DP.CyclicK) != 0)
        return false; // not a block start
      break;
    case DistSpec::Kind::Star:
      break;
    }
  }
  return true;
}

unsigned rankOfPartner(const std::vector<DimPlan> &Dims, const int64_t *PT) {
  int64_t R = 0, M = 1;
  for (unsigned D = 0; D != Dims.size(); ++D) {
    const DimPlan &DP = Dims[D];
    int64_t C = 0;
    if (!DP.Virtualized) {
      C = PT[D];
    } else {
      switch (DP.Kind) {
      case DistSpec::Kind::Block:
        C = (PT[D] - DP.TmplLo) / DP.Block;
        break;
      case DistSpec::Kind::Cyclic:
        C = floorMod(PT[D] - DP.TmplLo, DP.Extent);
        break;
      case DistSpec::Kind::CyclicK:
        C = floorMod((PT[D] - DP.TmplLo) / DP.CyclicK, DP.Extent);
        break;
      case DistSpec::Kind::Star:
        break;
      }
    }
    assert(C >= 0 && C < DP.Extent && "partner coordinate out of range");
    R += C * M;
    M *= DP.Extent;
  }
  return static_cast<unsigned>(R);
}

} // namespace

//===----------------------------------------------------------------------===//
// LoadedPlan
//===----------------------------------------------------------------------===//

LoadedPlan::LoadedPlan(const SpmdProgram &Prog, const PlanBuildInputs &In,
                       double SecPerWork) {
  PlanBuild B = buildExecPlan(Prog, In);
  Plan = std::move(B.Plan);
  Stores = std::move(B.Stores);
  for (ArrayStore *A : Stores) {
    Data.push_back(A->data());
    Owner.push_back(A->Owner.empty() ? nullptr : A->Owner.data());
    Size.push_back(static_cast<int64_t>(A->size()));
  }
  for (const StmtPlan &SP : Plan.Stmts) {
    LeafCostSec.push_back(SP.Cost * SecPerWork);
    MaxReads = std::max(MaxReads, static_cast<unsigned>(SP.Reads.size()));
  }
}

void LoadedPlan::setupNative(obs::TraceBuffer *Trace, const std::string &Who) {
  native::PlanSource Src;
  {
    obs::TraceSpan Span(Trace, "native:emit", "spmd.native");
    Src = native::emitPlanSource(Plan);
  }
  std::string Err;
  const native::Kernel *K = native::KernelCache::global().get(Src, &Err);
  if (!K) {
    std::fprintf(stderr,
                 "dhpf: %snative engine unavailable, falling back to "
                 "bytecode: %s\n",
                 Who.c_str(), Err.c_str());
    obs::MetricsRegistry::global().counter("spmd.native.fallbacks")->inc();
    return;
  }
  Kernels = K->Table;
}

void LoadedPlan::bindSemantics(const std::map<int, StmtFn> &Semantics) {
  Sems.assign(Plan.Stmts.size(), nullptr);
  for (size_t K = 0; K != Plan.Stmts.size(); ++K) {
    auto It = Semantics.find(Plan.Stmts[K].SemanticsId);
    if (It != Semantics.end())
      Sems[K] = &It->second;
  }
}

//===----------------------------------------------------------------------===//
// RankCore
//===----------------------------------------------------------------------===//

RankCore::RankCore(LoadedPlan &LIn, unsigned MeIn, unsigned NP,
                   std::vector<int64_t> &EnvIn, AccumMap &AccumsIn,
                   bool CheckValidityIn, double *Clock)
    : L(LIn), Plan(LIn.Plan), Me(MeIn), Env(EnvIn), Accums(AccumsIn),
      CheckValidity(CheckValidityIn) {
  Stack.assign(Plan.StackDepth + 1, 0);
  ReadBuf.assign(L.MaxReads, 0.0);
  PartnerPos.assign(NP, -1);
  SendCache.resize(Plan.Events.size());
  RecvCache.resize(Plan.Events.size());
  Overlay.resize(Plan.ArrayNames.size());
  Pending.resize(Plan.ArrayNames.size());
  Ctx.Host = this;
  Ctx.Me = static_cast<int32_t>(Me);
  Ctx.NumArrays = static_cast<int32_t>(L.Stores.size());
  Ctx.Data = L.Data.data();
  Ctx.Owner = L.Owner.data();
  Ctx.Size = L.Size.data();
  Ctx.Reads = ReadBuf.data();
  Ctx.LeafCostSec = L.LeafCostSec.data();
  Ctx.Clock = Clock;
  Ctx.Stmts = &Stmts;
  Ctx.ProgressCtr = 0;
  Ctx.ProgressEvery = ~0ull; // no transport to pump until pumpEvery()
  Ctx.ReadSlow = &RankCore::readSlowCb;
  Ctx.WriteSlow = &RankCore::writeSlowCb;
  Ctx.Stmt = &RankCore::stmtCb;
  Ctx.Progress = &RankCore::progressCb;
  Ctx.GrowPairs = &RankCore::growPairsCb; // PairQ/PairF bound per event
}

void RankCore::pumpEvery(uint64_t Every, std::function<void()> Fn) {
  Ctx.ProgressEvery = Every;
  OnProgress = std::move(Fn);
}

int64_t RankCore::eval(const bc::Prog &P) {
  return P.eval(Env.data(), Stack.data());
}

double RankCore::readSlowCb(DhpfCtx *C, int32_t A, int64_t F) {
  return static_cast<RankCore *>(C->Host)->read(static_cast<uint32_t>(A), F);
}

void RankCore::writeSlowCb(DhpfCtx *C, int32_t A, int64_t F, double V) {
  static_cast<RankCore *>(C->Host)->write(static_cast<uint32_t>(A), F, V);
}

double RankCore::stmtCb(DhpfCtx *C, int32_t Leaf, int32_t N) {
  RankCore &K = *static_cast<RankCore *>(C->Host);
  K.Reads.assign(C->Reads, C->Reads + N);
  return K.stmt(Leaf);
}

void RankCore::progressCb(DhpfCtx *C) {
  // Called from compiled C frames: an exception must not unwind through
  // them. Park it, stop pumping, and let compute() rethrow it.
  RankCore &K = *static_cast<RankCore *>(C->Host);
  try {
    K.OnProgress();
  } catch (...) {
    K.ProgressError = std::current_exception();
    C->ProgressEvery = ~0ull;
  }
}

void RankCore::growPairsCb(DhpfCtx *C) {
  RankCore &K = *static_cast<RankCore *>(C->Host);
  size_t Cap = K.RawQ.empty() ? 256 : K.RawQ.size() * 2;
  K.RawQ.resize(Cap);
  K.RawF.resize(Cap);
  C->PairQ = K.RawQ.data();
  C->PairF = K.RawF.data();
  C->CapPairs = Cap;
}

double RankCore::read(uint32_t AId, int64_t Flat) {
  ArrayStore &A = *L.Stores[AId];
  assert(Flat >= 0 && Flat < static_cast<int64_t>(A.size()) &&
         "flat subscript out of bounds");
  if (A.Owner.empty() || A.Owner[Flat] == static_cast<int32_t>(Me) ||
      A.Owner[Flat] < 0)
    return A.at(Flat);
  auto &Ov = Overlay[AId];
  auto It = Ov.find(Flat);
  if (It != Ov.end())
    return It->second;
  auto &Pd = Pending[AId];
  auto It2 = Pd.find(Flat);
  if (It2 != Pd.end())
    return It2->second;
  if (CheckValidity && Viol.size() < MaxViolations)
    Viol.push_back("proc " + std::to_string(Me) + " read unreceived element " +
                   std::to_string(Flat) + " of " + Plan.ArrayNames[AId]);
  return A.at(Flat);
}

void RankCore::write(uint32_t AId, int64_t Flat, double V) {
  ArrayStore &A = *L.Stores[AId];
  assert(Flat >= 0 && Flat < static_cast<int64_t>(A.size()) &&
         "flat subscript out of bounds");
  if (A.Owner.empty() || A.Owner[Flat] == static_cast<int32_t>(Me) ||
      A.Owner[Flat] < 0) {
    A.at(Flat) = V;
    return;
  }
  Pending[AId][Flat] = V;
}

double RankCore::stmt(int32_t Leaf) {
  const StmtFn *Fn = L.Sems[Leaf];
  assert(Fn && "statement without semantics");
  return (*Fn)(Reads, Env, Accums);
}

void RankCore::compute(const PlanNode &N) {
  if (L.Kernels && N.NativeComputeId >= 0) {
    // The compiled loop nest performs the identical sequence of reads,
    // statement calls, stores, clock bumps, instance counts and progress
    // pumps; slow paths (non-local elements) come back through the
    // callbacks.
    L.Kernels->Compute[N.NativeComputeId](&Ctx, Env.data());
  } else {
    walkCompute(N);
  }
  if (ProgressError)
    std::rethrow_exception(std::exchange(ProgressError, nullptr));
}

void RankCore::walkCompute(const PlanNode &N) {
  int64_t *Stk = Stack.data();
  walkAll(N.Loops, Env.data(), Stk, [&](int32_t Leaf, const int64_t *R) {
    const StmtPlan &SP = Plan.Stmts[Leaf];
    Reads.clear();
    for (const StmtPlan::Read &Rd : SP.Reads)
      Reads.push_back(read(Rd.Array, Rd.Flat.eval(R, Stk)));
    write(SP.WriteArray, SP.WriteFlat.eval(R, Stk), stmt(Leaf));
    *Ctx.Clock += L.LeafCostSec[Leaf];
    ++Stmts;
    // The Figure 4 overlap window: drive posted sends forward while this
    // rank computes its local iterations.
    if (++Ctx.ProgressCtr >= Ctx.ProgressEvery) {
      Ctx.ProgressCtr = 0;
      Ctx.Progress(&Ctx);
    }
  });
}

void RankCore::buildLists(const PlanAst &A, const EventPlan &EP,
                          std::vector<PartnerList> &Out, bool RecvSide) {
  if (L.Kernels) {
    // Native enumeration: the kernel folds the realVP check and rank
    // mapping to constants and fills RawQ/RawF through the pair buffer.
    size_t EIdx = static_cast<size_t>(&EP - Plan.Events.data());
    if (RawQ.empty()) {
      RawQ.resize(256);
      RawF.resize(256);
    }
    Ctx.PairQ = RawQ.data();
    Ctx.PairF = RawF.data();
    Ctx.NumPairs = 0;
    Ctx.CapPairs = RawQ.size();
    DhpfEnumFn Fn =
        RecvSide ? L.Kernels->EventRecv[EIdx] : L.Kernels->EventSend[EIdx];
    Fn(&Ctx, Env.data());
    RawLen = Ctx.NumPairs;
  } else {
    RawQ.clear();
    RawF.clear();
    const unsigned ND = static_cast<unsigned>(EP.PartnerSlots.size());
    std::vector<int64_t> PT(ND);
    int64_t *Stk = Stack.data();
    walkAll(A, Env.data(), Stk, [&](int32_t, const int64_t *Regs) {
      for (unsigned D = 0; D != ND; ++D)
        PT[D] = Regs[EP.PartnerSlots[D]];
      if (!isRealVP(Plan.Dims, PT.data()))
        return; // fictitious virtual processor
      unsigned Q = rankOfPartner(Plan.Dims, PT.data());
      if (Q == Me)
        return; // VP neighbours on the same physical processor
      RawQ.push_back(Q);
      RawF.push_back(EP.ElemFlat.eval(Regs, Stk));
    });
    RawLen = RawQ.size();
  }
  // Group per partner in first-appearance order (the tree engine's message
  // order), then dedup by sort+unique: union conjuncts in the comm sets may
  // enumerate an element twice.
  Out.clear();
  for (size_t R = 0; R != RawLen; ++R) {
    const unsigned Q = RawQ[R];
    if (PartnerPos[Q] < 0) {
      PartnerPos[Q] = static_cast<int32_t>(Out.size());
      PartnerList PL;
      PL.Q = Q;
      PL.Flats = std::make_shared<std::vector<int64_t>>();
      Out.push_back(std::move(PL));
    }
    Out[PartnerPos[Q]].Flats->push_back(RawF[R]);
  }
  const ArrayStore &Arr = *L.Stores[EP.Array];
  const int32_t MeId = static_cast<int32_t>(Me);
  for (PartnerList &PL : Out) {
    PartnerPos[PL.Q] = -1;
    std::vector<int64_t> &V = *PL.Flats;
    std::sort(V.begin(), V.end());
    V.erase(std::unique(V.begin(), V.end()), V.end());
    assert(V.front() >= 0 && V.back() < static_cast<int64_t>(Arr.size()) &&
           "flat subscript out of bounds");
    PL.Base = V.front();
    PL.Contig = V.back() - V.front() + 1 == static_cast<int64_t>(V.size());
    bool AnyLocal = false, AnyRemote = false;
    for (int64_t F : V) {
      bool Local = RecvSide ? !Arr.Owner.empty() && Arr.Owner[F] == MeId
                            : Arr.Owner.empty() || Arr.Owner[F] < 0 ||
                                  Arr.Owner[F] == MeId;
      (Local ? AnyLocal : AnyRemote) = true;
      if (AnyLocal && AnyRemote)
        break;
    }
    PL.Own = AnyRemote ? (AnyLocal ? PartnerList::OwnClass::Mixed
                                   : PartnerList::OwnClass::NoneLocal)
                       : PartnerList::OwnClass::AllLocal;
  }
}

const std::vector<RankCore::PartnerList> &
RankCore::lists(const EventPlan &EP, bool RecvSide) {
  const PlanAst &A = RecvSide ? EP.Recv : EP.Send;
  if (!EP.Cacheable) {
    buildLists(A, EP, Lists, RecvSide);
    return Lists;
  }
  size_t EIdx = static_cast<size_t>(&EP - Plan.Events.data());
  SideCache &C = (RecvSide ? RecvCache : SendCache)[EIdx];
  if (!C.Built) {
    buildLists(A, EP, C.Partners, RecvSide);
    C.Built = true;
  }
  return C.Partners;
}

void RankCore::pack(const EventPlan &EP, const PartnerList &PL, double *Out) {
  ArrayStore &Arr = *L.Stores[EP.Array];
  const std::vector<int64_t> &F = *PL.Flats;
  if (isSpan(PL)) {
    // Zero-copy span gather: the Section 3.3 analysis promised this shape;
    // memcpy straight out of the store (via the kernel's pack body when
    // the native engine is live).
    if (L.Kernels)
      L.Kernels->CopySpan(Out, Arr.data() + PL.Base, F.size());
    else
      std::copy_n(Arr.data() + PL.Base, F.size(), Out);
    return;
  }
  if (PL.Own == PartnerList::OwnClass::AllLocal) {
    if (L.Kernels)
      L.Kernels->Gather(Out, Arr.data(), F.data(), F.size());
    else
      for (size_t K = 0; K != F.size(); ++K)
        Out[K] = Arr.at(F[K]);
    return;
  }
  auto &Pd = Pending[EP.Array];
  for (size_t K = 0; K != F.size(); ++K) {
    int64_t Fl = F[K];
    if (Arr.Owner.empty() || Arr.Owner[Fl] < 0 ||
        Arr.Owner[Fl] == static_cast<int32_t>(Me)) {
      Out[K] = Arr.at(Fl); // forwarding data I own (read comm)
      continue;
    }
    auto It = Pd.find(Fl);
    if (It == Pd.end()) {
      violation("proc " + std::to_string(Me) +
                " sends unwritten non-local element of " +
                Plan.ArrayNames[EP.Array]);
      Out[K] = Arr.at(Fl);
    } else {
      Out[K] = It->second; // transmitting a non-local write
    }
  }
}

void RankCore::unpack(const EventPlan &EP, const PartnerList &PL,
                      const PayloadView &Pay) {
  ArrayStore &Arr = *L.Stores[EP.Array];
  const std::vector<int64_t> &Exp = *PL.Flats;
  auto &Ov = Overlay[EP.Array];
  if (Pay.Count != Exp.size())
    violation("message size mismatch for event " + std::to_string(EP.Id) +
              " (" + std::to_string(Pay.Count) + " sent vs " +
              std::to_string(Exp.size()) + " expected)");
  auto Apply = [&](int64_t F, double V) {
    if (!Arr.Owner.empty() && Arr.Owner[F] == static_cast<int32_t>(Me))
      Arr.at(F) = V; // a remote write reaching its owner
    else
      Ov[F] = V;
  };
  auto Missing = [&] {
    violation("expected element missing from message (event " +
              std::to_string(EP.Id) + ")");
  };
  if (!Pay.Flats && PL.Contig && Pay.Base == PL.Base &&
      Pay.Count == Exp.size() && PL.Own == PartnerList::OwnClass::AllLocal) {
    // Zero-copy span apply: unpack is a single memcpy into the store.
    if (L.Kernels)
      L.Kernels->CopySpan(Arr.data() + PL.Base, Pay.Vals, Pay.Count);
    else
      std::copy_n(Pay.Vals, Pay.Count, Arr.data() + PL.Base);
  } else if (!Pay.Flats) {
    int64_t Cnt = static_cast<int64_t>(Pay.Count);
    for (int64_t F : Exp) {
      int64_t Idx = F - Pay.Base;
      if (Idx < 0 || Idx >= Cnt)
        Missing();
      else
        Apply(F, Pay.Vals[Idx]);
    }
  } else {
    // Merge-join of two sorted lists (expected vs delivered).
    size_t J = 0;
    for (int64_t F : Exp) {
      while (J != Pay.Count && Pay.Flats[J] < F)
        ++J;
      if (J == Pay.Count || Pay.Flats[J] != F)
        Missing();
      else
        Apply(F, Pay.Vals[J]);
    }
  }
}

//===----------------------------------------------------------------------===//
// PlanExecutor: all ranks in one process
//===----------------------------------------------------------------------===//

PlanExecutor::PlanExecutor(const SpmdProgram &ProgIn, Interpreter &IIn,
                           unsigned Threads, EngineKind Engine)
    : Prog(ProgIn), I(IIn), NP(IIn.NumProcs),
      L(ProgIn,
        PlanBuildInputs{&IIn.Arrays, &IIn.AllBindings, &IIn.ProcShape,
                        &IIn.EventInPlace},
        IIn.Config.Machine.SecPerWork) {
  if (Engine == EngineKind::Native)
    L.setupNative(&obs::TraceBuffer::global());
  for (unsigned P = 0; P != NP; ++P)
    Cores.push_back(std::make_unique<RankCore>(
        L, P, NP, I.Env[P], I.Accums[P], I.Config.CheckValidity,
        &I.Mach.clockRef(P)));
  Out.resize(NP);
  if (Threads > 1 && NP > 1)
    Pool = std::make_unique<ThreadPool>(Threads - 1);
}

PlanExecutor::~PlanExecutor() = default;

template <typename Fn> void PlanExecutor::forProcs(bool Parallel, Fn &&F) {
  if (Parallel && Pool && NP > 1) {
    Pool->parallelFor(NP, [&](size_t P) { F(static_cast<unsigned>(P)); });
    return;
  }
  for (unsigned P = 0; P != NP; ++P)
    F(P);
}

void PlanExecutor::drain(unsigned P) {
  I.Result.StmtInstances +=
      Cores[P]->drain([&](const std::string &M) { I.violation(M); });
}

void PlanExecutor::runCompute(const PlanNode &N) {
  forProcs(N.ParallelSafe, [&](unsigned P) { Cores[P]->compute(N); });
  // Replayed in processor order, matching the tree engine exactly.
  for (unsigned P = 0; P != NP; ++P)
    drain(P);
}

void PlanExecutor::runSend(const PlanNode &N) {
  const EventPlan &EP = L.plan().Events[N.EventId];
  forProcs(true, [&](unsigned P) {
    RankCore &C = *Cores[P];
    std::vector<std::pair<unsigned, Payload>> &O = Out[P];
    O.clear();
    for (const RankCore::PartnerList &PL : C.lists(EP, /*RecvSide=*/false)) {
      Payload Pay;
      Pay.Base = PL.Base;
      Pay.Span = RankCore::isSpan(PL);
      Pay.Vals.resize(PL.Flats->size());
      C.pack(EP, PL, Pay.Vals.data());
      if (!PL.Contig)
        Pay.Flats = PL.Flats;
      O.emplace_back(PL.Q, std::move(Pay));
    }
  });
  // Sequential merge in processor order: simulator clocks, message
  // counters and payload queues see exactly the tree engine's sequence.
  for (unsigned P = 0; P != NP; ++P) {
    drain(P);
    for (auto &[Q, Pay] : Out[P]) {
      if (Pay.Span)
        ++I.Result.SpanCopies;
      else
        ++I.Result.PackedCopies;
      uint64_t Bytes = Pay.count() * EP.ElemBytes;
      I.Mach.send(P, Q, static_cast<uint64_t>(EP.Id), Bytes,
                  EP.InPlace ? 0 : Bytes);
      Payloads[{P, Q, EP.Id}].push(std::move(Pay));
    }
    Out[P].clear();
  }
}

void PlanExecutor::runRecv(const PlanNode &N) {
  const EventPlan &EP = L.plan().Events[N.EventId];
  // Phase 1 (parallel): enumerate each receiver's expected element lists.
  std::vector<const std::vector<RankCore::PartnerList> *> Lists(NP);
  forProcs(true, [&](unsigned P) {
    Lists[P] = &Cores[P]->lists(EP, /*RecvSide=*/true);
  });
  // Phase 2 (sequential): match payloads, advance clocks, apply values.
  for (unsigned P = 0; P != NP; ++P) {
    RankCore &C = *Cores[P];
    for (const RankCore::PartnerList &PL : *Lists[P]) {
      auto PIt = Payloads.find({PL.Q, P, EP.Id});
      if (PIt == Payloads.end() || PIt->second.empty()) {
        C.violation("proc " + std::to_string(P) + " expects a message from " +
                    std::to_string(PL.Q) + " for event " +
                    std::to_string(EP.Id) + " that was never sent");
        continue;
      }
      Payload Pay = std::move(PIt->second.front());
      PIt->second.pop();
      if (PIt->second.empty())
        Payloads.erase(PIt);
      I.Mach.recv(PL.Q, P, static_cast<uint64_t>(EP.Id),
                  EP.InPlace ? 0 : Pay.count() * EP.ElemBytes);
      C.unpack(EP, PL,
               {Pay.Flats ? Pay.Flats->data() : nullptr, Pay.Base,
                Pay.Vals.data(), Pay.count()});
    }
    drain(P);
  }
}

void PlanExecutor::runReduce(const PlanNode &N) {
  double Combined = N.RedOp == SpmdNode::ReduceOp::Max
                        ? -std::numeric_limits<double>::infinity()
                        : 0.0;
  std::vector<double *> Slot(NP);
  if (L.kernels() && N.NativeReduceId >= 0) {
    // The kernel combine body folds in processor order with the exact
    // same floating-point operation sequence as the loop below.
    std::vector<double> Vals(NP);
    for (unsigned P = 0; P != NP; ++P) {
      double &V = I.Accums[P][N.RedName];
      Slot[P] = &V;
      Vals[P] = V;
    }
    Combined = L.kernels()->Reduce[N.NativeReduceId](Vals.data(), NP);
  } else
    for (unsigned P = 0; P != NP; ++P) {
      double &V = I.Accums[P][N.RedName];
      Slot[P] = &V;
      Combined = N.RedOp == SpmdNode::ReduceOp::Max ? std::max(Combined, V)
                                                    : Combined + V;
    }
  for (unsigned P = 0; P != NP; ++P)
    *Slot[P] = Combined;
  I.Mach.allReduce(N.RedBytes);
  I.Mach.addCompute(0, N.RedCost);
  I.Result.FinalAccums[N.RedName] = Combined;
}

void PlanExecutor::runNode(const PlanNode &N) {
  ++Dispatch[static_cast<size_t>(N.K)];
  switch (N.K) {
  case SpmdNode::Kind::Seq:
    for (const PlanNode &C : N.Children)
      runNode(C);
    break;
  case SpmdNode::Kind::TimeLoop: {
    int64_t Lo = Cores[0]->eval(N.SeqLo);
    int64_t Hi = Cores[0]->eval(N.SeqHi);
    for (int64_t V = Lo; V <= Hi; ++V) {
      for (unsigned P = 0; P != NP; ++P)
        I.Env[P][N.SeqSlot] = V;
      for (const PlanNode &C : N.Children)
        runNode(C);
    }
    break;
  }
  case SpmdNode::Kind::Compute:
    runCompute(N);
    break;
  case SpmdNode::Kind::Send:
    runSend(N);
    break;
  case SpmdNode::Kind::Recv:
    runRecv(N);
    break;
  case SpmdNode::Kind::Reduce:
    runReduce(N);
    break;
  }
}

RunResult PlanExecutor::run() {
  L.bindSemantics(I.Semantics);
  if (Prog.Root)
    runNode(L.plan().Root);
  if (!Payloads.empty())
    I.violation("unconsumed messages remain (send/recv sets are not dual)");
  I.Result.ElapsedSeconds = I.Mach.elapsed();
  I.Result.Messages = I.Mach.totalMessages();
  I.Result.Bytes = I.Mach.totalBytes();
  if (obs::compiledIn()) {
    // Flushed once per run — the dispatch loop itself stays probe-free.
    static const char *KindNames[6] = {"seq",  "time_loop", "compute",
                                       "send", "recv",      "reduce"};
    obs::MetricsRegistry &R = obs::MetricsRegistry::global();
    for (size_t K = 0; K != 6; ++K)
      if (Dispatch[K])
        R.counter(std::string("spmd.bytecode.dispatch.") + KindNames[K])
            ->inc(Dispatch[K]);
  }
  return I.Result;
}
