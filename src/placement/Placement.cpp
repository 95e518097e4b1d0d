//===- placement/Placement.cpp - Comm-set-driven processor placement ------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "placement/Placement.h"

#include "spmd/ExecPlan.h"
#include "spmd/Layout.h"

#include <algorithm>
#include <cmath>

using namespace dhpf;
using namespace dhpf::placement;
using namespace dhpf::spmd;

uint64_t TrafficMatrix::totalMessages() const {
  uint64_t T = 0;
  for (uint64_t M : Msgs)
    T += M;
  if (NP > 1)
    T += ReduceInstances * NP;
  return T;
}

uint64_t TrafficMatrix::totalBytes() const {
  uint64_t T = 0;
  for (uint64_t B : Bytes)
    T += B;
  return T;
}

uint64_t TrafficMatrix::maxRankBytes() const {
  uint64_t Max = 0;
  for (unsigned P = 0; P != NP; ++P) {
    uint64_t B = 0;
    for (unsigned Q = 0; Q != NP; ++Q)
      B += bytes(P, Q) + bytes(Q, P);
    Max = std::max(Max, B);
  }
  return Max;
}

uint64_t TrafficMatrix::maxRankMessages() const {
  uint64_t Max = 0;
  for (unsigned P = 0; P != NP; ++P) {
    uint64_t M = 0;
    for (unsigned Q = 0; Q != NP; ++Q)
      M += msgs(P, Q) + msgs(Q, P);
    Max = std::max(Max, M);
  }
  return Max;
}

namespace {

/// Walks one rank's lowered plan, counting the messages its Send nodes
/// post: the per-partner lists execSend posts, with the data movement
/// stripped out.
void countSends(const PlanNode &N, RankCore &Core, const ExecPlan &Plan,
                std::vector<int64_t> &Env, unsigned P, TrafficMatrix &TM) {
  switch (N.K) {
  case SpmdNode::Kind::Seq:
    for (const PlanNode &C : N.Children)
      countSends(C, Core, Plan, Env, P, TM);
    break;
  case SpmdNode::Kind::TimeLoop: {
    int64_t Lo = Core.eval(N.SeqLo), Hi = Core.eval(N.SeqHi);
    for (int64_t V = Lo; V <= Hi; ++V) {
      Env[N.SeqSlot] = V;
      for (const PlanNode &C : N.Children)
        countSends(C, Core, Plan, Env, P, TM);
    }
    break;
  }
  case SpmdNode::Kind::Compute:
  case SpmdNode::Kind::Recv:
    // Compute never changes comm-loop bindings; receives are the dual
    // of the sends already counted (the runtime counts sender-side).
    break;
  case SpmdNode::Kind::Send: {
    const EventPlan &EP = Plan.Events[N.EventId];
    for (const RankCore::PartnerList &PL : Core.lists(EP, false)) {
      TM.msgs(P, PL.Q) += 1;
      TM.bytes(P, PL.Q) += PL.Flats->size() * EP.ElemBytes;
    }
    break;
  }
  case SpmdNode::Kind::Reduce:
    // One logical collective per instance; count it once (rank 0's
    // walk), not once per rank.
    if (P == 0)
      ++TM.ReduceInstances;
    break;
  }
}

} // namespace

TrafficMatrix placement::estimateTraffic(const SpmdProgram &SP,
                                         const RunConfig &RC) {
  ProgramLayout L = resolveLayout(SP, RC);
  TrafficMatrix TM;
  TM.NP = L.NumProcs;
  TM.Msgs.assign(size_t(TM.NP) * TM.NP, 0);
  TM.Bytes.assign(size_t(TM.NP) * TM.NP, 0);
  if (!SP.Root)
    return TM;
  // The plan a rank runs, lowered from the rank runtime's inputs; array
  // values are never touched, only ownership and flat indexing. The
  // in-place flags only decide what a send charges the clock, never which
  // elements travel, so the Section 3.3 runtime contiguity check (a set
  // operation per undecided event) is skipped.
  std::map<std::string, ArrayStore> Arrays = buildArrayStores(SP, RC, L);
  std::vector<char> InPlace(SP.Events.size(), 0);
  LoadedPlan Plan(SP,
                  PlanBuildInputs{&Arrays, &L.AllBindings, &L.ProcShape,
                                  &InPlace},
                  RC.Machine.SecPerWork);
  for (unsigned P = 0; P != L.NumProcs; ++P) {
    std::vector<int64_t> Env = initialEnv(SP, L, P);
    AccumMap Accums;
    double Clock = 0;
    RankCore Core(Plan, P, L.NumProcs, Env, Accums, false, &Clock);
    countSends(Plan.plan().Root, Core, Plan.plan(), Env, P, TM);
  }
  return TM;
}

double placement::priceTraffic(const TrafficMatrix &TM,
                               const MachineCost &C) {
  double Worst = 0;
  for (unsigned P = 0; P != TM.NP; ++P) {
    uint64_t M = 0, B = 0;
    for (unsigned Q = 0; Q != TM.NP; ++Q) {
      M += TM.msgs(P, Q) + TM.msgs(Q, P);
      B += TM.bytes(P, Q) + TM.bytes(Q, P);
    }
    Worst = std::max(Worst, C.Alpha * double(M) +
                                C.BetaPerByte * double(B));
  }
  double Reduce = 0;
  if (TM.NP > 1) {
    double Steps = 2.0 * std::ceil(std::log2(double(TM.NP)));
    Reduce = double(TM.ReduceInstances) * Steps * C.Alpha;
  }
  return Worst + Reduce;
}

namespace {

/// Recursively assigns the symbolic dimensions every ordered factorization
/// of \p Left.
void enumerate(const std::vector<const hpf::VPDimInfo *> &Dims, size_t At,
               int64_t Left, std::vector<int64_t> &Cur,
               std::vector<std::vector<int64_t>> &Out) {
  if (At == Dims.size()) {
    if (Left == 1)
      Out.push_back(Cur);
    return;
  }
  if (!Dims[At]->ProcSym.empty()) {
    for (int64_t F = 1; F <= Left; ++F) {
      if (Left % F != 0)
        continue;
      Cur.push_back(F);
      enumerate(Dims, At + 1, Left / F, Cur, Out);
      Cur.pop_back();
    }
  } else {
    int64_t F = Dims[At]->ProcFixed;
    if (F <= 0 || Left % F != 0)
      return;
    Cur.push_back(F);
    enumerate(Dims, At + 1, Left / F, Cur, Out);
    Cur.pop_back();
  }
}

} // namespace

std::vector<Candidate>
placement::searchShapes(const SpmdProgram &SP, int64_t NumProcs,
                        const std::map<std::string, int64_t> &Params,
                        const MachineCost &C) {
  std::vector<const hpf::VPDimInfo *> Dims;
  for (const hpf::VPDimInfo &D : SP.ProcDims)
    Dims.push_back(&D);
  std::vector<std::vector<int64_t>> Shapes;
  std::vector<int64_t> Cur;
  if (NumProcs >= 1 && !Dims.empty())
    enumerate(Dims, 0, NumProcs, Cur, Shapes);

  std::vector<Candidate> Out;
  for (const std::vector<int64_t> &Shape : Shapes) {
    RunConfig RC;
    RC.Params = Params;
    RC.ProcExtents[SP.ProcName] = Shape;
    RC.CheckValidity = false;
    Candidate Cand;
    Cand.Shape = Shape;
    Cand.Traffic = estimateTraffic(SP, RC);
    Cand.Cost = priceTraffic(Cand.Traffic, C);
    Out.push_back(std::move(Cand));
  }
  std::sort(Out.begin(), Out.end(),
            [](const Candidate &A, const Candidate &B) {
              if (A.Cost != B.Cost)
                return A.Cost < B.Cost;
              uint64_t AB = A.Traffic.totalBytes(),
                       BB = B.Traffic.totalBytes();
              if (AB != BB)
                return AB < BB;
              return A.Shape < B.Shape;
            });
  return Out;
}

std::vector<int64_t>
placement::bestShape(const SpmdProgram &SP, int64_t NumProcs,
                     const std::map<std::string, int64_t> &Params) {
  std::vector<Candidate> Cands =
      searchShapes(SP, NumProcs, Params, MachineCost());
  if (Cands.empty())
    return {};
  return Cands.front().Shape;
}
