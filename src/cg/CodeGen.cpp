//===- cg/CodeGen.cpp - Loop-nest generation from integer sets -----------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "cg/CodeGen.h"

#include "pset/OmegaTest.h"

#include <utility>

using namespace dhpf;
using namespace dhpf::cg;

namespace {

/// Per-conjunct bound/guard material for one loop level.
struct ConjLevel {
  std::vector<Expr> LBs, UBs;       // bound expressions for the level var
  std::vector<GuardAtom> RowAtoms;  // direct membership atoms (include var)
  std::vector<GuardAtom> ModAtoms;  // stride atoms when stride-loop unused
  bool HasStride = false;
  int64_t Step = 1;
  Expr Residue; // value the level var is congruent to (mod Step)
};

/// Per-statement generation state.
struct StmtState {
  int LeafId;
  std::string Label;
  std::vector<Relation> Lv; // Lv[d]: projection onto dims 0..d
  Guard ParamGuard;         // rank-0 conditions (possibly pruned)
  bool ParamGuardTrue = true;
  std::vector<Guard> Pending; // guards accumulated for the leaf
  /// When the statement's set is a union of conjuncts, per-level guards
  /// could mix constraints of different conjuncts across levels; a single
  /// full-membership DNF guard at the leaf is used instead.
  bool UseFullGuard = false;
  Guard FullGuard;
};

/// Builds the linear expression of row \p R over conjunct \p C, excluding
/// the column \p SkipCol (pass ~0u for none). Existential columns other
/// than \p SkipCol must have zero coefficients.
Expr rowExpr(const Conjunct &C, const Row &R, unsigned SkipCol,
             const std::vector<unsigned> &ParamSlots,
             const std::vector<unsigned> &DimSlots, VarTable &Vars) {
  Expr E = Expr::constant(R.constant());
  for (unsigned P = 0; P != C.numParams(); ++P) {
    unsigned Col = C.paramCol(P);
    if (Col == SkipCol || R.Coef[Col] == 0)
      continue;
    E = Expr::add(E, Expr::mul(Expr::var(ParamSlots[P], Vars.name(ParamSlots[P])),
                               R.Coef[Col]));
  }
  assert(C.numIn() == 0 && "code generation expects sets");
  for (unsigned O = 0; O != C.numOut(); ++O) {
    unsigned Col = C.outCol(O);
    if (Col == SkipCol || R.Coef[Col] == 0)
      continue;
    E = Expr::add(E, Expr::mul(Expr::var(DimSlots[O], Vars.name(DimSlots[O])),
                               R.Coef[Col]));
  }
  for (unsigned X = 0; X != C.numExists(); ++X) {
    unsigned Col = C.existCol(X);
    (void)Col;
    assert((Col == SkipCol || R.Coef[Col] == 0) &&
           "unexpected existential in a code-generation row");
  }
  return E;
}

/// Analyzes conjunct \p C for loop level \p D.
ConjLevel analyzeConj(const Conjunct &C, unsigned D,
                      const std::vector<unsigned> &ParamSlots,
                      const std::vector<unsigned> &DimSlots, VarTable &Vars) {
  ConjLevel Out;
  unsigned DCol = C.outCol(D);
  for (const Row &R : C.rows()) {
    int64_t CD = R.Coef[DCol];
    // Identify a divisibility witness in this row, if any.
    int WitCol = -1;
    for (unsigned X = 0; X != C.numExists(); ++X)
      if (R.Coef[C.existCol(X)] != 0) {
        WitCol = static_cast<int>(C.existCol(X));
        break;
      }
    if (CD == 0) {
      // Not a bound at this level, but still part of the conjunct's
      // membership test (used when this level's set is a union): the row
      // only involves outer dimensions, so it is evaluable here.
      GuardAtom A;
      if (WitCol >= 0) {
        assert(R.IsEq && "witnessed inequality after normalization");
        A.E = rowExpr(C, R, WitCol, ParamSlots, DimSlots, Vars);
        A.K = GuardAtom::Kind::ModZero;
        A.Mod = R.Coef[WitCol] < 0 ? -R.Coef[WitCol] : R.Coef[WitCol];
      } else {
        A.E = rowExpr(C, R, ~0u, ParamSlots, DimSlots, Vars);
        A.K = R.IsEq ? GuardAtom::Kind::Zero : GuardAtom::Kind::NonNeg;
      }
      Out.RowAtoms.push_back(std::move(A));
      continue;
    }
    if (WitCol >= 0) {
      assert(R.IsEq && "witnessed inequality after normalization");
      int64_t S = R.Coef[WitCol] < 0 ? -R.Coef[WitCol] : R.Coef[WitCol];
      // Build the row expression excluding both the level variable and the
      // witness column (rowExpr cannot skip two columns), directly.
      Expr RestNoWit = Expr::constant(R.constant());
      for (unsigned P = 0; P != C.numParams(); ++P) {
        unsigned Col = C.paramCol(P);
        if (R.Coef[Col] != 0)
          RestNoWit = Expr::add(
              RestNoWit, Expr::mul(Expr::var(ParamSlots[P],
                                             Vars.name(ParamSlots[P])),
                                   R.Coef[Col]));
      }
      for (unsigned O = 0; O != C.numOut(); ++O) {
        unsigned Col = C.outCol(O);
        if (Col != DCol && R.Coef[Col] != 0)
          RestNoWit = Expr::add(
              RestNoWit,
              Expr::mul(Expr::var(DimSlots[O], Vars.name(DimSlots[O])),
                        R.Coef[Col]));
      }
      // Constraint: CD*x + RestNoWit ≡ 0 (mod S).
      Expr VarD = Expr::var(DimSlots[D], Vars.name(DimSlots[D]));
      GuardAtom MA;
      MA.E = Expr::add(Expr::mul(VarD, CD), RestNoWit);
      MA.K = GuardAtom::Kind::ModZero;
      MA.Mod = S;
      Out.RowAtoms.push_back(MA);
      if ((CD == 1 || CD == -1) && !Out.HasStride) {
        Out.HasStride = true;
        Out.Step = S;
        // x ≡ -CD * RestNoWit (mod S).
        Out.Residue = Expr::mul(RestNoWit, -CD);
      } else {
        Out.ModAtoms.push_back(MA);
      }
      continue;
    }
    Expr Rest = rowExpr(C, R, /*SkipCol=*/DCol, ParamSlots, DimSlots, Vars);
    // Membership atom including the level variable.
    {
      GuardAtom A;
      Expr VarD = Expr::var(DimSlots[D], Vars.name(DimSlots[D]));
      A.E = Expr::add(Expr::mul(VarD, CD), Rest);
      A.K = R.IsEq ? GuardAtom::Kind::Zero : GuardAtom::Kind::NonNeg;
      Out.RowAtoms.push_back(std::move(A));
    }
    if (R.IsEq) {
      // CD*x + Rest = 0  =>  x = -Rest/CD; with |CD| > 1 the ceil/floor
      // pair leaves an empty range unless the division is exact.
      int64_t A = CD < 0 ? -CD : CD;
      Expr Num = CD < 0 ? Rest : Expr::mul(Rest, -1);
      Out.LBs.push_back(Expr::ceilDiv(Num, A));
      Out.UBs.push_back(Expr::floorDiv(Num, A));
      continue;
    }
    if (CD > 0) {
      // CD*x + Rest >= 0  =>  x >= ceil(-Rest / CD).
      Out.LBs.push_back(Expr::ceilDiv(Expr::mul(Rest, -1), CD));
    } else {
      // -|CD|*x + Rest >= 0  =>  x <= floor(Rest / |CD|).
      Out.UBs.push_back(Expr::floorDiv(Rest, -CD));
    }
  }
  return Out;
}

/// Builds a full-membership guard for \p Norm: a DNF with one branch per
/// conjunct containing an atom for every row (evaluable at the innermost
/// level where all loop variables are bound).
Guard fullMembershipGuard(const Relation &Norm,
                          const std::vector<unsigned> &DimSlots,
                          VarTable &Vars) {
  Guard G;
  std::vector<unsigned> ParamSlots;
  for (const std::string &P : Norm.space().params())
    ParamSlots.push_back(Vars.slot(P));
  for (const Conjunct &C : Norm.conjuncts()) {
    std::vector<GuardAtom> Atoms;
    for (const Row &R : C.rows()) {
      int WitCol = -1;
      for (unsigned X = 0; X != C.numExists(); ++X)
        if (R.Coef[C.existCol(X)] != 0) {
          WitCol = static_cast<int>(C.existCol(X));
          break;
        }
      GuardAtom A;
      if (WitCol >= 0) {
        assert(R.IsEq && "witnessed inequality after normalization");
        int64_t S = R.Coef[WitCol] < 0 ? -R.Coef[WitCol] : R.Coef[WitCol];
        A.E = rowExpr(C, R, WitCol, ParamSlots, DimSlots, Vars);
        A.K = GuardAtom::Kind::ModZero;
        A.Mod = S;
      } else {
        A.E = rowExpr(C, R, ~0u, ParamSlots, DimSlots, Vars);
        A.K = R.IsEq ? GuardAtom::Kind::Zero : GuardAtom::Kind::NonNeg;
      }
      Atoms.push_back(std::move(A));
    }
    G.AnyOf.push_back(std::move(Atoms));
  }
  return G;
}

/// Converts a rank-0 relation into a guard (DNF over its conjuncts).
Guard rank0Guard(const Relation &R, VarTable &Vars) {
  Guard G;
  for (const Conjunct &C : R.conjuncts()) {
    std::vector<unsigned> ParamSlots;
    for (const std::string &P : R.space().params())
      ParamSlots.push_back(Vars.slot(P));
    std::vector<GuardAtom> Atoms;
    bool Unrepresentable = false;
    for (const Row &Rw : C.rows()) {
      int WitCol = -1;
      for (unsigned X = 0; X != C.numExists(); ++X)
        if (Rw.Coef[C.existCol(X)] != 0) {
          WitCol = static_cast<int>(C.existCol(X));
          break;
        }
      if (WitCol >= 0) {
        assert(Rw.IsEq);
        int64_t S =
            Rw.Coef[WitCol] < 0 ? -Rw.Coef[WitCol] : Rw.Coef[WitCol];
        GuardAtom A;
        A.E = rowExpr(C, Rw, WitCol, ParamSlots, {}, Vars);
        A.K = GuardAtom::Kind::ModZero;
        A.Mod = S;
        Atoms.push_back(std::move(A));
        continue;
      }
      GuardAtom A;
      A.E = rowExpr(C, Rw, ~0u, ParamSlots, {}, Vars);
      A.K = Rw.IsEq ? GuardAtom::Kind::Zero : GuardAtom::Kind::NonNeg;
      Atoms.push_back(std::move(A));
    }
    if (!Unrepresentable)
      G.AnyOf.push_back(std::move(Atoms));
  }
  return G;
}

} // namespace

AstPtr CodeGen::codegen(const std::vector<StmtInstance> &Stmts,
                        const std::vector<std::string> &LoopVars,
                        const Relation *Known) {
  unsigned Rank = LoopVars.size();
  std::vector<unsigned> DimSlots;
  for (const std::string &V : LoopVars)
    DimSlots.push_back(Vars.slot(V));

  // Prepare per-statement projections.
  std::vector<StmtState> States;
  for (const StmtInstance &S : Stmts) {
    assert(S.Iters.isSet() && S.Iters.numOut() == Rank &&
           "statement set rank must match the loop variables");
    if (S.Iters.isEmpty())
      continue;
    StmtState St;
    St.LeafId = S.LeafId;
    St.Label = S.Label;
    St.Lv.resize(Rank);
    Relation Norm = S.Iters.normalizeExists().simplify().coalesce();
    if (std::as_const(Norm).conjuncts().size() > 1) {
      // A true union: bounds per level come from the projections below
      // (a hull), and exact membership is enforced by one DNF guard at the
      // leaf. Per-level guards would be unsound: they could mix constraints
      // of different conjuncts across levels.
      St.UseFullGuard = true;
      St.FullGuard = fullMembershipGuard(Norm, DimSlots, Vars);
    }
    if (Rank > 0) {
      St.Lv[Rank - 1] = Norm;
      for (unsigned D = Rank - 1; D > 0; --D)
        St.Lv[D - 1] =
            St.Lv[D].projectOutDims(D, 1).normalizeExists().simplify();
    }
    Relation ParamCond = Rank == 0
                             ? Norm
                             : St.Lv[0].projectOutDims(0, 1)
                                   .normalizeExists()
                                   .simplify();
    // Prune: if Known guarantees the condition, no guard is needed.
    bool Trivial = false;
    if (!std::as_const(ParamCond).conjuncts().empty()) {
      bool AllUniverse = true;
      for (const Conjunct &C : std::as_const(ParamCond).conjuncts())
        if (!C.isUniverse())
          AllUniverse = false;
      Trivial = AllUniverse;
    }
    if (!Trivial && Known && Known->isSubsetOf(ParamCond))
      Trivial = true;
    if (!Trivial && !St.UseFullGuard) {
      St.ParamGuard = rank0Guard(ParamCond, Vars);
      St.ParamGuardTrue = false;
    }
    States.push_back(std::move(St));
  }
  if (States.empty())
    return AstNode::block();

  // Recursive generation over levels.
  std::function<AstPtr(unsigned)> Gen = [&](unsigned D) -> AstPtr {
    if (D == Rank) {
      AstPtr Blk = AstNode::block();
      for (StmtState &St : States) {
        AstPtr Leaf = AstNode::leaf(St.LeafId, St.Label);
        std::vector<Guard> Gs;
        if (!St.ParamGuardTrue && States.size() > 1)
          Gs.push_back(St.ParamGuard);
        if (St.UseFullGuard)
          Gs.push_back(St.FullGuard);
        for (Guard &G : St.Pending)
          Gs.push_back(G);
        if (Gs.empty()) {
          Blk->Children.push_back(std::move(Leaf));
        } else {
          AstPtr If = AstNode::guarded(std::move(Gs));
          If->Children.push_back(std::move(Leaf));
          Blk->Children.push_back(std::move(If));
        }
      }
      return Blk;
    }

    // Analyze every statement at this level.
    struct PerStmt {
      std::vector<ConjLevel> Conjs;
    };
    std::vector<PerStmt> Info(States.size());
    std::vector<Expr> LoopLBs, LoopUBs;
    for (unsigned SI = 0; SI != States.size(); ++SI) {
      const Relation &L = States[SI].Lv[D];
      std::vector<unsigned> ParamSlots;
      for (const std::string &P : L.space().params())
        ParamSlots.push_back(Vars.slot(P));
      std::vector<Expr> StmtLBs, StmtUBs;
      for (const Conjunct &C : L.conjuncts()) {
        ConjLevel CL = analyzeConj(C, D, ParamSlots, DimSlots, Vars);
        assert(!CL.LBs.empty() && !CL.UBs.empty() &&
               "code generation requires bounded iteration sets");
        StmtLBs.push_back(Expr::max(CL.LBs));
        StmtUBs.push_back(Expr::min(CL.UBs));
        Info[SI].Conjs.push_back(std::move(CL));
      }
      LoopLBs.push_back(Expr::min(StmtLBs));
      LoopUBs.push_back(Expr::max(StmtUBs));
    }
    Expr LB = Expr::min(LoopLBs);
    Expr UB = Expr::max(LoopUBs);

    // Stride loop instead of a mod-guard: only in the simple
    // single-statement single-conjunct case (this is the case the
    // virtual-processor loops of Section 4's cyclic distributions hit).
    int64_t Step = 1;
    if (States.size() == 1 && Info[0].Conjs.size() == 1 &&
        Info[0].Conjs[0].HasStride) {
      const ConjLevel &CL = Info[0].Conjs[0];
      Step = CL.Step;
      // Align LB upward to the residue class: LB' = LB + ((res - LB) mod s).
      LB = Expr::add(LB, Expr::mod(Expr::sub(CL.Residue, LB), Step));
    }

    AstPtr Loop =
        AstNode::loop(LoopVars[D], DimSlots[D], LB, UB, Expr::constant(Step));

    // Build per-statement guards for this level (statements with a full
    // membership guard need none here).
    for (unsigned SI = 0; SI != States.size(); ++SI) {
      if (States[SI].UseFullGuard)
        continue;
      Guard G;
      bool NeedGuard = false;
      const PerStmt &PS = Info[SI];
      if (PS.Conjs.size() == 1) {
        const ConjLevel &CL = PS.Conjs[0];
        std::vector<GuardAtom> Atoms = CL.ModAtoms;
        if (CL.HasStride && !(Step > 1 && States.size() == 1)) {
          // Stride not folded into the loop: keep it as a mod guard.
          GuardAtom A;
          A.E = Expr::sub(Expr::var(DimSlots[D], Vars.name(DimSlots[D])),
                          CL.Residue);
          A.K = GuardAtom::Kind::ModZero;
          A.Mod = CL.Step;
          Atoms.push_back(std::move(A));
        }
        // Shared loop bounds may exceed this statement's own: add its bound
        // atoms unless its bounds are exactly the loop bounds.
        bool SameBounds =
            LoopLBs[SI].identicalTo(LB) && LoopUBs[SI].identicalTo(UB);
        if (!SameBounds)
          for (const GuardAtom &A : CL.RowAtoms)
            if (A.K != GuardAtom::Kind::ModZero)
              Atoms.push_back(A);
        if (!Atoms.empty()) {
          G.AnyOf.push_back(std::move(Atoms));
          NeedGuard = true;
        }
      } else {
        for (const ConjLevel &CL : PS.Conjs)
          G.AnyOf.push_back(CL.RowAtoms);
        NeedGuard = true;
      }
      if (NeedGuard)
        States[SI].Pending.push_back(std::move(G));
    }

    AstPtr Body = Gen(D + 1);
    Loop->Children.push_back(std::move(Body));

    return Loop;
  };

  AstPtr Tree = Gen(0);

  // Single-statement parameter guard wraps the whole nest.
  if (States.size() == 1 && !States[0].ParamGuardTrue) {
    AstPtr If = AstNode::guarded({States[0].ParamGuard});
    If->Children.push_back(std::move(Tree));
    Tree = std::move(If);
  }
  return Tree;
}

AstPtr CodeGen::codegenSet(const Relation &S,
                           const std::vector<std::string> &LoopVars,
                           int LeafId, const std::string &Label,
                           const Relation *Known) {
  StmtInstance SI;
  SI.LeafId = LeafId;
  SI.Label = Label;
  SI.Iters = S;
  return codegen({SI}, LoopVars, Known);
}

AstPtr CodeGen::codegenSetPerConjunct(const Relation &S,
                                      const std::vector<std::string> &LoopVars,
                                      int LeafId, const std::string &Label,
                                      const Relation *Known) {
  Relation Norm = S.normalizeExists().simplify().coalesce();
  if (std::as_const(Norm).conjuncts().size() <= 1)
    return codegenSet(Norm, LoopVars, LeafId, Label, Known);
  AstPtr Blk = AstNode::block();
  for (const Conjunct &C : std::as_const(Norm).conjuncts()) {
    Relation One(Norm.space());
    One.addConjunct(C);
    Blk->Children.push_back(codegenSet(One, LoopVars, LeafId, Label, Known));
  }
  return Blk;
}
