//===- tests/pset_property_test.cpp - Randomized set-algebra properties --===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// Property-based testing of the Presburger engine: random sets (boxes,
// slopes, strides, unions) are pushed through the algebra and every result
// is compared pointwise against a brute-force oracle over a bounding box.
// Each parameterized instance uses a different deterministic seed, so the
// suite sweeps a few hundred distinct random instances.
//
//===----------------------------------------------------------------------===//

#include "pset/Relation.h"

#include <gtest/gtest.h>

#include <random>
#include <set>

using namespace dhpf;

namespace {

using Point = std::vector<int64_t>;

constexpr int64_t BoxLo = -6, BoxHi = 9;

/// Deterministic random generator of small conjuncts/sets over K dims.
class RandomSets {
public:
  RandomSets(unsigned Seed, unsigned K) : Rng(Seed), K(K) {}

  /// A random set: 1-3 conjuncts, each 1-4 constraints, possibly a stride.
  Relation set() {
    std::vector<std::string> Dims;
    for (unsigned I = 0; I != K; ++I)
      Dims.push_back("d" + std::to_string(I));
    Relation R(Space::set(Dims));
    unsigned NumConj = 1 + Rng() % 3;
    for (unsigned C = 0; C != NumConj; ++C) {
      Conjunct &Cj = R.addConjunct();
      // Bounding box so everything stays within the oracle range.
      for (unsigned D = 0; D != K; ++D) {
        int64_t Lo = rint(BoxLo, BoxHi), Hi = rint(Lo, BoxHi);
        Cj.addConstraint({{Cj.outCol(D), 1}}, -Lo, false);
        Cj.addConstraint({{Cj.outCol(D), -1}}, Hi, false);
      }
      unsigned Extra = Rng() % 3;
      for (unsigned X = 0; X != Extra; ++X) {
        // A random slope constraint a*d0 + b*d1 + c (>=|=) 0.
        std::vector<std::pair<unsigned, int64_t>> Terms;
        for (unsigned D = 0; D != K; ++D) {
          int64_t Coef = rint(-2, 2);
          if (Coef != 0)
            Terms.push_back({Cj.outCol(D), Coef});
        }
        if (Terms.empty())
          continue;
        Cj.addConstraint(Terms, rint(-4, 4), Rng() % 4 == 0);
      }
      if (Rng() % 3 == 0) {
        // A stride: exists e : d_k = s*e + r.
        unsigned D = Rng() % K;
        int64_t S = 2 + Rng() % 3, Rm = Rng() % S;
        unsigned E = Cj.addExistVar();
        Cj.addConstraint({{Cj.outCol(D), 1}, {E, -S}}, -Rm, true);
      }
    }
    return R;
  }

  int64_t rint(int64_t Lo, int64_t Hi) {
    return Lo + static_cast<int64_t>(Rng() % (Hi - Lo + 1));
  }

private:
  std::mt19937 Rng;
  unsigned K;
};

std::set<Point> pointsOf(const Relation &S) {
  unsigned K = S.numOut();
  std::set<Point> Pts;
  Point P(K, BoxLo - 1);
  for (;;) {
    if (S.contains(P))
      Pts.insert(P);
    unsigned D = 0;
    while (D < K && ++P[D] > BoxHi + 1) {
      P[D] = BoxLo - 1;
      ++D;
    }
    if (D == K)
      break;
  }
  return Pts;
}

std::set<Point> setUnion(const std::set<Point> &A, const std::set<Point> &B) {
  std::set<Point> R = A;
  R.insert(B.begin(), B.end());
  return R;
}
std::set<Point> setInter(const std::set<Point> &A, const std::set<Point> &B) {
  std::set<Point> R;
  for (const Point &P : A)
    if (B.count(P))
      R.insert(P);
  return R;
}
std::set<Point> setMinus(const std::set<Point> &A, const std::set<Point> &B) {
  std::set<Point> R;
  for (const Point &P : A)
    if (!B.count(P))
      R.insert(P);
  return R;
}

class PsetAlgebra : public ::testing::TestWithParam<unsigned> {};

TEST_P(PsetAlgebra, BooleanOpsMatchOracle1D) {
  RandomSets Gen(GetParam() * 7919 + 1, 1);
  Relation A = Gen.set(), B = Gen.set();
  auto PA = pointsOf(A), PB = pointsOf(B);
  EXPECT_EQ(pointsOf(A.unionWith(B)), setUnion(PA, PB));
  EXPECT_EQ(pointsOf(A.intersect(B)), setInter(PA, PB));
  EXPECT_EQ(pointsOf(A.subtract(B)), setMinus(PA, PB));
  EXPECT_EQ(pointsOf(B.subtract(A)), setMinus(PB, PA));
}

TEST_P(PsetAlgebra, BooleanOpsMatchOracle2D) {
  RandomSets Gen(GetParam() * 104729 + 13, 2);
  Relation A = Gen.set(), B = Gen.set();
  auto PA = pointsOf(A), PB = pointsOf(B);
  EXPECT_EQ(pointsOf(A.unionWith(B)), setUnion(PA, PB));
  EXPECT_EQ(pointsOf(A.intersect(B)), setInter(PA, PB));
  EXPECT_EQ(pointsOf(A.subtract(B)), setMinus(PA, PB));
}

TEST_P(PsetAlgebra, SimplifyAndCoalescePreserveSemantics) {
  RandomSets Gen(GetParam() * 31337 + 5, 2);
  Relation A = Gen.set();
  auto PA = pointsOf(A);
  EXPECT_EQ(pointsOf(A.simplify()), PA);
  EXPECT_EQ(pointsOf(A.coalesce()), PA);
  EXPECT_EQ(pointsOf(A.normalizeExists()), PA);
}

TEST_P(PsetAlgebra, SubtractIdentities) {
  RandomSets Gen(GetParam() * 999331 + 7, 1);
  Relation A = Gen.set(), B = Gen.set();
  // (A - B) and (A ∩ B) partition A.
  Relation Diff = A.subtract(B), Inter = A.intersect(B);
  EXPECT_TRUE(Diff.unionWith(Inter).isEqualTo(A));
  EXPECT_TRUE(Diff.intersect(Inter).isEmpty());
  // A - A is empty; A - empty is A.
  EXPECT_TRUE(A.subtract(A).isEmpty());
  EXPECT_TRUE(A.subtract(Relation::empty(A.space())).isEqualTo(A));
}

TEST_P(PsetAlgebra, SubsetReflexivityAndHull) {
  RandomSets Gen(GetParam() * 271 + 3, 2);
  Relation A = Gen.set();
  EXPECT_TRUE(A.isSubsetOf(A));
  Relation H = A.simpleHull();
  EXPECT_TRUE(A.isSubsetOf(H)) << A.toString();
  // The hull of a convex-proven set equals the set.
  if (A.isConvexProven()) {
    EXPECT_TRUE(H.isSubsetOf(A));
  }
}

TEST_P(PsetAlgebra, ProjectionSoundAndExact) {
  RandomSets Gen(GetParam() * 52361 + 11, 2);
  Relation A = Gen.set();
  Relation P0 = A.projectOntoDim(0);
  auto PA = pointsOf(A);
  std::set<Point> Expect;
  for (const Point &P : PA)
    Expect.insert({P[0]});
  // Oracle over dimension 0 only.
  std::set<Point> Got;
  for (int64_t V = BoxLo - 1; V <= BoxHi + 1; ++V)
    if (P0.contains({V}))
      Got.insert({V});
  EXPECT_EQ(Got, Expect);
}

TEST_P(PsetAlgebra, EmptinessAgreesWithOracle) {
  RandomSets Gen(GetParam() * 7 + 77, 2);
  Relation A = Gen.set().intersect(Gen.set());
  EXPECT_EQ(A.isEmpty(), pointsOf(A).empty());
}

TEST_P(PsetAlgebra, RoundTripThroughPrinter) {
  RandomSets Gen(GetParam() * 131 + 17, 2);
  Relation A = Gen.set();
  Relation B = parseRelation(A.toString());
  EXPECT_TRUE(A.isEqualTo(B)) << A.toString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PsetAlgebra, ::testing::Range(0u, 25u));

//===----------------------------------------------------------------------===
// Relation-algebra properties on mappings.
//===----------------------------------------------------------------------===

class MapAlgebra : public ::testing::TestWithParam<unsigned> {};

/// A random affine-ish mapping [i] -> [j] with bounded domain.
Relation randomMap(unsigned Seed) {
  std::mt19937 Rng(Seed);
  auto R = [&](int64_t Lo, int64_t Hi) {
    return Lo + static_cast<int64_t>(Rng() % (Hi - Lo + 1));
  };
  int64_t A = R(-2, 2), B = R(-3, 3), Lo = R(BoxLo, 0), Hi = R(0, BoxHi);
  Relation M(Space::map({"i"}, {"j"}));
  Conjunct &C = M.addConjunct();
  // j = A*i + B, Lo <= i <= Hi.
  C.addConstraint({{C.outCol(0), 1}, {C.inCol(0), -A}}, -B, true);
  C.addConstraint({{C.inCol(0), 1}}, -Lo, false);
  C.addConstraint({{C.inCol(0), -1}}, Hi, false);
  return M;
}

TEST_P(MapAlgebra, ComposeMatchesOracle) {
  Relation F = randomMap(GetParam() * 37 + 1);
  Relation G = randomMap(GetParam() * 41 + 2);
  Relation FG = F.composeWith(G);
  for (int64_t I = BoxLo; I <= BoxHi; ++I)
    for (int64_t K = 3 * BoxLo; K <= 3 * BoxHi; ++K) {
      bool Expect = false;
      for (int64_t J = 3 * BoxLo; J <= 3 * BoxHi && !Expect; ++J)
        Expect = F.contains({J}, {}, {I}) && G.contains({K}, {}, {J});
      EXPECT_EQ(FG.contains({K}, {}, {I}), Expect)
          << "i=" << I << " k=" << K;
    }
}

TEST_P(MapAlgebra, DomainRangeInverseConsistency) {
  Relation F = randomMap(GetParam() * 53 + 5);
  EXPECT_TRUE(F.domain().isEqualTo(F.inverse().range()));
  EXPECT_TRUE(F.range().isEqualTo(F.inverse().domain()));
  EXPECT_TRUE(F.inverse().inverse().isEqualTo(F));
}

TEST_P(MapAlgebra, ApplyEqualsRangeOfRestrict) {
  Relation F = randomMap(GetParam() * 61 + 9);
  Relation S = parseRelation("{ [i] : -2 <= i <= 4 }");
  EXPECT_TRUE(F.apply(S).isEqualTo(F.restrictDomain(S).range()));
}

TEST_P(MapAlgebra, AsSetPreservesPairs) {
  Relation F = randomMap(GetParam() * 71 + 3);
  Relation S = F.asSet();
  for (int64_t I = BoxLo; I <= BoxHi; ++I)
    for (int64_t J = 3 * BoxLo; J <= 3 * BoxHi; ++J)
      EXPECT_EQ(F.contains({J}, {}, {I}), S.contains({I, J}));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapAlgebra, ::testing::Range(0u, 20u));

} // namespace
