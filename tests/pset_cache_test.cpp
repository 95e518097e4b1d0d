//===- tests/pset_cache_test.cpp - Cache/fast-path differential tests ----===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// The performance layer (fingerprinted operation cache, bounding-box
// cheap rejects, fingerprint short-circuits) must be invisible except for
// speed. Two families of evidence:
//
//   1. Differential set algebra: random relations pushed through every
//      cached operation with the cache+fast paths enabled and disabled;
//      results must be semantically equal (verdicts computed uncached).
//   2. Compiler determinism: JACOBI / TOMCATV / GAUSS compiled
//      sequentially and with a multi-threaded analysis pool must print
//      byte-identical SPMD programs, and cached compiles must still pass
//      the apps' numeric checks.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "core/Compiler.h"
#include "pset/Fingerprint.h"
#include "pset/OpCache.h"
#include "pset/Relation.h"

#include <gtest/gtest.h>

#include <random>

using namespace dhpf;
using namespace dhpf::apps;
using namespace dhpf::core;

namespace {

/// RAII guard: forces the global cache on or off, restores on exit, and
/// clears stored entries on both edges so tests are order-independent.
class CacheSwitch {
public:
  explicit CacheSwitch(bool On) : Saved(pset::OpCache::global().enabled()) {
    pset::OpCache::global().clear();
    pset::OpCache::global().setEnabled(On);
  }
  ~CacheSwitch() {
    pset::OpCache::global().clear();
    pset::OpCache::global().setEnabled(Saved);
  }

private:
  bool Saved;
};

/// Deterministic random set generator (same shape as pset_property_test:
/// unions of small boxes with slope constraints and strides).
class RandomSets {
public:
  RandomSets(unsigned Seed, unsigned K) : Rng(Seed), K(K) {}

  Relation set() {
    std::vector<std::string> Dims;
    for (unsigned I = 0; I != K; ++I)
      Dims.push_back("d" + std::to_string(I));
    Relation R(Space::set(Dims));
    unsigned NumConj = 1 + Rng() % 3;
    for (unsigned C = 0; C != NumConj; ++C) {
      Conjunct &Cj = R.addConjunct();
      for (unsigned D = 0; D != K; ++D) {
        int64_t Lo = rint(-6, 9), Hi = rint(Lo, 9);
        Cj.addConstraint({{Cj.outCol(D), 1}}, -Lo, false);
        Cj.addConstraint({{Cj.outCol(D), -1}}, Hi, false);
      }
      unsigned Extra = Rng() % 3;
      for (unsigned X = 0; X != Extra; ++X) {
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

/// Semantic equality judged with the performance layer off, so the oracle
/// never depends on the machinery under test.
bool semanticallyEqual(const Relation &A, const Relation &B) {
  CacheSwitch Off(false);
  return A.isEqualTo(B);
}

//===----------------------------------------------------------------------===
// Fingerprint properties.
//===----------------------------------------------------------------------===

TEST(Fingerprint, RowOrderInsensitive) {
  Relation A = parseRelation("{ [i,j] : 0 <= i <= 9 and 1 <= j <= i }");
  Relation B(A.space());
  // Same constraints, inserted in a different order.
  Conjunct &C = B.addConjunct();
  C.addConstraint({{C.outCol(1), -1}, {C.outCol(0), 1}}, 0, false); // j <= i
  C.addConstraint({{C.outCol(1), 1}}, -1, false);                   // j >= 1
  C.addConstraint({{C.outCol(0), -1}}, 9, false);                   // i <= 9
  C.addConstraint({{C.outCol(0), 1}}, 0, false);                    // i >= 0
  EXPECT_EQ(pset::fingerprint(A), pset::fingerprint(B));
}

TEST(Fingerprint, ScaledConstraintsCollide) {
  // 2i <= 10 normalizes to i <= 5; the fingerprints must agree.
  Relation A = parseRelation("{ [i] : 0 <= i and 2*i <= 10 }");
  Relation B = parseRelation("{ [i] : 0 <= i and i <= 5 }");
  EXPECT_EQ(pset::fingerprint(A), pset::fingerprint(B));
}

TEST(Fingerprint, DistinguishesConstants) {
  Relation A = parseRelation("{ [i] : 0 <= i <= 5 }");
  Relation B = parseRelation("{ [i] : 0 <= i <= 6 }");
  EXPECT_NE(pset::fingerprint(A), pset::fingerprint(B));
}

TEST(Fingerprint, DistinguishesSpaceNames) {
  // Identical constraint matrices over differently-named spaces must not
  // collide: cached results carry their names into code generation.
  Relation A = parseRelation("{ [i] : 0 <= i <= 5 }");
  Relation B = parseRelation("{ [j] : 0 <= j <= 5 }");
  EXPECT_NE(pset::fingerprint(A), pset::fingerprint(B));
}

TEST(Fingerprint, BBoxProvesEmptiness) {
  Relation A = parseRelation("{ [i] : 4 <= i and i <= 2 }");
  ASSERT_EQ(A.conjuncts().size(), 1u);
  EXPECT_TRUE(pset::bboxOf(A.conjuncts()[0]).ProvenEmpty);
  Relation B = parseRelation("{ [i] : 2*i = 5 }");
  ASSERT_EQ(B.conjuncts().size(), 1u);
  EXPECT_TRUE(pset::bboxOf(B.conjuncts()[0]).ProvenEmpty);
}

TEST(Fingerprint, BBoxDisjointness) {
  Relation A = parseRelation("{ [i] : 0 <= i <= 3 }");
  Relation B = parseRelation("{ [i] : 5 <= i <= 9 }");
  Relation C = parseRelation("{ [i] : 2 <= i <= 7 }");
  pset::BBox BA = pset::bboxOf(A.conjuncts()[0]);
  pset::BBox BB = pset::bboxOf(B.conjuncts()[0]);
  pset::BBox BC = pset::bboxOf(C.conjuncts()[0]);
  EXPECT_TRUE(pset::bboxDisjoint(BA, BB));
  EXPECT_FALSE(pset::bboxDisjoint(BA, BC));
  EXPECT_FALSE(pset::bboxDisjoint(BB, BC));
}

//===----------------------------------------------------------------------===
// Differential algebra: cached vs. uncached.
//===----------------------------------------------------------------------===

class CacheDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(CacheDifferential, SetOpsMatchUncached2D) {
  RandomSets GenOn(GetParam() * 7919 + 101, 2);
  RandomSets GenOff(GetParam() * 7919 + 101, 2);

  Relation InterOn, DiffOn, SimpOn, CoalOn;
  bool EmptyOn, SubsetOn, EqualOn;
  {
    CacheSwitch On(true);
    Relation A = GenOn.set(), B = GenOn.set();
    InterOn = A.intersect(B);
    DiffOn = A.subtract(B);
    SimpOn = A.simplify();
    CoalOn = A.coalesce();
    EmptyOn = InterOn.isEmpty();
    SubsetOn = A.isSubsetOf(B);
    EqualOn = A.isEqualTo(B);
    // Replaying the same operations must hit the cache and return
    // structurally identical relations.
    EXPECT_EQ(A.intersect(B).toString(), InterOn.toString());
    EXPECT_EQ(A.subtract(B).toString(), DiffOn.toString());
  }

  CacheSwitch Off(false);
  Relation A = GenOff.set(), B = GenOff.set();
  EXPECT_TRUE(A.intersect(B).isEqualTo(InterOn));
  EXPECT_TRUE(A.subtract(B).isEqualTo(DiffOn));
  EXPECT_TRUE(A.simplify().isEqualTo(SimpOn));
  EXPECT_TRUE(A.coalesce().isEqualTo(CoalOn));
  EXPECT_EQ(A.intersect(B).isEmpty(), EmptyOn);
  EXPECT_EQ(A.isSubsetOf(B), SubsetOn);
  EXPECT_EQ(A.isEqualTo(B), EqualOn);
}

TEST_P(CacheDifferential, ComposeMatchesUncached) {
  auto MakeMap = [](unsigned Seed) {
    std::mt19937 Rng(Seed);
    auto R = [&](int64_t Lo, int64_t Hi) {
      return Lo + static_cast<int64_t>(Rng() % (Hi - Lo + 1));
    };
    int64_t A = R(-2, 2), B = R(-3, 3), Lo = R(-6, 0), Hi = R(0, 9);
    Relation M(Space::map({"i"}, {"j"}));
    Conjunct &C = M.addConjunct();
    C.addConstraint({{C.outCol(0), 1}, {C.inCol(0), -A}}, -B, true);
    C.addConstraint({{C.inCol(0), 1}}, -Lo, false);
    C.addConstraint({{C.inCol(0), -1}}, Hi, false);
    return M;
  };
  Relation F = MakeMap(GetParam() * 37 + 1);
  Relation G = MakeMap(GetParam() * 41 + 2);
  Relation On, Off;
  {
    CacheSwitch S(true);
    On = F.composeWith(G);
  }
  {
    CacheSwitch S(false);
    Off = F.composeWith(G);
  }
  EXPECT_TRUE(semanticallyEqual(On, Off));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheDifferential, ::testing::Range(0u, 25u));

//===----------------------------------------------------------------------===
// Cache mechanics: counters, LRU eviction, the enable switch.
//===----------------------------------------------------------------------===

TEST(OpCacheMechanics, HitsAndMisses) {
  CacheSwitch On(true); // cleared on entry: counts below are exact
  pset::OpCache &C = pset::OpCache::global();
  Relation A = parseRelation("{ [i,j] : 0 <= i <= 20 and 0 <= j <= i }");
  Relation B = parseRelation("{ [i,j] : 5 <= i <= 30 and 2 <= j <= 25 }");
  pset::CacheStats S0 = C.stats();
  Relation R1 = A.intersect(B);
  pset::CacheStats D1 = C.stats() - S0;
  // Cold cache: the first intersect can hit nothing, and records exactly
  // one top-level miss (its Compute body uses only fast paths, never a
  // second cached op on identical fingerprints).
  EXPECT_EQ(D1.Hits, 0u);
  EXPECT_EQ(D1.Misses, 1u);
  // Replay: one lookup, one hit, zero misses — the hit short-circuits
  // every internal operation.
  pset::CacheStats S1 = C.stats();
  Relation R2 = A.intersect(B);
  pset::CacheStats D2 = C.stats() - S1;
  EXPECT_EQ(D2.Hits, 1u);
  EXPECT_EQ(D2.Misses, 0u);
  EXPECT_TRUE(R1.isEqualTo(R2));
}

TEST(OpCacheMechanics, ExactCountersDirectApi) {
  // A private instance: no global state, every count pinned exactly.
  pset::OpCache C(1024);
  Relation R = parseRelation("{ [i] : 0 <= i <= 3 }");
  Relation Out;
  EXPECT_FALSE(C.lookup(pset::Op::Simplify, 1, 2, Out)); // miss 1
  C.insert(pset::Op::Simplify, 1, 2, R);
  EXPECT_TRUE(C.lookup(pset::Op::Simplify, 1, 2, Out)); // hit 1
  EXPECT_TRUE(C.lookup(pset::Op::Simplify, 1, 2, Out)); // hit 2
  EXPECT_FALSE(C.lookup(pset::Op::Coalesce, 1, 2, Out)); // op in key: miss 2
  EXPECT_FALSE(C.lookup(pset::Op::Simplify, 1, 3, Out)); // rhs in key: miss 3
  bool BV = false;
  EXPECT_FALSE(C.lookupBool(pset::Op::IsEmpty, 7, BV)); // miss 4
  C.insertBool(pset::Op::IsEmpty, 7, true);
  EXPECT_TRUE(C.lookupBool(pset::Op::IsEmpty, 7, BV)); // hit 3
  EXPECT_TRUE(BV);
  pset::CacheStats S = C.stats();
  EXPECT_EQ(S.Hits, 3u);
  EXPECT_EQ(S.Misses, 4u);
  EXPECT_EQ(S.Evictions, 0u);
  // Per-shard traffic must sum exactly to the global counters, and the
  // two resident entries must be accounted for.
  uint64_t H = 0, M = 0, E = 0, N = 0;
  for (const pset::OpCache::ShardStats &PS : C.perShardStats()) {
    H += PS.Hits;
    M += PS.Misses;
    E += PS.Evictions;
    N += PS.Entries;
  }
  EXPECT_EQ(H, 3u);
  EXPECT_EQ(M, 4u);
  EXPECT_EQ(E, 0u);
  EXPECT_EQ(N, 2u);
}

TEST(OpCacheMechanics, ClearKeepsCounters) {
  pset::OpCache C(1024);
  Relation R = parseRelation("{ [i] : 0 <= i <= 3 }");
  Relation Out;
  C.insert(pset::Op::Simplify, 1, 2, R);
  EXPECT_TRUE(C.lookup(pset::Op::Simplify, 1, 2, Out));
  C.clear();
  // Entries gone, counters cumulative — exactly one post-clear miss.
  EXPECT_FALSE(C.lookup(pset::Op::Simplify, 1, 2, Out));
  pset::CacheStats S = C.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 1u);
  uint64_t N = 0;
  for (const pset::OpCache::ShardStats &PS : C.perShardStats())
    N += PS.Entries;
  EXPECT_EQ(N, 0u);
}

TEST(OpCacheMechanics, DisabledCacheRecordsNothing) {
  CacheSwitch Off(false);
  pset::OpCache &C = pset::OpCache::global();
  Relation A = parseRelation("{ [i] : 0 <= i <= 20 }");
  pset::CacheStats S0 = C.stats();
  (void)A.simplify();
  (void)A.simplify();
  pset::CacheStats D = C.stats() - S0;
  EXPECT_EQ(D.Hits, 0u);
  EXPECT_EQ(D.Misses, 0u);
}

TEST(OpCacheMechanics, LRUEvicts) {
  pset::OpCache Small(16); // 16 entries over 16 shards: 1 per shard
  Relation R = parseRelation("{ [i] : 0 <= i <= 1 }");
  for (uint64_t K = 0; K != 64; ++K)
    Small.insert(pset::Op::Simplify, K * 0x9e3779b97f4a7c15ULL, 0, R);
  EXPECT_GT(Small.stats().Evictions, 0u);
}

//===----------------------------------------------------------------------===
// Compiler determinism: sequential vs. parallel analysis.
//===----------------------------------------------------------------------===

struct CompileResult {
  std::string Printed;
  unsigned Events;
  unsigned Splits;
};

CompileResult compileApp(const AppInstance &App, unsigned Threads) {
  CompilerOptions Opts;
  Opts.AnalysisThreads = Threads;
  auto Out = compileProgram(*App.Prog, Opts);
  return {Out->Program.print(), Out->NumCommEvents, Out->NumSplitNests};
}

class ParallelDeterminism : public ::testing::TestWithParam<const char *> {
protected:
  static AppInstance makeApp(const std::string &Name) {
    if (Name == "jacobi")
      return makeJacobi(12, 2);
    if (Name == "tomcatv")
      return makeTomcatv(10, 2);
    return makeGauss(10);
  }
};

TEST_P(ParallelDeterminism, PoolMatchesSequentialCached) {
  CacheSwitch On(true);
  AppInstance App = makeApp(GetParam());
  CompileResult Seq = compileApp(App, 1);
  for (unsigned Threads : {2u, 4u, 7u}) {
    CompileResult Par = compileApp(App, Threads);
    EXPECT_EQ(Par.Printed, Seq.Printed) << "threads=" << Threads;
    EXPECT_EQ(Par.Events, Seq.Events);
    EXPECT_EQ(Par.Splits, Seq.Splits);
  }
}

TEST_P(ParallelDeterminism, PoolMatchesSequentialUncached) {
  CacheSwitch Off(false);
  AppInstance App = makeApp(GetParam());
  CompileResult Seq = compileApp(App, 1);
  CompileResult Par = compileApp(App, 4);
  EXPECT_EQ(Par.Printed, Seq.Printed);
}

INSTANTIATE_TEST_SUITE_P(Apps, ParallelDeterminism,
                         ::testing::Values("jacobi", "tomcatv", "gauss"));

/// Compute nests the analysis passes fan out over (SeqLoop bodies in
/// place, as the pipeline collects them).
unsigned countNests(const std::vector<hpf::Phase> &Phases) {
  unsigned N = 0;
  for (const hpf::Phase &Ph : Phases)
    N += Ph.K == hpf::Phase::Kind::Nest      ? 1
         : Ph.K == hpf::Phase::Kind::SeqLoop ? countNests(Ph.Body)
                                             : 0;
  return N;
}

/// The analysis pool is sized by the work: asking for more workers than
/// there are nests gets one worker per nest, and ThreadsUsed says so.
TEST(ParallelPool, NeverMoreWorkersThanNests) {
  AppInstance App = makeTomcatv(10, 2);
  unsigned K = 0;
  for (const hpf::Procedure &Proc : App.Prog->procedures())
    K += countNests(Proc.Phases);
  ASSERT_GT(K, 1u);
  ASSERT_LT(K + 6, 16u);
  CompilerOptions Opts;
  Opts.AnalysisThreads = K + 6;
  EXPECT_EQ(compileProgram(*App.Prog, Opts)->ThreadsUsed, K);
  Opts.AnalysisThreads = 2;
  EXPECT_EQ(compileProgram(*App.Prog, Opts)->ThreadsUsed, 2u);
}

/// The cached+parallel compile must still produce numerically correct
/// programs (the fast paths may restructure sets, so compare semantics by
/// running the program, not by printing it).
TEST(CacheNumerics, CachedParallelJacobiValidates) {
  CacheSwitch On(true);
  AppInstance App = makeJacobi(12, 2);
  CompilerOptions Opts;
  Opts.AnalysisThreads = 4;
  auto Out = compileProgram(*App.Prog, Opts);
  spmd::RunConfig RC;
  RC.ProcExtents = {{App.ProcArrayName, {2, 2}}};
  spmd::Interpreter I(Out->Program, RC);
  App.Setup(I);
  spmd::RunResult RR = I.run();
  ASSERT_TRUE(RR.Valid);
  std::string Err;
  EXPECT_TRUE(App.Check(I, Err)) << Err;
}

} // namespace
