//===- tests/coll_test.cpp - Reduction collective unit tests --------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The collective library's two contracts, checked over the loopback mesh:
///
///  1. Bit-identicality: every algorithm returns exactly the bits of the
///     canonical identity-seeded rank-order combine, for sums chosen so
///     that any other combine order produces different bits.
///  2. Schedule shape: the physical per-rank frame counts match the
///     advertised schedules — naive bottlenecks rank 0 at 2(P-1) while
///     recursive doubling cuts the maximum to 2·ceil(lg P), the asymptotic
///     win the benchmarks gate on.
///
//===----------------------------------------------------------------------===//

#include "coll/Collective.h"
#include "net/Loopback.h"

#include "gtest/gtest.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

using namespace dhpf;
using namespace dhpf::coll;

namespace {

/// The canonical combine every engine implements: identity seeded, then
/// contributions folded in rank order 0..P-1.
double refCombine(const std::vector<double> &C, Op O) {
  double V = O == Op::Sum ? 0.0 : -std::numeric_limits<double>::infinity();
  for (double X : C)
    V = O == Op::Sum ? V + X : std::max(V, X);
  return V;
}

/// Contributions of wildly mixed magnitude and sign: summing these in any
/// order other than 0..P-1 yields different low-order bits, so an
/// algorithm that combined along its data path would be caught.
std::vector<double> spikyContributions(unsigned NP) {
  std::vector<double> C(NP);
  for (unsigned R = 0; R != NP; ++R)
    C[R] = std::sin(1.7 * R + 0.3) *
           std::pow(10.0, static_cast<int>(R % 7) - 3);
  return C;
}

struct RankOutcome {
  std::vector<double> Results; ///< one per collective instance
  CollStats St;
  std::string Err;
};

/// All NP ranks run \p Instances successive allreduces of \p C under
/// algorithm \p A over a loopback mesh, one fresh tag per instance.
std::vector<RankOutcome> runAllreduce(Algo A, unsigned NP,
                                      const std::vector<double> &C, Op O,
                                      unsigned Instances = 1) {
  net::LoopbackMesh Mesh(NP);
  std::vector<RankOutcome> Out(NP);
  std::vector<std::thread> Ts;
  for (unsigned R = 0; R != NP; ++R)
    Ts.emplace_back([&, R] {
      try {
        auto T = Mesh.transport(R);
        std::unique_ptr<Collective> Coll = makeCollective(A, NP);
        for (unsigned I = 0; I != Instances; ++I)
          Out[R].Results.push_back(
              Coll->allreduce(*T, C[R], O, 1000 + I, Out[R].St));
      } catch (const std::exception &E) {
        Out[R].Err = E.what();
      }
    });
  for (auto &T : Ts)
    T.join();
  return Out;
}

void expectBitEqual(double A, double B, const std::string &What) {
  EXPECT_EQ(std::memcmp(&A, &B, sizeof(double)), 0)
      << What << ": " << A << " vs " << B;
}

const Algo AllAlgos[] = {Algo::Naive, Algo::Rdbl};

//===----------------------------------------------------------------------===//
// Algorithm selection
//===----------------------------------------------------------------------===//

TEST(CollAlgo, ParseRoundTripsEveryName) {
  for (Algo A : {Algo::Naive, Algo::Rdbl, Algo::Auto})
    EXPECT_EQ(parseAlgo(algoName(A)), A);
}

TEST(CollAlgo, ParseRejectsTypos) {
  for (const char *Bad : {"", "Naive", "ring", "tree", "rd", "butterfly"})
    EXPECT_THROW(parseAlgo(Bad), net::TransportError) << Bad;
}

TEST(CollAlgo, EnvDefaultsToAuto) {
  const char *Old = getenv("DHPF_COLL");
  std::string Saved = Old ? Old : "";
  unsetenv("DHPF_COLL");
  EXPECT_EQ(algoFromEnv(), Algo::Auto);
  setenv("DHPF_COLL", "rdbl", 1);
  EXPECT_EQ(algoFromEnv(), Algo::Rdbl);
  if (Old)
    setenv("DHPF_COLL", Saved.c_str(), 1);
  else
    unsetenv("DHPF_COLL");
}

TEST(CollAlgo, AutoResolvesByMeshSize) {
  EXPECT_EQ(resolveAlgo(Algo::Auto, 1), Algo::Naive);
  EXPECT_EQ(resolveAlgo(Algo::Auto, 2), Algo::Naive);
  EXPECT_EQ(resolveAlgo(Algo::Auto, 4), Algo::Rdbl);
  EXPECT_EQ(resolveAlgo(Algo::Auto, 8), Algo::Rdbl);
  EXPECT_EQ(resolveAlgo(Algo::Naive, 8), Algo::Naive);
}

//===----------------------------------------------------------------------===//
// Bit-identical results on every algorithm, every mesh size
//===----------------------------------------------------------------------===//

TEST(CollBits, AllAlgorithmsMatchRankOrderCombine) {
  for (unsigned NP : {1u, 2u, 3u, 4u, 5u, 8u}) {
    std::vector<double> C = spikyContributions(NP);
    for (Op O : {Op::Sum, Op::Max}) {
      double Ref = refCombine(C, O);
      for (Algo A : AllAlgos) {
        std::vector<RankOutcome> Out = runAllreduce(A, NP, C, O);
        for (unsigned R = 0; R != NP; ++R) {
          std::string What = std::string(algoName(A)) + " P=" +
                             std::to_string(NP) + " rank " +
                             std::to_string(R);
          EXPECT_EQ(Out[R].Err, "") << What;
          ASSERT_EQ(Out[R].Results.size(), 1u) << What;
          expectBitEqual(Out[R].Results[0], Ref, What);
        }
      }
    }
  }
}

TEST(CollBits, SuccessiveInstancesStayOrderedAtNonPowerOfTwo) {
  // Several back-to-back collectives on a non-power-of-two mesh: the
  // extra-rank folding in rdbl must not let one instance's frames bleed
  // into the next (fresh tag per instance).
  const unsigned NP = 6, Instances = 5;
  std::vector<double> C = spikyContributions(NP);
  double Ref = refCombine(C, Op::Sum);
  for (Algo A : AllAlgos) {
    std::vector<RankOutcome> Out =
        runAllreduce(A, NP, C, Op::Sum, Instances);
    for (unsigned R = 0; R != NP; ++R) {
      EXPECT_EQ(Out[R].Err, "") << algoName(A);
      ASSERT_EQ(Out[R].Results.size(), Instances);
      for (double V : Out[R].Results)
        expectBitEqual(V, Ref, std::string(algoName(A)) + " rank " +
                                   std::to_string(R));
    }
  }
}

//===----------------------------------------------------------------------===//
// Physical schedules: the counters prove the asymptotic claim
//===----------------------------------------------------------------------===//

uint64_t maxRankMessages(const std::vector<RankOutcome> &Out) {
  uint64_t Max = 0;
  for (const RankOutcome &O : Out)
    Max = std::max(Max, O.St.Messages);
  return Max;
}

TEST(CollSchedule, MaxPerRankFramesMatchTheAdvertisedCounts) {
  const unsigned NP = 8; // 2(P-1) = 14, 2·lg P = 6
  std::vector<double> C = spikyContributions(NP);
  struct {
    Algo A;
    uint64_t Expect;
  } Cases[] = {{Algo::Naive, 14}, {Algo::Rdbl, 6}};
  for (const auto &[A, Expect] : Cases) {
    std::vector<RankOutcome> Out = runAllreduce(A, NP, C, Op::Sum);
    for (const RankOutcome &O : Out)
      EXPECT_EQ(O.Err, "") << algoName(A);
    EXPECT_EQ(maxRankMessages(Out), Expect) << algoName(A);
  }
}

TEST(CollSchedule, NaiveBottlenecksRankZero) {
  const unsigned NP = 8;
  std::vector<double> C = spikyContributions(NP);
  std::vector<RankOutcome> Naive = runAllreduce(Algo::Naive, NP, C, Op::Sum);
  EXPECT_EQ(Naive[0].St.Messages, 14u);
  for (unsigned R = 1; R != NP; ++R)
    EXPECT_EQ(Naive[R].St.Messages, 2u) << "rank " << R;
}

TEST(CollSchedule, LogSchedulesBeatNaiveBottleneckAtP8) {
  // The acceptance claim: recursive doubling measurably cuts the
  // bottleneck rank's frame count against naive gather/broadcast at P>=8.
  const unsigned NP = 8;
  std::vector<double> C = spikyContributions(NP);
  uint64_t NaiveMax = maxRankMessages(runAllreduce(Algo::Naive, NP, C, Op::Sum));
  uint64_t RdblMax = maxRankMessages(runAllreduce(Algo::Rdbl, NP, C, Op::Sum));
  EXPECT_LT(RdblMax, NaiveMax);
}

} // namespace
