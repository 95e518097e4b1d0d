//===- tests/placement_test.cpp - Placement cost-model property tests -----===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The placement subsystem's central property: because the TrafficMatrix
/// estimator replays execSend's comm-set enumeration exactly, its
/// predicted message/byte totals must equal the measured RunResult
/// counters — the stated tolerance is zero — for every Figure 7 app at
/// P in {2, 4, 8}, on the registry's shape and on every candidate shape
/// the search enumerates. On top of that sits the acceptance claim: the
/// shape `dhpfc place` picks costs no more measured bytes than the
/// hand-picked registry shape for at least two of the apps.
///
//===----------------------------------------------------------------------===//

#include "apps/Registry.h"
#include "core/Compiler.h"
#include "placement/Placement.h"
#include "spmd/Interp.h"

#include "gtest/gtest.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace dhpf;

namespace {

struct CompiledApp {
  apps::AppInstance App;
  const apps::RegistryEntry *Reg;
  std::unique_ptr<core::CompileOutput> Compiled;
};

std::vector<CompiledApp> &compiledApps() {
  static std::vector<CompiledApp> Apps = [] {
    std::vector<CompiledApp> Out;
    for (const apps::RegistryEntry &E : apps::appRegistry()) {
      CompiledApp CA;
      CA.App = E.MakeCanonical();
      CA.Reg = &E;
      CA.Compiled = core::compileProgram(*CA.App.Prog);
      Out.push_back(std::move(CA));
    }
    return Out;
  }();
  return Apps;
}

/// Measured counters for one shape binding via the in-process engine.
spmd::RunResult measure(const CompiledApp &CA,
                        const std::vector<int64_t> &Shape) {
  spmd::RunConfig RC;
  RC.ProcExtents[CA.App.ProcArrayName] = Shape;
  spmd::Interpreter I(CA.Compiled->Program, RC);
  CA.App.Setup(I);
  return I.run();
}

placement::TrafficMatrix estimate(const CompiledApp &CA,
                                  const std::vector<int64_t> &Shape) {
  spmd::RunConfig RC;
  RC.ProcExtents[CA.App.ProcArrayName] = Shape;
  RC.CheckValidity = false;
  return placement::estimateTraffic(CA.Compiled->Program, RC);
}

//===----------------------------------------------------------------------===//
// Estimated == measured, exactly, on every app / P / candidate shape
//===----------------------------------------------------------------------===//

TEST(PlacementEstimate, MatchesMeasuredCountersOnRegistryShapes) {
  for (const CompiledApp &CA : compiledApps()) {
    for (int64_t P : {2, 4, 8}) {
      std::vector<int64_t> Shape = CA.Reg->ProcShape(P);
      if (Shape.empty())
        continue; // app cannot lay P on its grid
      placement::TrafficMatrix TM = estimate(CA, Shape);
      spmd::RunResult RR = measure(CA, Shape);
      ASSERT_TRUE(RR.Valid) << CA.Reg->Name;
      EXPECT_EQ(TM.totalMessages(), RR.Messages)
          << CA.Reg->Name << " P=" << P;
      EXPECT_EQ(TM.totalBytes(), RR.Bytes) << CA.Reg->Name << " P=" << P;
    }
  }
}

TEST(PlacementEstimate, MatchesMeasuredOnEverySearchCandidate) {
  for (const CompiledApp &CA : compiledApps()) {
    std::vector<placement::Candidate> Cands = placement::searchShapes(
        CA.Compiled->Program, 8, {}, placement::MachineCost());
    ASSERT_FALSE(Cands.empty()) << CA.Reg->Name;
    for (const placement::Candidate &C : Cands) {
      spmd::RunResult RR = measure(CA, C.Shape);
      ASSERT_TRUE(RR.Valid) << CA.Reg->Name;
      EXPECT_EQ(C.Traffic.totalMessages(), RR.Messages) << CA.Reg->Name;
      EXPECT_EQ(C.Traffic.totalBytes(), RR.Bytes) << CA.Reg->Name;
    }
  }
}

//===----------------------------------------------------------------------===//
// Search behavior
//===----------------------------------------------------------------------===//

TEST(PlacementSearch, DeterministicAndSortedByCost) {
  for (const CompiledApp &CA : compiledApps()) {
    std::vector<placement::Candidate> A = placement::searchShapes(
        CA.Compiled->Program, 8, {}, placement::MachineCost());
    std::vector<placement::Candidate> B = placement::searchShapes(
        CA.Compiled->Program, 8, {}, placement::MachineCost());
    ASSERT_EQ(A.size(), B.size());
    for (size_t I = 0; I != A.size(); ++I) {
      EXPECT_EQ(A[I].Shape, B[I].Shape);
      if (I) {
        EXPECT_LE(A[I - 1].Cost, A[I].Cost);
      }
    }
  }
}

TEST(PlacementSearch, ImpossibleCountsYieldNoShape) {
  // 7 is prime: apps with a fixed x symbolic grid dimension of extent 2
  // cannot lay it out; 1-D symbolic grids can (7x trivially divides).
  for (const CompiledApp &CA : compiledApps()) {
    std::vector<int64_t> Best =
        placement::bestShape(CA.Compiled->Program, 7, {});
    std::vector<placement::Candidate> Cands = placement::searchShapes(
        CA.Compiled->Program, 7, {}, placement::MachineCost());
    EXPECT_EQ(Best.empty(), Cands.empty()) << CA.Reg->Name;
    if (!Best.empty()) {
      int64_t Total = 1;
      for (int64_t E : Best)
        Total *= E;
      EXPECT_EQ(Total, 7) << CA.Reg->Name;
    }
  }
}

//===----------------------------------------------------------------------===//
// Acceptance: placed bytes <= registry bytes for at least two apps
//===----------------------------------------------------------------------===//

TEST(PlacementAcceptance, PlacedShapeBytesNoWorseThanRegistryForTwoApps) {
  unsigned NoWorse = 0;
  for (const CompiledApp &CA : compiledApps()) {
    std::vector<int64_t> RegShape = CA.Reg->ProcShape(8);
    std::vector<int64_t> Placed =
        placement::bestShape(CA.Compiled->Program, 8, {});
    if (RegShape.empty() || Placed.empty())
      continue;
    uint64_t RegBytes = measure(CA, RegShape).Bytes;
    uint64_t PlacedBytes = measure(CA, Placed).Bytes;
    NoWorse += PlacedBytes <= RegBytes;
  }
  EXPECT_GE(NoWorse, 2u);
}

} // namespace
