//===- tests/obs_diff_test.cpp - Tracing must not perturb results --------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// The observability layer's cardinal rule: probes observe, they never
// steer. Compiling and running every Figure 7 application with the global
// trace buffer active must produce bit-identical results to the untraced
// run — the same printed SPMD program, the same final array bits, the
// same message/byte/statement counters and simulated time — under the
// tree engine and under the bytecode engine at 1 and 4 execution threads.
//
// In a DHPF_OBS=OFF build start() is inert and both runs are untraced;
// the diff then documents that an *attempt* to enable tracing changes
// nothing, which is exactly the zero-overhead contract.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "core/Compiler.h"
#include "obs/Trace.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

using namespace dhpf;
using namespace dhpf::apps;
using namespace dhpf::core;
using namespace dhpf::spmd;

namespace {

/// Everything a compile+run can observe, down to the bit.
struct Observed {
  std::string SpmdText; ///< printed SPMD program from the compile
  std::map<std::string, std::vector<double>> ArrayValues;
  double ElapsedSeconds = 0;
  uint64_t Messages = 0;
  uint64_t Bytes = 0;
  uint64_t StmtInstances = 0;
  bool Valid = true;
  AccumMap FinalAccums;
};

/// One full compile + run of a freshly made app instance, with the global
/// trace buffer either recording or idle for the whole pipeline.
Observed runOnce(AppInstance (*Make)(), const std::vector<int64_t> &Shape,
                 EngineKind Engine, unsigned Threads, bool Tracing) {
  obs::TraceBuffer &GB = obs::TraceBuffer::global();
  GB.clear();
  if (Tracing)
    GB.start();
  else
    GB.stop();

  AppInstance App = Make();
  auto Compiled = compileProgram(*App.Prog);
  EXPECT_TRUE(Compiled) << App.Name;

  Observed O;
  if (!Compiled)
    return O;
  O.SpmdText = Compiled->Program.print();

  RunConfig RC;
  RC.ProcExtents = {{App.ProcArrayName, Shape}};
  RC.Engine = Engine;
  RC.ExecThreads = Threads;
  Interpreter I(Compiled->Program, RC);
  App.Setup(I);
  RunResult RR = I.run();

  for (const auto &[Name, Decl] : App.Prog->arrays()) {
    (void)Decl;
    O.ArrayValues[Name] = I.array(Name).values();
  }
  O.ElapsedSeconds = RR.ElapsedSeconds;
  O.Messages = RR.Messages;
  O.Bytes = RR.Bytes;
  O.StmtInstances = RR.StmtInstances;
  O.Valid = RR.Valid;
  O.FinalAccums = RR.FinalAccums;

  if (Tracing && obs::compiledIn()) {
    EXPECT_GT(GB.eventCount(), 0u)
        << App.Name << ": traced run recorded no events";
  }
  GB.stop();
  GB.clear();
  return O;
}

void expectBitIdentical(const Observed &Off, const Observed &On,
                        const std::string &Config) {
  EXPECT_EQ(Off.SpmdText, On.SpmdText) << Config << ": SPMD text differs";
  ASSERT_EQ(Off.ArrayValues.size(), On.ArrayValues.size()) << Config;
  for (const auto &[Name, Vals] : Off.ArrayValues) {
    auto It = On.ArrayValues.find(Name);
    ASSERT_NE(It, On.ArrayValues.end()) << Name << " (" << Config << ")";
    ASSERT_EQ(Vals.size(), It->second.size()) << Name << " (" << Config
                                              << ")";
    EXPECT_EQ(0, std::memcmp(Vals.data(), It->second.data(),
                             Vals.size() * sizeof(double)))
        << "array " << Name << " not bit-identical (" << Config << ")";
  }
  EXPECT_EQ(0, std::memcmp(&Off.ElapsedSeconds, &On.ElapsedSeconds,
                           sizeof(double)))
      << Config;
  EXPECT_EQ(Off.Messages, On.Messages) << Config;
  EXPECT_EQ(Off.Bytes, On.Bytes) << Config;
  EXPECT_EQ(Off.StmtInstances, On.StmtInstances) << Config;
  EXPECT_EQ(Off.Valid, On.Valid) << Config;
  ASSERT_EQ(Off.FinalAccums.size(), On.FinalAccums.size()) << Config;
  for (const auto &[Name, V] : Off.FinalAccums) {
    auto It = On.FinalAccums.find(Name);
    ASSERT_NE(It, On.FinalAccums.end()) << Name << " (" << Config << ")";
    EXPECT_EQ(0, std::memcmp(&V, &It->second, sizeof(double)))
        << "accumulator " << Name << " (" << Config << ")";
  }
}

void diffApp(AppInstance (*Make)(), const std::vector<int64_t> &Shape) {
  struct EngineConfig {
    EngineKind Engine;
    unsigned Threads;
    const char *Label;
  };
  const EngineConfig Configs[] = {
      {EngineKind::Tree, 1, "tree"},
      {EngineKind::Bytecode, 1, "bytecode/1-thread"},
      {EngineKind::Bytecode, 4, "bytecode/4-thread"},
  };
  for (const EngineConfig &C : Configs) {
    Observed Off = runOnce(Make, Shape, C.Engine, C.Threads, false);
    Observed On = runOnce(Make, Shape, C.Engine, C.Threads, true);
    EXPECT_TRUE(Off.Valid) << C.Label;
    expectBitIdentical(Off, On, C.Label);
  }
}

AppInstance makeJacobiApp() { return makeJacobi(12, 2); }
AppInstance makeTomcatvApp() { return makeTomcatv(12, 2); }
AppInstance makeErlebacherApp() { return makeErlebacher(8, 2); }
AppInstance makeGaussApp() { return makeGauss(10); }

TEST(ObsDiff, Jacobi) { diffApp(makeJacobiApp, {2, 2}); }
TEST(ObsDiff, Tomcatv) { diffApp(makeTomcatvApp, {4}); }
TEST(ObsDiff, Erlebacher) { diffApp(makeErlebacherApp, {4}); }
TEST(ObsDiff, Gauss) { diffApp(makeGaussApp, {2, 2}); }

} // namespace
