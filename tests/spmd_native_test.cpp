//===- tests/spmd_native_test.cpp - Native engine unit tests --------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
// Three concerns of the native backend, smallest scope first:
//
//  1. Expression semantics across engines: one table of integer
//     expressions evaluated on negative operands and INT64 boundaries by
//     the tree oracle (cg::Expr), by compiled bytecode (bc::Prog), and —
//     when a C compiler is present — by the C text emitExprC generates,
//     compiled and dlopen'd through the kernel cache. Floor/ceil division
//     and floorMod are exactly where naive C codegen diverges from the
//     generated code's mathematical semantics, so every engine evaluates
//     every (expression, input) cell of the same table.
//
//  2. Bytecode compilation structure: run-constant folding collapses fully
//     bound expressions to a literal, and power-of-two divisions become
//     shift/mask opcodes while non-pow2 constants keep the checked forms.
//
//  3. Kernel-cache accounting: a warm run compiles nothing — the second
//     identical native run is served entirely from cache (hits move,
//     misses and compile invocations do not).
//
//  4. The progress pump of a rank core: an error it raises inside a
//     compute nest surfaces after the nest, never through kernel frames.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "core/Compiler.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "spmd/Bytecode.h"
#include "spmd/ExecPlan.h"
#include "spmd/KernelCache.h"
#include "spmd/Layout.h"
#include "spmd/NativeGen.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

using namespace dhpf;
using namespace dhpf::spmd;

namespace {

constexpr int64_t I64Min = INT64_MIN;
constexpr int64_t I64Max = INT64_MAX;

/// One expression over variables x (slot 0) and y (slot 1), with the
/// input pairs every engine must agree on.
struct ExprCase {
  const char *Name;
  std::function<cg::Expr(cg::Expr X, cg::Expr Y)> Build;
  std::vector<std::pair<int64_t, int64_t>> Inputs;
};

cg::Expr makeX() { return cg::Expr::var(0, "x"); }
cg::Expr makeY() { return cg::Expr::var(1, "y"); }

/// The shared table. Inputs stay within the engines' defined domain: the
/// bytecode interpreter's checked adds assert on wraparound, so the
/// CeilDiv rows stop K-1 short of INT64_MAX and the affine row keeps its
/// products in range — everything else runs the full boundary set.
const std::vector<ExprCase> &exprTable() {
  static const std::vector<ExprCase> Table = {
      {"floordiv_pow2",
       [](cg::Expr X, cg::Expr) { return cg::Expr::floorDiv(X, 8); },
       {{I64Min, 0}, {I64Min + 1, 0}, {-17, 0}, {-9, 0}, {-8, 0}, {-7, 0},
        {-1, 0}, {0, 0}, {1, 0}, {7, 0}, {8, 0}, {9, 0}, {I64Max, 0}}},
      {"ceildiv_pow2",
       [](cg::Expr X, cg::Expr) { return cg::Expr::ceilDiv(X, 8); },
       {{I64Min, 0}, {-17, 0}, {-8, 0}, {-7, 0}, {-1, 0}, {0, 0}, {1, 0},
        {7, 0}, {8, 0}, {9, 0}, {I64Max - 7, 0}}},
      {"mod_pow2",
       [](cg::Expr X, cg::Expr) { return cg::Expr::mod(X, 8); },
       {{I64Min, 0}, {-9, 0}, {-8, 0}, {-7, 0}, {-1, 0}, {0, 0}, {1, 0},
        {7, 0}, {8, 0}, {I64Max, 0}}},
      {"floordiv_k7",
       [](cg::Expr X, cg::Expr) { return cg::Expr::floorDiv(X, 7); },
       {{I64Min, 0}, {-15, 0}, {-7, 0}, {-1, 0}, {0, 0}, {6, 0}, {7, 0},
        {I64Max, 0}}},
      {"ceildiv_k7",
       [](cg::Expr X, cg::Expr) { return cg::Expr::ceilDiv(X, 7); },
       {{I64Min, 0}, {-15, 0}, {-7, 0}, {-1, 0}, {0, 0}, {6, 0}, {7, 0},
        {I64Max, 0}}},
      {"mod_k7",
       [](cg::Expr X, cg::Expr) { return cg::Expr::mod(X, 7); },
       {{I64Min, 0}, {-8, 0}, {-7, 0}, {-1, 0}, {0, 0}, {6, 0}, {7, 0},
        {I64Max, 0}}},
      {"floordiv_expr",
       [](cg::Expr X, cg::Expr Y) { return cg::Expr::floorDivExpr(X, Y); },
       {{I64Min, 3}, {-7, 3}, {-1, 3}, {0, 3}, {7, 3}, {I64Max, 3},
        {-1, I64Max}, {I64Min, I64Max}}},
      {"mod_expr",
       [](cg::Expr X, cg::Expr Y) { return cg::Expr::modExpr(X, Y); },
       {{I64Min, 3}, {-7, 3}, {-1, 3}, {0, 3}, {7, 3}, {I64Max, 3},
        {-1, I64Max}, {I64Min, I64Max}}},
      {"min_max",
       [](cg::Expr X, cg::Expr Y) {
         return cg::Expr::max({cg::Expr::min({X, Y}), cg::Expr::constant(-4)});
       },
       {{I64Min, I64Max}, {I64Max, I64Min}, {-4, -4}, {-5, 3}, {3, -5},
        {0, 0}}},
      {"affine_negative",
       [](cg::Expr X, cg::Expr Y) {
         return cg::Expr::add(cg::Expr::mul(X, -3), cg::Expr::sub(Y, X));
       },
       {{-1000, 1000}, {1000, -1000}, {0, 0}, {-1, 1}, {1, -1},
        {123456789, -987654321}}},
  };
  return Table;
}

int64_t oracleEval(const ExprCase &C, int64_t X, int64_t Y) {
  std::vector<int64_t> Env = {X, Y};
  return C.Build(makeX(), makeY()).eval(Env);
}

TEST(NativeExpr, BytecodeMatchesTreeOracle) {
  for (const ExprCase &C : exprTable()) {
    bc::Prog P = bc::compileExpr(C.Build(makeX(), makeY()), {});
    std::vector<int64_t> Stack(P.depth() + 1, 0);
    for (auto [X, Y] : C.Inputs) {
      int64_t Regs[2] = {X, Y};
      EXPECT_EQ(P.eval(Regs, Stack.data()), oracleEval(C, X, Y))
          << C.Name << "(" << X << ", " << Y << ")";
    }
  }
}

// Compiling with every slot bound must fold each table expression to a
// single literal equal to the oracle value — including the negative and
// boundary inputs, where naive truncating folds would differ.
TEST(NativeExpr, FullyBoundExpressionsFoldToConstants) {
  for (const ExprCase &C : exprTable()) {
    for (auto [X, Y] : C.Inputs) {
      bc::Prog P =
          bc::compileExpr(C.Build(makeX(), makeY()), {{0, X}, {1, Y}});
      ASSERT_TRUE(P.isConst())
          << C.Name << "(" << X << ", " << Y << ") did not fold";
      EXPECT_EQ(P.constVal(), oracleEval(C, X, Y))
          << C.Name << "(" << X << ", " << Y << ")";
    }
  }
}

bool hasOp(const bc::Prog &P, bc::Op O) {
  for (const bc::Insn &I : P.Code)
    if (I.O == O)
      return true;
  return false;
}

// Power-of-two divisors strength-reduce to shift/mask opcodes; non-pow2
// divisors must keep the checked floor/ceil/mod forms (an arithmetic
// shift is only floor division when the divisor is a power of two).
TEST(NativeExpr, Pow2StrengthReductionSelectsShiftOpcodes) {
  bc::SlotConsts None;
  auto Compile = [&](cg::Expr E) { return bc::compileExpr(E, None); };

  EXPECT_TRUE(hasOp(Compile(cg::Expr::floorDiv(makeX(), 8)),
                    bc::Op::FloorDivPow2));
  EXPECT_TRUE(
      hasOp(Compile(cg::Expr::ceilDiv(makeX(), 8)), bc::Op::CeilDivPow2));
  EXPECT_TRUE(hasOp(Compile(cg::Expr::mod(makeX(), 8)), bc::Op::ModPow2));

  EXPECT_TRUE(
      hasOp(Compile(cg::Expr::floorDiv(makeX(), 7)), bc::Op::FloorDivK));
  EXPECT_FALSE(hasOp(Compile(cg::Expr::floorDiv(makeX(), 7)),
                     bc::Op::FloorDivPow2));
  EXPECT_TRUE(
      hasOp(Compile(cg::Expr::ceilDiv(makeX(), 7)), bc::Op::CeilDivK));
  EXPECT_TRUE(hasOp(Compile(cg::Expr::mod(makeX(), 7)), bc::Op::ModK));
  EXPECT_FALSE(hasOp(Compile(cg::Expr::mod(makeX(), 7)), bc::Op::ModPow2));
}

// The same table through the C emitter: every case becomes a branch of one
// generated function, compiled by the system compiler and dlopen'd. The
// compiled code must agree with the tree oracle cell for cell.
TEST(NativeExpr, EmittedCMatchesTreeOracle) {
  native::KernelCache &KC = native::KernelCache::global();
  if (!KC.compilerAvailable())
    GTEST_SKIP() << "no usable C compiler ('"
                 << native::KernelCache::compilerCommand() << "')";

  const std::vector<ExprCase> &Table = exprTable();
  std::string TU = "#include <stdint.h>\n\n" + native::helperPreamble();
  TU += "\nint64_t dhpf_eval_case(int64_t i, const int64_t *R) {\n"
        "  switch (i) {\n";
  for (size_t I = 0; I != Table.size(); ++I) {
    bc::Prog P = bc::compileExpr(Table[I].Build(makeX(), makeY()), {});
    TU += "  case " + std::to_string(I) + ": return " +
          native::emitExprC(P, "R") + ";\n";
  }
  TU += "  }\n  return 0;\n}\n";

  std::string Err;
  void *Sym = KC.loadRaw(TU, "dhpf_eval_case", &Err);
  ASSERT_NE(Sym, nullptr) << Err;
  auto *Eval = reinterpret_cast<int64_t (*)(int64_t, const int64_t *)>(Sym);

  for (size_t I = 0; I != Table.size(); ++I) {
    const ExprCase &C = Table[I];
    for (auto [X, Y] : C.Inputs) {
      int64_t Regs[2] = {X, Y};
      EXPECT_EQ(Eval(static_cast<int64_t>(I), Regs), oracleEval(C, X, Y))
          << C.Name << "(" << X << ", " << Y << ")";
    }
  }
}

uint64_t counterVal(const char *Name) {
  return obs::MetricsRegistry::global().counter(Name)->value();
}

// A warm cache serves repeat runs without invoking the compiler at all:
// the second identical native run adds exactly one cache hit (one plan)
// and zero misses/compiles. Runs with the disk layer off so the test is
// hermetic — the in-memory module map alone must provide the warm path.
TEST(KernelCache, WarmRunCompilesNothing) {
  native::KernelCache &KC = native::KernelCache::global();
  if (!KC.compilerAvailable())
    GTEST_SKIP() << "no usable C compiler ('"
                 << native::KernelCache::compilerCommand() << "')";
  if (!obs::compiledIn())
    GTEST_SKIP() << "observability compiled out; no counters to check";

  ::setenv("DHPF_KERNEL_CACHE", "off", 1);

  apps::AppInstance App = apps::makeJacobi(12, 2);
  auto Compiled = core::compileProgram(*App.Prog);
  ASSERT_TRUE(Compiled);

  auto RunNative = [&]() {
    RunConfig RC;
    RC.ProcExtents = {{App.ProcArrayName, {2, 2}}};
    RC.Engine = EngineKind::Native;
    RC.ExecThreads = 1;
    Interpreter I(Compiled->Program, RC);
    App.Setup(I);
    RunResult RR = I.run();
    EXPECT_TRUE(RR.Valid);
  };

  uint64_t Fallbacks0 = counterVal("spmd.native.fallbacks");
  RunNative(); // cold in this process: may miss and compile
  ASSERT_EQ(counterVal("spmd.native.fallbacks"), Fallbacks0)
      << "native engine fell back to bytecode despite a usable compiler";

  uint64_t Hits1 = counterVal("spmd.kernel.cache.hits");
  uint64_t Misses1 = counterVal("spmd.kernel.cache.misses");
  uint64_t Compiles1 = counterVal("spmd.kernel.compile.invocations");

  RunNative(); // warm: one plan, one hit, nothing compiled

  EXPECT_EQ(counterVal("spmd.kernel.cache.hits"), Hits1 + 1);
  EXPECT_EQ(counterVal("spmd.kernel.cache.misses"), Misses1);
  EXPECT_EQ(counterVal("spmd.kernel.compile.invocations"), Compiles1);

  ::unsetenv("DHPF_KERNEL_CACHE");
}

/// Collects the statement semantics an app registers.
struct SemanticsSink : ProgramHost {
  std::map<int, StmtFn> Sems;
  void setSemantics(int Id, StmtFn Fn) override { Sems[Id] = std::move(Fn); }
  void initArray(const std::string &,
                 const std::function<double(const std::vector<int64_t> &)>
                     &) override {}
};

const PlanNode *firstCompute(const PlanNode &N) {
  if (N.K == SpmdNode::Kind::Compute)
    return &N;
  for (const PlanNode &C : N.Children)
    if (const PlanNode *F = firstCompute(C))
      return F;
  return nullptr;
}

// The progress callback runs inside compiled C frames (and the bytecode
// walk): a transport error it throws is parked, pumping stops, the nest
// finishes, and compute() rethrows it — under both dispatch paths.
TEST(RankCore, ProgressErrorSurfacesAfterTheNest) {
  apps::AppInstance App = apps::makeJacobi(12, 2);
  auto Compiled = core::compileProgram(*App.Prog);
  ASSERT_TRUE(Compiled);
  const SpmdProgram &SP = Compiled->Program;
  RunConfig RC;
  RC.ProcExtents = {{App.ProcArrayName, {1, 1}}};
  ProgramLayout Lay = resolveLayout(SP, RC);
  std::map<std::string, ArrayStore> Arrays = buildArrayStores(SP, RC, Lay);
  unsigned Upgrades = 0;
  std::vector<char> InPlace = resolveEventInPlace(SP, Lay, Upgrades);
  SemanticsSink Sink;
  App.Setup(Sink);

  for (bool Native : {false, true}) {
    if (Native && !native::KernelCache::global().compilerAvailable())
      continue;
    LoadedPlan L(SP, {&Arrays, &Lay.AllBindings, &Lay.ProcShape, &InPlace},
                 RC.Machine.SecPerWork);
    if (Native) {
      L.setupNative(&obs::TraceBuffer::global());
      ASSERT_NE(L.kernels(), nullptr);
    }
    L.bindSemantics(Sink.Sems);
    std::vector<int64_t> Env = initialEnv(SP, Lay, 0);
    AccumMap Accums;
    double Clock = 0;
    RankCore Core(L, 0, 1, Env, Accums, /*CheckValidity=*/true, &Clock);
    unsigned Pumps = 0;
    Core.pumpEvery(1, [&] {
      ++Pumps;
      throw std::runtime_error("pump failed");
    });
    const PlanNode *N = firstCompute(L.plan().Root);
    ASSERT_NE(N, nullptr);
    EXPECT_THROW(Core.compute(*N), std::runtime_error) << Native;
    EXPECT_EQ(Pumps, 1u) << Native;
    EXPECT_GT(Core.drain([](const std::string &) {}), 1u) << Native;
  }
}

} // namespace
