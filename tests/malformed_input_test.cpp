//===- tests/malformed_input_test.cpp - Bad-input rejection corpus -------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A corpus of malformed inputs for every textual front end — mini-HPF
/// programs, set/relation text, serialized SPMD programs, session flags
/// and run parameters. Each case
/// must be rejected with an error diagnostic on the expected line, without
/// crashing and without asserting, so the behavior is identical in Debug
/// and Release builds (this file is part of the Release CI job). A
/// malformed input must never silently produce a program.
///
//===----------------------------------------------------------------------===//

#include "core/Compiler.h"
#include "hpf/HpfParser.h"
#include "pset/Relation.h"
#include "rt/Session.h"
#include "spmd/Serialize.h"
#include "support/Diag.h"

#include "gtest/gtest.h"

#include <string>
#include <vector>

using namespace dhpf;

namespace {

/// One corpus entry: the input text and the 1-based line the first error
/// diagnostic must point at (0 = any line, for whole-input conditions).
struct BadCase {
  const char *Name;
  std::string Text;
  unsigned Line;
};

void expectErrorAtLine(const DiagnosticEngine &Diags, unsigned Line,
                       const char *Name) {
  ASSERT_TRUE(Diags.hasErrors()) << Name << ": accepted malformed input";
  if (Line == 0)
    return;
  for (const Diagnostic &D : Diags.diagnostics()) {
    if (D.S != Severity::Error)
      continue;
    EXPECT_EQ(Line, D.Loc.Line) << Name << ": first error at wrong line: "
                                << D.str();
    return;
  }
}

TEST(MalformedInput, HpfParseErrors) {
  const std::vector<BadCase> Cases = {
      {"unknown keyword", "program p\nfrobnicate x\n", 2},
      {"unterminated bounds", "program p\narray A(1:bad\n", 2},
      {"missing program name", "program\n", 1},
      {"bad processors extent", "program p\nprocessors P(zero)\n", 2},
      {"unknown distribution kind",
       "program p\nprocessors P(4)\ntemplate T(1:8)\n"
       "distribute T(diagonal) onto P\n",
       4},
      {"align without with",
       "program p\narray A(1:8) align (i) T(i)\n", 2},
      {"statement outside nest",
       "program p\narray A(1:8)\nprocedure main\nA(1) = A(2)\n", 4},
      {"do outside nest",
       "program p\nprocedure main\ndo i = 2, 7\n", 3},
      {"malformed do bounds",
       "program p\narray A(1:8)\nprocedure main\nnest n\ndo i = 2,\n"
       "A(i) = A(i)\nendnest\nendprocedure\n",
       5},
      {"overflowing literal",
       "program p\narray A(1:9999999999999999999)\n", 2},
      {"unterminated nest",
       "program p\narray A(1:8)\nprocedure main\nnest n\ndo i = 2, 7\n"
       "A(i) = A(i)\n",
       0},
      {"bad reduce op",
       "program p\nprocedure main\nreduce median r\nendprocedure\n", 3},
      {"endnest without nest",
       "program p\nprocedure main\nendnest\n", 3},
      {"missing program line", "array A(1:8)\n", 0},
  };
  for (const BadCase &C : Cases) {
    DiagnosticEngine Diags;
    auto P = hpf::parseHpfProgram(C.Text, Diags, "bad.hpf");
    EXPECT_FALSE(static_cast<bool>(P)) << C.Name;
    expectErrorAtLine(Diags, C.Line, C.Name);
  }
}

/// Inputs that parse but are semantically malformed: the driver's
/// validation rejects them (so `dhpfc compile` fails with a diagnostic
/// instead of tripping an assert — or silently miscompiling in Release).
TEST(MalformedInput, HpfValidationErrors) {
  const std::vector<const char *> Cases = {
      // undeclared array read inside a nest
      "program p\narray A(1:8)\nprocedure main\nnest n\ndo i = 2, 7\n"
      "B(i) = A(i)\nendnest\nendprocedure\n",
      // subscript arity mismatch
      "program p\narray A(1:8)\nprocedure main\nnest n\ndo i = 2, 7\n"
      "A(i,i) = A(i)\nendnest\nendprocedure\n",
      // duplicate loop variable in one nest
      "program p\narray A(1:8,1:8)\nprocedure main\nnest n\ndo i = 2, 7\n"
      "do i = 2, 7\nA(i,i) = A(i,i)\nendnest\nendprocedure\n",
      // align to an undeclared template
      "program p\narray A(1:8) align (i) with T(i)\n",
      // distribute an undeclared template
      "program p\nprocessors P(4)\ndistribute T(block) onto P\n",
      // distribute onto an undeclared processor array
      "program p\ntemplate T(1:8)\ndistribute T(block) onto P\n",
      // distribution arity mismatch
      "program p\nprocessors P(4)\ntemplate T(1:8)\n"
      "distribute T(block, block) onto P\n",
  };
  for (const char *Text : Cases) {
    DiagnosticEngine Diags;
    auto P = hpf::parseHpfProgram(Text, Diags, "bad.hpf");
    ASSERT_TRUE(static_cast<bool>(P)) << Text << "\n" << Diags.str();
    EXPECT_FALSE(core::validateProgram(**P, Diags)) << Text;
    EXPECT_TRUE(Diags.hasErrors()) << Text;
  }
}

TEST(MalformedInput, SetText) {
  const std::vector<BadCase> Cases = {
      {"unterminated tuple", "{ [a : a >= 0 }", 1},
      {"missing braces", "[p] -> [i]", 1},
      {"garbage constraint", "{ [i] : i >< 3 }", 1},
      {"unterminated exists", "{ [i] : exists(e : i = e }", 1},
      {"trailing garbage", "{ [i] : i >= 0 } extra", 1},
      {"multiline error on line 2", "{ [i,j] :\n i >= && j >= 0 }", 2},
      {"overflowing coefficient",
       "{ [i] : 9999999999999999999 * i >= 0 }", 1},
  };
  for (const BadCase &C : Cases) {
    DiagnosticEngine Diags;
    auto R = parseRelation(C.Text, Diags, "bad.set");
    EXPECT_FALSE(static_cast<bool>(R)) << C.Name;
    expectErrorAtLine(Diags, C.Line, C.Name);
  }
}

/// A minimal well-formed .spmd skeleton the structural cases perturb.
std::string spmdSkeleton(const std::string &Events, const std::string &Root) {
  return "(spmd 1\n"                                       // line 1
         " (vars \"i\")\n"                                 // line 2
         " (proc \"P\" (vpdim block 0 4 \"\" 2 \"\" 0 1 0))\n" // line 3
         " (myslots 0)\n"                                  // line 4
         " (coordslots 0)\n"                               // line 5
         " (stmts)\n"                                      // line 6
         " (events" + Events + ")\n"                       // line 7
         " (root " + Root + ")\n"                          // line 8
         " (source nil))\n";                               // line 9
}

TEST(MalformedInput, SpmdPrograms) {
  const std::vector<BadCase> Cases = {
      {"empty input", "", 0},
      {"truncated list", "(spmd 1 (vars", 1},
      {"wrong magic", "(program 1)", 1},
      {"unsupported version", "(spmd 2)", 1},
      {"missing sections", "(spmd 1 (vars))", 1},
      {"trailing garbage", spmdSkeleton("", "(seq)") + ")", 10},
      {"duplicate section",
       "(spmd 1 (vars) (vars) (proc \"P\") (myslots) (coordslots) (stmts) "
       "(events) (root (seq)) (source nil))",
       1},
      {"slot out of range", spmdSkeleton("", "(compute \"n\" (loop \"i\" 7 "
                                             "(c 1) (c 4) (c 1) (leaf 0 "
                                             "\"x\")))"),
       8},
      {"leaf id out of range", spmdSkeleton("", "(compute \"n\" (leaf 3 "
                                                "\"x\"))"),
       8},
      {"send names missing event", spmdSkeleton("", "(send 0)"), 8},
      {"nil operand inside add", spmdSkeleton("", "(timeloop \"i\" 0 (+ nil "
                                                  "(c 1)) (c 3) (seq))"),
       8},
      {"zero divisor", spmdSkeleton("", "(timeloop \"i\" 0 (fdiv 0 (c 4)) "
                                        "(c 3) (seq))"),
       8},
      {"bad embedded relation",
       spmdSkeleton(" (event 0 \"A\" (0) (0) 0 (inplace runtime -1 \"{ [i] "
                    ": oops\" nil) (block) (block))",
                    "(seq)"),
       0},
      {"bad embedded source",
       "(spmd 1\n (vars)\n (proc \"P\")\n (myslots)\n (coordslots)\n"
       " (stmts)\n (events)\n (root (seq))\n (source \"program\"))\n",
       0},
      {"unterminated string", "(spmd 1 (vars \"i))", 1},
      {"non-integer slot", "(spmd 1 (vars \"i\") (proc \"P\") (myslots 1.5) "
                           "(coordslots) (stmts) (events) (root (seq)) "
                           "(source nil))",
       1},
  };
  for (const BadCase &C : Cases) {
    DiagnosticEngine Diags;
    auto P = spmd::parseSpmdProgram(C.Text, Diags, "bad.spmd");
    EXPECT_EQ(nullptr, P) << C.Name;
    expectErrorAtLine(Diags, C.Line, C.Name);
  }
}

/// Every corpus entry above must also fail through the abort-free public
/// entry points when diagnostics are collected; none may leave the engine
/// empty (a silent failure would be indistinguishable from success).
TEST(MalformedInput, EveryFailureIsDiagnosed) {
  DiagnosticEngine Diags;
  auto P = hpf::parseHpfProgram("program p\nnonsense\n", Diags);
  EXPECT_FALSE(static_cast<bool>(P));
  EXPECT_FALSE(Diags.empty());
  EXPECT_GE(Diags.errorCount(), 1u);
  // Recovery: both bad lines of a two-error input are reported in one pass.
  Diags.clear();
  auto P2 = hpf::parseHpfProgram("program p\nnonsense\nmore nonsense\n",
                                 Diags);
  EXPECT_FALSE(static_cast<bool>(P2));
  EXPECT_GE(Diags.errorCount(), 2u);
}

/// A run parameter the program does not declare is an error naming it,
/// not a silently ignored binding: every front end (`dhpfc run`, `launch`,
/// `place`, the daemon, `dhpf_rt`) resolves through rt::resolveSession.
TEST(MalformedInput, UnknownRunParameter) {
  hpf::Program P("ptest");
  P.addParam("N");
  spmd::SpmdProgram SP;
  SP.Source = &P;
  std::string Err;
  EXPECT_TRUE(rt::checkParams(SP, {{"N", 8}}, Err)) << Err;

  rt::SessionOptions SO;
  SO.Params = {{"N", 8}, {"BOGUS", 3}};
  EXPECT_FALSE(rt::resolveSession(SP, SO, Err));
  EXPECT_NE(Err.find("unknown parameter 'BOGUS'"), std::string::npos) << Err;
  EXPECT_NE(Err.find("declared: N"), std::string::npos) << Err;
}

/// The session flags (`dhpfc`, `dhpf_rt` and the daemon's run request all
/// decode them with rt::parseSessionArg): every malformed value is a named
/// error, never a default, a truncated number or a later assertion.
TEST(MalformedInput, SessionFlags) {
  struct FlagCase {
    std::vector<std::string> Args;
    const char *Needle; ///< must appear in the diagnostic
  };
  const FlagCase Cases[] = {
      {{"--procs=2,x"}, "invalid --procs extent 'x'"},
      {{"--procs="}, "empty --procs list"},
      {{"--procs=2,"}, "invalid --procs extent ''"},
      {{"--procs=0,4"}, "invalid --procs extent '0'"},
      {{"--param=N"}, "--param expects name=value, got 'N'"},
      {{"--param==3"}, "--param expects name=value, got '=3'"},
      {{"--param=N=3x"}, "--param expects name=value, got 'N=3x'"},
      {{"--engine=bogus"}, "unknown engine 'bogus'"},
      {{"-p", "0"}, "invalid processor count '0'"},
      {{"-p", "4x"}, "invalid processor count '4x'"},
      {{"-p", "99999999999999999999"}, "invalid processor count"},
      {{"-p"}, "invalid processor count ''"},
  };
  for (const FlagCase &C : Cases) {
    rt::SessionOptions SO;
    size_t I = 0;
    std::string Err;
    EXPECT_EQ(rt::parseSessionArg(C.Args, I, SO, Err), FlagArg::Bad)
        << C.Args[0];
    EXPECT_NE(Err.find(C.Needle), std::string::npos)
        << C.Args[0] << ": " << Err;
    // The whole-list form (the daemon's) rejects it the same way.
    std::string ListErr;
    EXPECT_FALSE(rt::parseSessionArgs(C.Args, SO, ListErr)) << C.Args[0];
    EXPECT_EQ(ListErr, Err);
  }
  rt::SessionOptions SO;
  std::string Err;
  EXPECT_FALSE(rt::parseSessionArgs({"--rank=0"}, SO, Err));
  EXPECT_NE(Err.find("not a session flag: '--rank=0'"), std::string::npos)
      << Err;
}

/// encodeSessionArgs writes what parseSessionArgs reads back: the launcher
/// and the daemon client rely on the round trip.
TEST(MalformedInput, SessionFlagsRoundTrip) {
  rt::SessionOptions SO;
  SO.NumProcs = 8;
  SO.ProcShape = {2, 4};
  SO.Params = {{"N", 12}, {"M", -3}};
  SO.CheckValidity = false;
  SO.UsePlacement = true;
  SO.Engine = spmd::EngineKind::Native;
  std::vector<std::string> Args = rt::encodeSessionArgs(SO);
  rt::SessionOptions Back;
  std::string Err;
  ASSERT_TRUE(rt::parseSessionArgs(Args, Back, Err)) << Err;
  EXPECT_EQ(Back.NumProcs, SO.NumProcs);
  EXPECT_EQ(Back.ProcShape, SO.ProcShape);
  EXPECT_EQ(Back.Params, SO.Params);
  EXPECT_EQ(Back.CheckValidity, SO.CheckValidity);
  EXPECT_EQ(Back.UsePlacement, SO.UsePlacement);
  EXPECT_EQ(Back.Engine, SO.Engine);
  // Defaults encode to nothing.
  EXPECT_TRUE(rt::encodeSessionArgs(rt::SessionOptions()).empty());
}

/// The compile-flag parser (dhpfc's and the daemon's) rejects a malformed
/// flag with a diagnostic naming it, before anything compiles. Parse only:
/// nothing here builds a thread pool.
TEST(MalformedInput, CompileFlagsAreStrict) {
  std::string Above = std::to_string(core::MaxAnalysisThreads + 1);
  struct FlagCase {
    std::string Arg;
    std::string Needle; ///< must appear in the diagnostic
  };
  const FlagCase Cases[] = {
      {"--threads=", "invalid --threads value ''"},
      {"--threads=x", "invalid --threads value 'x'"},
      {"--threads=-1", "invalid --threads value '-1'"},
      {"--threads=" + Above, "invalid --threads value '" + Above + "'"},
      {"--threads=99999999999999999999", "invalid --threads value"},
      {"--no-split=1", "--no-split takes no value"},
      {"--no-combined=0", "--no-combined takes no value"},
  };
  for (const FlagCase &C : Cases) {
    core::CompilerOptions Opts;
    std::string Err;
    EXPECT_EQ(core::parseCompileArg(C.Arg, Opts, Err), FlagArg::Bad) << C.Arg;
    EXPECT_NE(Err.find(C.Needle), std::string::npos) << C.Arg << ": " << Err;
    // The whole-list form (the daemon's) rejects it the same way, and a
    // rejected flag leaves the options at their defaults.
    std::string ListErr;
    EXPECT_FALSE(core::parseCompileArgs({C.Arg}, Opts, ListErr)) << C.Arg;
    EXPECT_EQ(ListErr, Err);
    EXPECT_TRUE(core::encodeCompileArgs(Opts).empty()) << C.Arg;
  }
  core::CompilerOptions Opts;
  std::string Err;
  EXPECT_FALSE(core::parseCompileArgs({"-p"}, Opts, Err));
  EXPECT_NE(Err.find("not a compile flag: '-p'"), std::string::npos) << Err;
  EXPECT_EQ(core::parseCompileArg(
                "--threads=" + std::to_string(core::MaxAnalysisThreads), Opts,
                Err),
            FlagArg::Taken)
      << Err;
}

/// encodeCompileArgs writes what parseCompileArgs reads back: the daemon
/// client and the request fingerprint rely on the round trip.
TEST(MalformedInput, CompileFlagsRoundTrip) {
  core::CompilerOptions Opts;
  Opts.LoopSplitting = false;
  Opts.Coalescing = false;
  Opts.InPlaceAnalysis = false;
  Opts.CombinedFormulation = false;
  Opts.AnalysisThreads = 3;
  Opts.DumpAfter = {"comm"}; // local only: never encoded
  std::vector<std::string> Args = core::encodeCompileArgs(Opts);
  EXPECT_EQ(Args, (std::vector<std::string>{"--no-split", "--no-coalesce",
                                            "--no-inplace", "--no-combined",
                                            "--threads=3"}));
  core::CompilerOptions Back;
  std::string Err;
  ASSERT_TRUE(core::parseCompileArgs(Args, Back, Err)) << Err;
  EXPECT_EQ(core::encodeCompileArgs(Back), Args);
  EXPECT_TRUE(Back.DumpAfter.empty());
  // Defaults encode to nothing.
  EXPECT_TRUE(core::encodeCompileArgs(core::CompilerOptions()).empty());
}

} // namespace
