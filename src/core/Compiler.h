//===- core/Compiler.h - The dHPF-style compiler front end ---------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiler front end: compileProgram, the one entry point that runs
/// the pass pipeline
///
///   PartitionPass -> CommPass -> SplitPass -> VPPass -> EmitPass
///
/// over a mini-HPF program and produces a compiled SPMD node program, and
/// the one codec of the compile flags (--no-split, --no-coalesce,
/// --no-inplace, --no-combined, --threads=N) that `dhpfc`, the daemon wire
/// and the CompilerService request fingerprint share. Phases (timed for
/// the Table 1 reproduction):
///
///   - interprocedural analysis (array access summaries)
///   - partitioning computation (CPMap construction, statement grouping)
///   - loop splitting (Figure 4)
///   - loop bounds reduction (partitioned-loop code generation)
///   - communication generation (Figure 3 equations, pack/unpack and
///     partner loops, contiguity and rectangular-section checks)
///   - optimization of generated code (AST cleanup post-pass)
///
/// Every code-generation problem goes through the multiple-mappings Codegen
/// operation, whose cumulative time is reported separately (the paper's
/// "mult mappings code generation" row).
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_CORE_COMPILER_H
#define DHPF_CORE_COMPILER_H

#include "hpf/Maps.h"
#include "pset/OpCache.h"
#include "spmd/SpmdProgram.h"
#include "support/Flags.h"
#include "support/Timer.h"

#include <memory>
#include <string>
#include <vector>

namespace dhpf {

class DiagnosticEngine;

namespace core {

struct CompilerOptions {
  /// Apply non-local index-set splitting (Figure 4) to overlap
  /// communication with computation and avoid buffer-access checks.
  bool LoopSplitting = true;
  /// Coalesce communication for references to the same array into one
  /// logical event (Figure 3's unified formulation).
  bool Coalescing = true;
  /// Run the Section 3.3 in-place (contiguity) analysis per event.
  bool InPlaceAnalysis = true;
  /// Use the Section 5 formulation that combines DataAccessed before the
  /// per-reference equations (ablation: the naive per-reference form).
  bool CombinedFormulation = true;
  /// Worker count for the per-nest analyses (partitioning, communication
  /// equations, loop splitting): 1 runs them sequentially, 0 selects the
  /// hardware concurrency. The pool never gets more workers than the
  /// program has nests. Emission stays sequential, so the compiled program
  /// is identical for any thread count.
  unsigned AnalysisThreads = 0;
  /// Pass names (see passNames()) whose state is dumped to stderr right
  /// after they run. A local side channel: not a compile flag, not part of
  /// the request identity.
  std::vector<std::string> DumpAfter;
};

/// Phase names used in the timing report (Table 1 rows).
namespace phase {
inline const char *Total = "total compilation";
inline const char *Interproc = "interprocedural analysis";
inline const char *Partitioning = "partitioning computation";
inline const char *LoopSplitting = "loop splitting";
inline const char *BoundsReduction = "loop bounds reduction";
inline const char *CommGeneration = "communication generation";
inline const char *CommEquations = "  comm set equations";
inline const char *CommLoops = "  loops to pack/unpack + partners";
inline const char *ContigCheck = "  check if msg is contiguous";
inline const char *RectCheck = "  check if msg is rect section";
inline const char *OptGenerated = "opt of generated code";
inline const char *MMCodegen = "mult mappings code generation";
} // namespace phase

struct CompileOutput {
  spmd::SpmdProgram Program;
  PhaseTimers Timers;
  unsigned NumCommEvents = 0;
  unsigned NumContiguousProven = 0;
  unsigned NumRectSections = 0;
  unsigned NumSplitNests = 0;
  unsigned NodesRemovedByOpt = 0;
  /// Set-operation cache and fast-path activity during this compile
  /// (delta of the process-wide counters over the run).
  pset::CacheStats Cache;
  /// Number of analysis threads used (1 = sequential).
  unsigned ThreadsUsed = 1;
};

/// True if set \p S provably equals the cross product of its per-dimension
/// projections (a "rectangular section" in the Table 1 row's sense).
bool isRectSectionProven(const Relation &S);

/// The pipeline's pass names in order (the values -dump-after accepts).
std::vector<std::string> passNames();

/// Structural validation of a program (builder- or parser-produced):
/// every referenced array is declared with matching rank, alignments and
/// distributions are well-formed, statement ids are consistent. Reports
/// into \p Diags; returns true when no new errors were added.
bool validateProgram(const hpf::Program &P, DiagnosticEngine &Diags);

/// Compiles \p P into an SPMD node program: the only function that runs
/// the pipeline. With \p Diags, the program is validated first and the
/// result is null when validation fails (the errors are in \p Diags);
/// without, the input is trusted (builder-API programs).
std::unique_ptr<CompileOutput>
compileProgram(const hpf::Program &P, CompilerOptions Opts = {},
               DiagnosticEngine *Diags = nullptr);

//===----------------------------------------------------------------------===//
// The compile-flag codec
//===----------------------------------------------------------------------===//

/// The largest --threads=N any front end accepts.
inline constexpr unsigned MaxAnalysisThreads = 256;

/// Offers \p Arg to the compile-flag parser.
FlagArg parseCompileArg(const std::string &Arg, CompilerOptions &Opts,
                        std::string &Err);

/// Parses a list that must hold compile flags only (the daemon's compile
/// request). False with \p Err naming the first bad argument.
bool parseCompileArgs(const std::vector<std::string> &Args,
                      CompilerOptions &Opts, std::string &Err);

/// The flags that parse back to \p Opts; options at their default are
/// left out. DumpAfter is not a compile flag and is not encoded.
std::vector<std::string> encodeCompileArgs(const CompilerOptions &Opts);

} // namespace core
} // namespace dhpf

#endif // DHPF_CORE_COMPILER_H
