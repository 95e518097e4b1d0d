//===- core/CompileContext.h - Shared state of the pass pipeline ---------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiler is structured as an explicit pass pipeline over a shared
/// CompileContext:
///
///   PartitionPass -> CommPass -> SplitPass -> VPPass -> EmitPass
///
/// The four analysis passes fill per-nest NestAnalysis records — each nest
/// independent of the others, so every analysis pass runs its nests on a
/// thread pool — and EmitPass consumes them strictly in program order, so
/// the compiled SPMD program is independent of the analysis schedule.
/// compileProgram (core/Compiler.h) owns the context, sequences the
/// passes, and renders per-pass IR dumps (-dump-after=<pass>).
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_CORE_COMPILECONTEXT_H
#define DHPF_CORE_COMPILECONTEXT_H

#include "core/Comm.h"
#include "core/Compiler.h"
#include "core/LoopSplit.h"
#include "core/Partition.h"
#include "support/ThreadPool.h"

#include <functional>
#include <iosfwd>
#include <memory>
#include <vector>

namespace dhpf {
namespace core {

/// One planned communication event during nest compilation.
struct EventPlan {
  CommEventInput In;
  CommSets CS;
  bool IsWrite = false;
  bool Communicates = false;
  int EventId = -1;
};

/// Everything about one compute nest that can be derived without touching
/// shared compiler state. Filled field-by-field by the analysis passes —
/// possibly on worker threads — and consumed sequentially by EmitPass.
struct NestAnalysis {
  // PartitionPass
  std::vector<CPInfo> CPs;
  std::vector<unsigned> Groups;
  std::vector<Relation> GroupIters; // per group, bound to mv*
  // CommPass
  std::vector<EventPlan> Plans;
  // SplitPass
  bool DoSplit = false;
  SplitSets SS;
  // VPPass
  Relation BusyVP;
  bool AnyBusy = false;
  /// Private per-nest timers, merged into the context total in nest order.
  PhaseTimers Timers;
};

/// Everything the passes share. Owned by compileProgram for one
/// compilation.
struct CompileContext {
  const hpf::Program &P;
  CompilerOptions Opts;
  hpf::MapBuilder MB;
  CompileOutput *Out = nullptr;
  spmd::SpmdProgram *SP = nullptr;
  PhaseTimers *T = nullptr;
  /// Compute nests in the order EmitPass visits them (SeqLoop bodies
  /// recursed in place), with their analyses at matching indices.
  std::vector<const hpf::ComputeNest *> Nests;
  std::vector<NestAnalysis> NestAnalyses;
  /// Shared worker pool for the analysis passes (null = sequential).
  std::unique_ptr<ThreadPool> Pool;

  CompileContext(const hpf::Program &P, CompilerOptions Opts)
      : P(P), Opts(std::move(Opts)), MB(P) {}

  /// Runs \p Fn(I) for every nest index, on the context's thread pool when
  /// profitable. Results must not depend on the schedule.
  void forEachNest(const std::function<void(size_t)> &Fn);
};

/// One pipeline stage.
class Pass {
public:
  virtual ~Pass() = default;
  /// The stable name used by -dump-after=<name>.
  virtual const char *name() const = 0;
  virtual void run(CompileContext &Ctx) = 0;
  /// Renders this pass's per-nest results (relations in the set syntax).
  virtual void dump(const CompileContext &Ctx, std::ostream &OS) const;
};

std::unique_ptr<Pass> createPartitionPass();
std::unique_ptr<Pass> createCommPass();
std::unique_ptr<Pass> createSplitPass();
std::unique_ptr<Pass> createVPPass();
std::unique_ptr<Pass> createEmitPass();

} // namespace core
} // namespace dhpf

#endif // DHPF_CORE_COMPILECONTEXT_H
