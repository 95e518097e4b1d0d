//===- spmd/ExecPlan.h - Lowered SPMD execution plan ----------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lowered node program and the one executor that runs it. Lowering
/// walks a compiled SpmdProgram once and produces a flat, fully
/// pre-resolved plan: array names become dense ids with cached stores and
/// precomputed strides (subscript tuples become one fused flatten
/// expression), every Expr becomes postfix bytecode (Bytecode.h) with
/// run-constant slots folded, statically dead guards and loops are
/// dropped, and the per-dimension virtual-processor mapping is
/// precomputed with block sizes bound to constants.
///
/// The plan runs in three layers:
///
///  - LoadedPlan, one per process: the plan, its array stores, and one
///    loaded native kernel table when the native engine is selected;
///  - RankCore, one per processor rank: the paper's node program — the
///    Figure 4 send / compute localIters / recv schedule driven by the
///    Figure 3 comm sets — with element access through per-rank overlay
///    and pending stores, cached sorted per-partner element lists,
///    zero-copy span packing where the Section 3.3 analysis proved (or the
///    runtime check upgraded) contiguity, and compute through the native
///    kernel or the bytecode walk;
///  - a driver that moves payloads between cores: PlanExecutor here, for
///    all ranks in one process on the simulated machine, and rt::RankEngine
///    for one rank per OS process over a net::Transport.
///
/// PlanExecutor preserves the tree interpreter's observable behaviour
/// bit-for-bit (array state, message traffic, simulated clocks, violation
/// reports). Independent processor ranks of an event run in parallel on a
/// ThreadPool, with all shared-state mutation (simulator clocks, payload
/// queues, violations) replayed in processor order afterwards, so the
/// result is identical for any thread count.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_SPMD_EXECPLAN_H
#define DHPF_SPMD_EXECPLAN_H

#include "spmd/Bytecode.h"
#include "spmd/Interp.h"
#include "spmd/KernelABI.h"
#include "spmd/SpmdProgram.h"
#include "support/ThreadPool.h"

#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

namespace dhpf {
namespace obs {
class TraceBuffer;
} // namespace obs
namespace spmd {

/// One lowered guard atom; Kind/Mod mirror cg::GuardAtom.
struct PlanAtom {
  bc::Prog E;
  cg::GuardAtom::Kind K = cg::GuardAtom::Kind::NonNeg;
  int64_t Mod = 0;
};

/// A guard in DNF; statically true atoms/conjuncts are folded away at
/// lowering time, so an empty AnyOf here means "false" was impossible and
/// the guard was dropped entirely.
struct PlanGuard {
  std::vector<std::vector<PlanAtom>> AnyOf;
};

/// A generated loop nest lowered to a flat preorder array. Each node knows
/// the index one past its subtree, so child iteration needs no pointers.
struct PlanAst {
  struct Node {
    enum class Kind : uint8_t { Loop, If, Leaf };
    Kind K = Kind::Leaf;
    unsigned VarSlot = 0;               // Loop
    int32_t LB = -1, UB = -1, Step = -1; // Loop: Exprs index; Step<0 => 1
    uint32_t GuardBegin = 0, GuardEnd = 0; // If: range in Guards
    int32_t LeafId = -1;                // Leaf
    uint32_t SubtreeEnd = 0;
  };
  std::vector<Node> Nodes; // forest in preorder
  std::vector<bc::Prog> Exprs;
  std::vector<PlanGuard> Guards;
};

/// One compiled statement with subscripts fused into flat-index bytecode.
struct StmtPlan {
  uint32_t WriteArray = 0;
  bc::Prog WriteFlat;
  struct Read {
    uint32_t Array = 0;
    bc::Prog Flat;
  };
  std::vector<Read> Reads;
  double Cost = 1.0;
  int SemanticsId = -1;
};

/// One lowered communication event.
struct EventPlan {
  int Id = -1;
  uint32_t Array = 0;
  PlanAst Send, Recv;
  std::vector<unsigned> PartnerSlots, ElemSlots;
  bc::Prog ElemFlat; // flat element index from the leaf environment
  /// True when neither loop nest reads a sequential-loop variable, so the
  /// enumerated (partner, element) lists are identical every execution.
  bool Cacheable = false;
  /// Effective in-place flag (compile-proven or runtime-upgraded).
  bool InPlace = false;
  unsigned ElemBytes = 8;
};

/// A node of the lowered program tree.
struct PlanNode {
  SpmdNode::Kind K = SpmdNode::Kind::Seq;
  // TimeLoop
  unsigned SeqSlot = 0;
  bc::Prog SeqLo, SeqHi;
  // Compute
  std::string NestName; // names the rank runtime's compute:<nest> span
  PlanAst Loops;
  /// Every written array has full per-element ownership, so distinct ranks
  /// touch distinct elements and may run concurrently.
  bool ParallelSafe = false;
  // Send/Recv
  int EventId = -1;
  // Reduce
  SpmdNode::ReduceOp RedOp = SpmdNode::ReduceOp::Sum;
  std::string RedName;
  uint64_t RedBytes = 8;
  double RedCost = 1.0;
  /// Native-engine kernel indices, assigned by buildExecPlan in preorder
  /// (every Compute/Reduce node gets one); the emitted kernel table is
  /// indexed by them, and every executor dispatches through the node.
  int32_t NativeComputeId = -1; // Compute
  int32_t NativeReduceId = -1;  // Reduce
  std::vector<PlanNode> Children;
};

/// Per-dimension processor mapping with run-time bindings pre-resolved.
struct DimPlan {
  hpf::DistSpec::Kind Kind = hpf::DistSpec::Kind::Block;
  bool Virtualized = false;
  int64_t TmplLo = 1;
  int64_t Block = 1;   // bound block size (Block layouts)
  int64_t CyclicK = 1; // for CyclicK
  int64_t Extent = 1;  // processor-array extent along this dimension
};

/// The complete lowered program.
struct ExecPlan {
  std::vector<std::string> ArrayNames; // dense id -> name
  std::vector<StmtPlan> Stmts;         // indexed by leaf id
  std::vector<EventPlan> Events;       // indexed by EventId
  PlanNode Root;
  std::vector<DimPlan> Dims;
  unsigned StackDepth = 1; // max bytecode stack depth over the whole plan
};

/// Everything lowering needs from an execution context. The in-process
/// executor (via the Interpreter) and the distributed rank runtime
/// (rt::RankEngine) build plans from the same inputs, so a plan — and the
/// native kernel source generated from it — is identical wherever it is
/// built, which is what lets every rank of a launch share one kernel-cache
/// entry.
struct PlanBuildInputs {
  std::map<std::string, ArrayStore> *Arrays = nullptr;
  const std::map<std::string, int64_t> *AllBindings = nullptr;
  const std::vector<int64_t> *ProcShape = nullptr;
  const std::vector<char> *EventInPlace = nullptr;
};

/// A built plan plus the array-name resolution used to build it.
struct PlanBuild {
  ExecPlan Plan;
  std::map<std::string, uint32_t> ArrayIds;
  std::vector<ArrayStore *> Stores; // by array id
};

/// Lowers \p Prog once against \p In (see PlanBuildInputs). Deterministic:
/// identical inputs produce an identical plan.
PlanBuild buildExecPlan(const SpmdProgram &Prog, const PlanBuildInputs &In);

/// The part of a plan run shared by every rank core in one process: the
/// lowered plan, the array stores it addresses by dense id, the statement
/// semantics, and — for the native engine — one loaded kernel table. The
/// in-process executor shares one between its NP cores; a distributed rank
/// owns one for its single core.
class LoadedPlan {
public:
  /// Lowers \p Prog against \p In (see buildExecPlan). \p SecPerWork
  /// prices one statement work unit on the simulated clock.
  LoadedPlan(const SpmdProgram &Prog, const PlanBuildInputs &In,
             double SecPerWork);

  /// Compiles the plan's kernels through the kernel cache and loads them.
  /// When no compiler is usable this prints one "falling back" note
  /// (prefixed by \p Who) to stderr, bumps spmd.native.fallbacks, and
  /// leaves every core on bytecode dispatch.
  void setupNative(obs::TraceBuffer *Trace, const std::string &Who = "");

  /// Resolves statement semantics by statement id; call before running.
  void bindSemantics(const std::map<int, StmtFn> &Semantics);

  const ExecPlan &plan() const { return Plan; }
  ArrayStore &store(uint32_t A) const { return *Stores[A]; }
  /// The loaded kernel table; null on bytecode dispatch.
  const DhpfKernelTable *kernels() const { return Kernels; }

private:
  friend class RankCore;
  ExecPlan Plan;
  std::vector<ArrayStore *> Stores; // by array id
  std::vector<const StmtFn *> Sems; // by statement id
  const DhpfKernelTable *Kernels = nullptr;
  // The DhpfCtx-facing per-array tables (array shapes are fixed before
  // the plan is built).
  std::vector<double *> Data;
  std::vector<const int32_t *> Owner;
  std::vector<int64_t> Size;
  /// Per-leaf Cost * SecPerWork: both the kernel and the bytecode walk add
  /// this one precomputed product per statement instance, exactly
  /// sim::Machine::addCompute's arithmetic, so simulated clocks stay
  /// bit-identical.
  std::vector<double> LeafCostSec;
  unsigned MaxReads = 1;
};

/// One processor rank's execution of a LoadedPlan: element access through
/// the rank's overlay (received values) and pending (non-local writes)
/// stores, per-partner element lists of each comm event, payload packing
/// and unpacking, compute nests, and the validity checks that verify the
/// communication analysis at run time. Every decision of the node program
/// lives here once; the drivers only move payloads — PlanExecutor through
/// in-memory queues for all ranks of one process, rt::RankEngine through a
/// net::Transport for one rank per process.
///
/// The core's DhpfCtx is its whole dispatch state: the native kernels and
/// the bytecode walk read and bump the same clock, statement counter and
/// progress counter, so both engines pump the Figure 4 overlap window
/// (ProgressEvery) at the same statement instances.
class RankCore {
public:
  /// One partner's sorted, deduplicated element list for one event side.
  struct PartnerList {
    unsigned Q = 0;
    std::shared_ptr<std::vector<int64_t>> Flats; // sorted, unique
    int64_t Base = 0;
    bool Contig = false;
    enum class OwnClass : uint8_t { AllLocal, NoneLocal, Mixed } Own =
        OwnClass::AllLocal;
  };
  /// A delivered payload: \p Flats is null for a contiguous payload, whose
  /// elements are [Base, Base + Count).
  struct PayloadView {
    const int64_t *Flats = nullptr;
    int64_t Base = 0;
    const double *Vals = nullptr;
    size_t Count = 0;
  };

  /// \p Env, \p Accums and \p Clock belong to the executing rank and must
  /// outlive the core.
  RankCore(LoadedPlan &L, unsigned Me, unsigned NP, std::vector<int64_t> &Env,
           AccumMap &Accums, bool CheckValidity, double *Clock);
  RankCore(const RankCore &) = delete;
  RankCore &operator=(const RankCore &) = delete;

  /// Calls \p Fn every \p Every statement instances inside compute nests,
  /// continuing the count across nests (in-process: never).
  void pumpEvery(uint64_t Every, std::function<void()> Fn);

  /// Evaluates \p P over this rank's environment.
  int64_t eval(const bc::Prog &P);

  /// Runs this rank's iterations of a compute nest.
  void compute(const PlanNode &N);

  /// This rank's per-partner element lists for one side of \p EP, in
  /// first-appearance partner order; cached when the event is Cacheable.
  const std::vector<PartnerList> &lists(const EventPlan &EP, bool RecvSide);

  /// A contiguous run of locally-owned storage: the Section 3.3 shape,
  /// sent straight from the array store.
  static bool isSpan(const PartnerList &PL) {
    return PL.Contig && PL.Own == PartnerList::OwnClass::AllLocal;
  }

  /// Gathers the values of one send-side list into \p Out (PL's count
  /// wide): a span copy, an owned gather, or an element-wise pack that
  /// forwards pending non-local writes.
  void pack(const EventPlan &EP, const PartnerList &PL, double *Out);

  /// Applies a payload received for the recv-side list \p PL, checking it
  /// against the expectation.
  void unpack(const EventPlan &EP, const PartnerList &PL,
              const PayloadView &Pay);

  void violation(std::string Msg) {
    if (Viol.size() < MaxViolations)
      Viol.push_back(std::move(Msg));
  }

  /// Hands the buffered violations to \p Sink in order, then returns the
  /// statement instances run since the previous drain; both reset.
  template <typename SinkFn> uint64_t drain(SinkFn &&Sink) {
    for (const std::string &M : Viol)
      Sink(M);
    Viol.clear();
    uint64_t N = Stmts;
    Stmts = 0;
    return N;
  }

private:
  struct SideCache {
    bool Built = false;
    std::vector<PartnerList> Partners;
  };
  static constexpr size_t MaxViolations = 20;

  LoadedPlan &L;
  const ExecPlan &Plan;
  const unsigned Me;
  std::vector<int64_t> &Env;
  AccumMap &Accums;
  const bool CheckValidity;
  DhpfCtx Ctx = {};
  std::function<void()> OnProgress;
  std::exception_ptr ProgressError; ///< thrown by OnProgress mid-nest
  uint64_t Stmts = 0;
  std::vector<std::string> Viol;

  std::vector<int64_t> Stack;
  std::vector<double> Reads, ReadBuf;
  /// Raw (partner, flat) enumeration, split into parallel arrays so the
  /// native event kernels fill them directly through the DhpfCtx pair
  /// buffer. In native mode the vectors are capacity storage and RawLen is
  /// the element count; in bytecode mode RawLen == size().
  std::vector<uint32_t> RawQ;
  std::vector<int64_t> RawF;
  size_t RawLen = 0;
  std::vector<int32_t> PartnerPos;
  std::vector<PartnerList> Lists; // rebuilt lists (uncacheable events)
  std::vector<SideCache> SendCache, RecvCache; // by event id
  /// Received non-local values and pending non-local writes, by array id.
  std::vector<std::unordered_map<int64_t, double>> Overlay, Pending;

  double read(uint32_t A, int64_t Flat);
  void write(uint32_t A, int64_t Flat, double V);
  double stmt(int32_t Leaf);
  void walkCompute(const PlanNode &N); ///< the bytecode compute walk
  void buildLists(const PlanAst &A, const EventPlan &EP,
                  std::vector<PartnerList> &Out, bool RecvSide);

  // Native-kernel callbacks (DhpfCtx::Host is the core).
  static double readSlowCb(DhpfCtx *C, int32_t A, int64_t F);
  static void writeSlowCb(DhpfCtx *C, int32_t A, int64_t F, double V);
  static double stmtCb(DhpfCtx *C, int32_t Leaf, int32_t N);
  static void progressCb(DhpfCtx *C);
  static void growPairsCb(DhpfCtx *C);
};

/// Runs all ranks of one lowered plan in process, against an
/// Interpreter's state (arrays, environments, simulated machine): NP
/// RankCores over one LoadedPlan, with in-memory payload queues as the
/// transport. Built by the Interpreter constructor when the bytecode or
/// native engine is selected.
class PlanExecutor {
public:
  /// \p Engine must be Bytecode or Native. Native compiles the plan's hot
  /// loops through the kernel cache at construction time and falls back to
  /// bytecode dispatch (with one stderr note) when no compiler is usable.
  PlanExecutor(const SpmdProgram &Prog, Interpreter &I, unsigned Threads,
               EngineKind Engine = EngineKind::Bytecode);
  ~PlanExecutor();

  RunResult run();

private:
  /// A message payload. Contiguous payloads carry no index vector — the
  /// span [Base, Base+Vals.size()) is implicit.
  struct Payload {
    std::shared_ptr<const std::vector<int64_t>> Flats; // null when Contig
    std::vector<double> Vals;
    int64_t Base = 0;
    /// Gathered as a contiguous span of locally-owned storage (the
    /// Section 3.3 shape) — feeds RunResult::SpanCopies.
    bool Span = false;
    size_t count() const { return Vals.size(); }
  };

  const SpmdProgram &Prog;
  Interpreter &I;
  unsigned NP; // processor count
  /// Node-dispatch counts by SpmdNode::Kind, flushed to the obs registry
  /// ("spmd.bytecode.dispatch.*") once at the end of run().
  uint64_t Dispatch[6] = {};
  LoadedPlan L;
  std::vector<std::unique_ptr<RankCore>> Cores; // by processor
  std::unique_ptr<ThreadPool> Pool;
  /// Per-processor staged sends (partner, payload), reused across events.
  std::vector<std::vector<std::pair<unsigned, Payload>>> Out;
  std::map<std::tuple<unsigned, unsigned, int>, std::queue<Payload>>
      Payloads;

  void runNode(const PlanNode &N);
  void runCompute(const PlanNode &N);
  void runSend(const PlanNode &N);
  void runRecv(const PlanNode &N);
  void runReduce(const PlanNode &N);
  template <typename Fn> void forProcs(bool Parallel, Fn &&F);
  /// Replays processor \p P's buffered violations and statement count
  /// into the shared result.
  void drain(unsigned P);
};

} // namespace spmd
} // namespace dhpf

#endif // DHPF_SPMD_EXECPLAN_H
