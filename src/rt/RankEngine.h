//===- rt/RankEngine.h - Single-rank distributed executor ----------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes ONE rank of a compiled SPMD program in its own address space —
/// the node program the paper generates for a distributed-memory machine.
/// The rank lowers the program to the same plan the in-process executor
/// runs (spmd/ExecPlan.h) and drives one spmd::RankCore over it, so every
/// execution decision — element access, per-partner enumeration and
/// deduplication, ownership checks, payload pack and apply, compute through
/// the native kernel or the bytecode walk, validity diagnostics — is the
/// in-process executor's, and P cooperating RankEngines produce results
/// bit-identical to the in-process engines running all P ranks in one
/// address space. What only a real rank has lives here: the
/// net::Transport, the wire encoding of a payload, reduction collectives,
/// the FIN shutdown barrier, and the rank's counters.
///
/// Communication follows the Figure 4 discipline: a Send node posts every
/// message nonblocking and returns; the following Compute node (the
/// localIters loop) pumps the transport's progress engine every
/// RankConfig::ProgressEveryStmts statement instances, so posted bytes
/// drain while computation proceeds. A message whose deduplicated element
/// set is a contiguous span of locally-owned storage — the shape the
/// Section 3.3 analysis proves, plus the injected runtime checks — is
/// posted zero-copy straight from array storage.
///
/// Reductions route through the src/coll collective library
/// (DHPF_COLL=naive|rdbl|auto): every schedule moves the raw per-rank
/// contributions and combines them locally in rank order 0..P-1 (the
/// in-process combine order), so double rounding is bit-identical
/// regardless of the algorithm; only the physical CollMessages/CollBytes
/// counters differ.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_RT_RANKENGINE_H
#define DHPF_RT_RANKENGINE_H

#include "coll/Collective.h"
#include "net/Net.h"
#include "obs/Trace.h"
#include "spmd/Interp.h"
#include "spmd/Layout.h"
#include "spmd/SpmdProgram.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace dhpf {
namespace spmd {
class LoadedPlan;
class RankCore;
struct PlanNode;
} // namespace spmd
namespace rt {

struct RankConfig {
  spmd::RunConfig Run;
  unsigned Rank = 0;
  /// Pump the transport progress engine every N statement instances
  /// inside compute nodes (the overlap window).
  unsigned ProgressEveryStmts = 256;
  /// Trace sink for this rank's comm/compute spans. Defaults to the
  /// process-global buffer (inert until started); in-process multi-rank
  /// tests point each engine at its own buffer so lanes stay separate.
  obs::TraceBuffer *Trace = &obs::TraceBuffer::global();
};

class RankEngine : public spmd::ProgramHost {
public:
  /// \p T must span the same number of ranks the resolved layout yields;
  /// mismatches throw net::TransportError before anything runs.
  RankEngine(const spmd::SpmdProgram &Prog, RankConfig Config,
             net::Transport &T);
  ~RankEngine();

  void setSemantics(int Id, spmd::StmtFn Fn) override;
  void initArray(const std::string &Name,
                 const std::function<double(const std::vector<int64_t> &)>
                     &Init) override;

  /// Runs this rank's part of the whole program; callable once. Counters
  /// in the result are rank-local (summing over ranks reproduces the
  /// in-process totals); transport failures propagate as TransportError.
  spmd::RunResult run();

  unsigned rank() const { return Config.Rank; }
  unsigned numProcs() const { return Layout.NumProcs; }

  /// Post-run access for result dumping.
  const spmd::ArrayStore &array(const std::string &Name) const;
  const std::map<std::string, spmd::ArrayStore> &arrays() const {
    return Arrays;
  }

private:
  const spmd::SpmdProgram &Prog;
  RankConfig Config;
  net::Transport &T;
  spmd::ProgramLayout Layout;

  std::map<std::string, spmd::ArrayStore> Arrays;
  std::map<int, spmd::StmtFn> Semantics;
  std::vector<int64_t> Env; ///< this rank's variable environment
  spmd::AccumMap Accums;
  std::vector<char> EventInPlace;
  /// A real rank has no simulated machine; the core's clock bumps land
  /// here and are discarded.
  double Clock = 0;
  std::unique_ptr<spmd::LoadedPlan> Plan;
  std::unique_ptr<spmd::RankCore> Core;
  uint64_t ReduceSeq = 0;  ///< reduce instance counter (tag sync)
  /// The reduction schedule (DHPF_COLL; auto resolves per mesh size).
  /// Every algorithm combines in canonical rank order, so the choice
  /// changes only CollMessages/CollBytes, never result bits.
  std::unique_ptr<coll::Collective> Coll;
  coll::CollStats CollSt;
  uint64_t ProgressCalls = 0; ///< flushed to rt.comm.progress_calls
  std::vector<double> Vals;    ///< packed / decoded payload values
  std::vector<int64_t> Flats;  ///< decoded payload flat indices

  spmd::RunResult Result;

  void execNode(const spmd::PlanNode &N);
  void execCompute(const spmd::PlanNode &N);
  void execSend(const spmd::PlanNode &N);
  void execRecv(const spmd::PlanNode &N);
  void execReduce(const spmd::PlanNode &N);
  void finish(); ///< flush, FIN barrier, leftover-message check

  void violation(const std::string &Msg);
  /// Moves the core's buffered violations and statement count into Result.
  void drain();
};

} // namespace rt
} // namespace dhpf

#endif // DHPF_RT_RANKENGINE_H
