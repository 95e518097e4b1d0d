//===- placement/Placement.h - Comm-set-driven processor placement --------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's comm sets describe *exactly* which elements every rank
/// sends to every other rank — so the byte volume of a candidate
/// (processor shape × distribution) is computable before anything runs.
/// This subsystem turns that into a placement search:
///
///   TrafficMatrix   per-(src,dst) message/byte counts obtained by
///                   enumerating each event's send comm set per rank under
///                   a concrete shape binding — the *same* per-partner
///                   lists (spmd::RankCore::lists) the runtime's execSend
///                   posts, so estimated counts equal the measured
///                   RunResult counters exactly.
///   priceTraffic    a bottleneck cost: the worst rank's α·messages +
///                   β·bytes, plus the reduce critical path.
///   searchShapes    every factorization of P over the program's
///                   processor grid, priced and ranked.
///
/// Because the processor shape is a run-time binding of the compiled
/// program (ProcExtents), the search needs no recompilation — one compile,
/// many priced shapes. `dhpfc place` exposes the table; rt::resolveSession
/// consults bestShape() when placement is requested, replacing the
/// hand-picked per-app shapes in apps/Registry.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_PLACEMENT_PLACEMENT_H
#define DHPF_PLACEMENT_PLACEMENT_H

#include "spmd/Interp.h"
#include "spmd/SpmdProgram.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dhpf {
namespace placement {

/// Exact predicted traffic for one (program, shape, params) binding.
struct TrafficMatrix {
  unsigned NP = 0;
  std::vector<uint64_t> Msgs;  ///< NP×NP, [src*NP+dst] point-to-point
  std::vector<uint64_t> Bytes; ///< NP×NP payload bytes
  uint64_t ReduceInstances = 0;

  uint64_t &msgs(unsigned S, unsigned D) { return Msgs[S * NP + D]; }
  uint64_t &bytes(unsigned S, unsigned D) { return Bytes[S * NP + D]; }
  uint64_t msgs(unsigned S, unsigned D) const { return Msgs[S * NP + D]; }
  uint64_t bytes(unsigned S, unsigned D) const { return Bytes[S * NP + D]; }

  /// Totals under the runtime's logical accounting: point-to-point
  /// messages plus P per reduce instance (mirroring Machine::allReduce);
  /// reduces contribute no payload bytes.
  uint64_t totalMessages() const;
  uint64_t totalBytes() const;
  /// The bottleneck rank's sent+received payload bytes.
  uint64_t maxRankBytes() const;
  uint64_t maxRankMessages() const;
};

/// Lowers the compiled program under \p RC's bindings and walks each
/// rank's plan, counting every Send event's per-partner lists — execSend's
/// lists without the data movement. Exact by construction: the property tests hold
/// totalMessages()/totalBytes() equal to the measured RunResult counters.
TrafficMatrix estimateTraffic(const spmd::SpmdProgram &SP,
                              const spmd::RunConfig &RC);

/// Latency/bandwidth terms for pricing (defaults: the SP-2-like machine
/// the Figure 7 benches use).
struct MachineCost {
  double Alpha = 80e-6;       ///< seconds per message
  double BetaPerByte = 25e-9; ///< seconds per payload byte
};

/// Prices a matrix: worst rank's α·msgs + β·bytes (sent + received), plus
/// 2·ceil(lg P)·α per reduce instance (the collective critical path).
double priceTraffic(const TrafficMatrix &TM, const MachineCost &C);

struct Candidate {
  std::vector<int64_t> Shape;
  TrafficMatrix Traffic;
  double Cost = 0;
};

/// Every factorization of \p NumProcs over the program's processor grid
/// (fixed dimensions keep their extent and must divide \p NumProcs),
/// priced under \p C and sorted best-first; ties break toward fewer total
/// bytes, then lexicographically smaller shapes (deterministic output).
/// Empty when \p NumProcs cannot be laid on the grid.
std::vector<Candidate> searchShapes(const spmd::SpmdProgram &SP,
                                    int64_t NumProcs,
                                    const std::map<std::string, int64_t>
                                        &Params,
                                    const MachineCost &C);

/// The winning shape from searchShapes; empty when no shape fits.
std::vector<int64_t> bestShape(const spmd::SpmdProgram &SP,
                               int64_t NumProcs,
                               const std::map<std::string, int64_t> &Params);

} // namespace placement
} // namespace dhpf

#endif // DHPF_PLACEMENT_PLACEMENT_H
