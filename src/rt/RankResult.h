//===- rt/RankResult.h - Per-rank result dump, parse, and merge ----------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The result a rank process reports back to the launcher, and the merge
/// that reassembles a RunResult bit-identical to the in-process engines.
/// Doubles travel as 64-bit hex bit patterns — never through decimal
/// formatting — so the merged arrays and accumulators compare bitwise.
///
/// A dump is line-oriented text:
///
///   rankdump <rank> <np>
///   stat ...                      counters, elapsed bits, overlap terms
///   valid <0|1>
///   viol <message>                one per recorded violation
///   accum <name> <hex>            one per accumulator
///   array <name> <count> <hex> <hex> ...
///   end
///
/// An array line carries only values — each a space and 16 hex digits —
/// for the elements this rank reports, in flat order: the elements it
/// owns, and on rank 0 also the replicated and ownerless ones (which
/// replicated computation keeps identical on every rank). No indices
/// travel: the merge rebuilds the same Owner map from the layout and
/// hands each element the next value from its reporting rank's run, the
/// way the paper's sender and receiver both enumerate one comm set. Per-
/// rank counters sum to the in-process totals; the overlap ratio merges
/// from wire-byte numerators and denominators.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_RT_RANKRESULT_H
#define DHPF_RT_RANKRESULT_H

#include "rt/RankEngine.h"
#include "spmd/Interp.h"

#include <map>
#include <string>
#include <vector>

namespace dhpf {
namespace rt {

/// Everything one rank reports: its rank-local RunResult, the overlap
/// fraction's wire-byte terms, and bit dumps of accumulators and of the
/// array elements the rank reports.
struct RankDump {
  unsigned Rank = 0;
  unsigned NP = 0;
  spmd::RunResult R;
  uint64_t OverlapNum = 0; ///< wire bytes flushed during compute
  uint64_t OverlapDen = 0; ///< wire bytes sent in total
  std::map<std::string, uint64_t> AccumBits;
  /// Per array, the bit patterns of the elements this rank reports, in
  /// flat order.
  std::map<std::string, std::vector<uint64_t>> Elems;
};

/// Captures a finished engine's state as a dump.
RankDump dumpRank(const RankEngine &E, const spmd::RunResult &R,
                  const net::TransportStats &St);

std::string serializeRankDump(const RankDump &D);

/// Parses a dump; false (with \p Err set) on malformed input.
bool parseRankDump(const std::string &Text, RankDump &Out, std::string &Err);

/// A reassembled distributed run: the merged result plus full arrays.
struct MergedRun {
  spmd::RunResult R;
  std::map<std::string, spmd::ArrayStore> Arrays;
  /// Bottleneck view of the collective schedule: the largest per-rank
  /// CollMessages/CollBytes (R.CollMessages/CollBytes hold the sums).
  /// This is where recursive doubling beats the naive gather — the naive
  /// root moves 2(P-1) frames while rdbl's worst rank moves 2·ceil(lg P).
  uint64_t MaxRankCollMessages = 0;
  uint64_t MaxRankCollBytes = 0;
};

/// Merges one dump per rank. False (with \p Err) when dumps are missing,
/// inconsistent, or disagree on broadcast values, and — naming the rank
/// and the array — when a dump lacks an array of the program, names an
/// unknown one, or reports a different number of values than the layout
/// assigns it.
bool mergeRankDumps(const spmd::SpmdProgram &SP,
                    const spmd::RunConfig &Config,
                    const std::vector<RankDump> &Dumps, MergedRun &Out,
                    std::string &Err);

} // namespace rt
} // namespace dhpf

#endif // DHPF_RT_RANKRESULT_H
