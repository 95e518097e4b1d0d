//===- coll/Collective.h - Reduction collectives over a Transport ---------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Collective algorithms for the distributed runtime's scalar reductions:
/// naive gather/broadcast through rank 0 (the historical RankEngine path)
/// and recursive doubling, selected by DHPF_COLL=naive|rdbl|auto.
///
/// Bit-identicality is the design constraint: every engine (and the paper's
/// simulated machine) combines reduction contributions *in rank order
/// 0..P-1 starting from the identity*, and floating-point combining is not
/// associative — a ring or tree that combined partial sums along its data
/// path would produce different bits per algorithm. So every algorithm
/// here moves the *raw per-rank contributions* (an allgather / gather +
/// broadcast pattern) and performs the combine locally in the canonical
/// order. The algorithms therefore differ only in their message schedule —
/// which is exactly what the CollStats counters measure:
///
///   max per-rank messages, P ranks, scalar payloads:
///     naive  2(P-1)        (rank 0 is the bottleneck)
///     rdbl   2·ceil(lg P)  (pairwise exchange, contribution lists)
///
/// `auto` resolves to rdbl for P >= 4 and naive below (at P <= 3 the
/// schedules coincide or the naive path is strictly smaller).
///
/// The logical RunResult::Messages accounting (P messages per collective,
/// mirroring sim::Machine::allReduce) is unchanged by the algorithm choice;
/// CollStats counts the *physical* frames the chosen schedule actually
/// posts and receives.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_COLL_COLLECTIVE_H
#define DHPF_COLL_COLLECTIVE_H

#include "net/Net.h"

#include <memory>
#include <string>

namespace dhpf {
namespace coll {

enum class Algo : uint8_t { Naive, Rdbl, Auto };

/// Parses "naive"|"rdbl"|"auto"; throws net::TransportError
/// on anything else (a typo must not silently change the schedule).
Algo parseAlgo(const std::string &Name);

/// DHPF_COLL, defaulting to Auto when unset or empty.
Algo algoFromEnv();

/// Resolves Auto for a mesh of \p NP ranks; other values pass through.
Algo resolveAlgo(Algo A, unsigned NP);

const char *algoName(Algo A);

/// The reduction combine operators the SPMD programs use.
enum class Op : uint8_t { Sum, Max };

/// Physical schedule counters for one rank: frames this rank posted and
/// received inside collectives, and their payload bytes.
struct CollStats {
  uint64_t Messages = 0;
  uint64_t Bytes = 0;
};

/// One reduction-collective schedule. Instances are stateless between
/// calls; one per RankEngine. Every call must be made by all NP ranks with
/// the same arguments (tag discipline: the caller allocates one fresh tag
/// per collective instance, same on every rank).
class Collective {
public:
  virtual ~Collective();

  virtual const char *name() const = 0;

  /// Allreduce of one double: returns op(identity, c_0, c_1, ..., c_{P-1})
  /// combined in rank order — bit-identical across algorithms and to the
  /// in-process engines. \p Tag must be unique to this collective instance.
  virtual double allreduce(net::Transport &T, double Own, Op O,
                           uint64_t Tag, CollStats &St) = 0;
};

/// Creates the schedule for \p A (Auto resolved for \p NP ranks).
std::unique_ptr<Collective> makeCollective(Algo A, unsigned NP);

} // namespace coll
} // namespace dhpf

#endif // DHPF_COLL_COLLECTIVE_H
