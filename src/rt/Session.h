//===- rt/Session.h - Shared program/semantics resolution ----------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decisions every executor front end makes identically before running
/// a compiled program: mapping a requested processor count onto the
/// program's grid, and attaching runnable semantics — the registered
/// benchmark's Setup when the program is a canonical export, else the
/// deterministic generic semantics. `dhpfc run`, `dhpfc launch`, and the
/// per-rank `dhpf_rt` all resolve through here, so a distributed run is
/// configured bit-identically to the in-process engines it is compared
/// against.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_RT_SESSION_H
#define DHPF_RT_SESSION_H

#include "apps/Registry.h"
#include "spmd/Interp.h"
#include "spmd/SpmdProgram.h"

#include <optional>
#include <string>
#include <vector>

namespace dhpf {
namespace rt {

struct SessionOptions {
  int64_t NumProcs = 4;           ///< -p: total processors
  std::vector<int64_t> ProcShape; ///< --procs: explicit extents (wins)
  std::map<std::string, int64_t> Params;
  bool CheckValidity = true;
  /// --place: pick the processor shape with the placement cost model
  /// (comm-set traffic pricing) instead of the registry's hand-picked
  /// shape. An explicit ProcShape still wins.
  bool UsePlacement = false;
};

/// A program ready to execute: resolved processor shape, run
/// configuration, and the semantics source.
struct Session {
  std::string ProgName;
  spmd::RunConfig Config;        ///< ProcExtents/Params/CheckValidity set
  std::vector<int64_t> Shape;    ///< resolved extents (empty: all fixed)
  const apps::RegistryEntry *Reg = nullptr; ///< null if not a benchmark
  bool Canonical = false; ///< program matches the canonical export

  /// Registers semantics and seeds arrays on any executor: the canonical
  /// benchmark Setup, or the generic deterministic semantics.
  void setup(const spmd::SpmdProgram &SP, spmd::ProgramHost &H) const;
};

/// Checks that every name in \p Params is a declared parameter of \p SP.
/// On failure \p Err names the first unknown parameter.
bool checkParams(const spmd::SpmdProgram &SP,
                 const std::map<std::string, int64_t> &Params,
                 std::string &Err);

/// Resolves shape + semantics for \p SP. Returns std::nullopt and fills
/// \p Err when a parameter is unknown or the processor count cannot be
/// mapped onto the grid.
std::optional<Session> resolveSession(const spmd::SpmdProgram &SP,
                                      const SessionOptions &Opts,
                                      std::string &Err);

} // namespace rt
} // namespace dhpf

#endif // DHPF_RT_SESSION_H
