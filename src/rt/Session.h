//===- rt/Session.h - The one run-binding front end -----------------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The run binding every executor front end resolves identically. A
/// program is compiled once for a symbolic processor count (§4 VP model);
/// processor grid, parameters, placement, engine and validity checking are
/// bound only when the node program runs. Here live the one strict parser
/// and encoder of those session flags (used by `dhpfc`, `dhpf_rt`, the
/// launcher's rank argv and the daemon's run request), resolveSession
/// (grid mapping plus semantics: the registered benchmark's Setup for a
/// canonical export, else deterministic generic semantics), runSession
/// (interpret, then the reference check) and runSummary (the one
/// rendering of a run's deterministic fields).
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_RT_SESSION_H
#define DHPF_RT_SESSION_H

#include "apps/Registry.h"
#include "spmd/Interp.h"
#include "spmd/SpmdProgram.h"
#include "support/Diag.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace dhpf {
namespace rt {

/// The run binding, as the session flags spell it.
struct SessionOptions {
  int64_t NumProcs = 4;           ///< -p N: total processors
  std::vector<int64_t> ProcShape; ///< --procs=a,b,..: explicit extents (wins)
  std::map<std::string, int64_t> Params; ///< --param=name=value
  bool CheckValidity = true;             ///< cleared by --no-validity
  /// --place: pick the processor shape with the placement cost model
  /// (comm-set traffic pricing) instead of the registry's hand-picked
  /// shape. An explicit ProcShape still wins.
  bool UsePlacement = false;
  /// --engine=tree|bytecode|native|auto; Auto consults DHPF_SPMD_ENGINE.
  spmd::EngineKind Engine = spmd::EngineKind::Auto;
};

/// Strict decimal integer: the whole of \p S, no overflow.
bool parseInt(const std::string &S, int64_t &Out);

/// True when \p Arg is \p Prefix followed by a value, stored in \p Out.
bool flagValue(const std::string &Arg, const std::string &Prefix,
               std::string &Out);

/// The engine's flag spelling ("auto", "tree", "bytecode", "native").
const char *engineName(spmd::EngineKind E);

/// What the session parser made of one argument.
enum class SessionArg {
  NotSession, ///< not a session flag; the caller handles it
  Taken,      ///< stored in the options
  Bad,        ///< a session flag with a malformed value; Err names it
};

/// Offers Args[I] to the session parser. `-p` takes Args[I+1] as its
/// value and advances \p I past it.
SessionArg parseSessionArg(const std::vector<std::string> &Args, size_t &I,
                           SessionOptions &SO, std::string &Err);

/// Parses a list that must hold session flags only (the daemon's run
/// request). False with \p Err naming the first bad argument.
bool parseSessionArgs(const std::vector<std::string> &Args,
                      SessionOptions &SO, std::string &Err);

/// The flags that parse back to \p SO; fields at their default are left
/// out.
std::vector<std::string> encodeSessionArgs(const SessionOptions &SO);

/// Parses a serialized program for execution and wires the runtime
/// contiguity check (§3.3) the serialized form cannot carry. Null, with
/// the diagnostics in \p Diags, on malformed input.
std::unique_ptr<spmd::SpmdProgram> loadSpmd(const std::string &Text,
                                            const std::string &Name,
                                            DiagnosticEngine &Diags);

/// A program ready to execute: resolved processor shape, run
/// configuration, and the semantics source.
struct Session {
  std::string ProgName;
  /// ProcExtents, Params, CheckValidity, and the Engine resolved once here
  /// (never Auto), so every process of a run uses the same one.
  spmd::RunConfig Config;
  std::vector<int64_t> Shape;    ///< resolved extents (empty: all fixed)
  const apps::RegistryEntry *Reg = nullptr; ///< null if not a benchmark
  bool Canonical = false; ///< program matches the canonical export

  /// Registers semantics and seeds arrays on any executor: the canonical
  /// benchmark Setup, or the generic deterministic semantics.
  void setup(const spmd::SpmdProgram &SP, spmd::ProgramHost &H) const;

  /// Options that resolve to this same session on any process: the
  /// resolved shape spelled out, so no rank re-runs placement or the
  /// registry's mapping.
  SessionOptions pinned() const;
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

/// Outcome of the canonical benchmark's reference check.
struct CheckVerdict {
  enum Kind : uint8_t { Skipped, Ok, Failed };
  static constexpr const char *Names[] = {"skipped", "ok", "failed"};
  Kind K = Skipped;
  std::string Why; ///< the check's diagnostic when Failed
};

/// A finished in-process run of a session.
struct SessionRun {
  std::unique_ptr<spmd::Interpreter> Interp; ///< holds the final arrays
  spmd::RunResult R;
  CheckVerdict Check;
};

/// Interprets \p SP under \p S; with \p Check, then runs the registered
/// benchmark's reference check when the program is its canonical export
/// (otherwise the verdict is Skipped). \p SP must outlive the result.
SessionRun runSession(const spmd::SpmdProgram &SP, const Session &S,
                      bool Check);

/// Wall-clock-free rendering of a run's deterministic fields, one
/// `<field> <value>` line each: counters, validity, violations and
/// accumulators as exact bit patterns. Equal strings <=> the runs agreed
/// bit for bit on every deterministic output.
std::string runSummary(const spmd::RunResult &RR);

} // namespace rt
} // namespace dhpf

#endif // DHPF_RT_SESSION_H
