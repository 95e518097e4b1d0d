//===- bench/TableUtil.h - Shared reporting for the bench binaries -------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#ifndef DHPF_BENCH_TABLEUTIL_H
#define DHPF_BENCH_TABLEUTIL_H

#include "core/Compiler.h"

#include <cstdio>
#include <string>
#include <vector>

namespace dhpf {
namespace bench {

/// One compile-time column of the Table 1 report.
struct CompileColumn {
  std::string Name;
  const PhaseTimers *Timers = nullptr;
};

/// Prints the Table 1 layout: wall-clock total plus each phase's share.
inline void printTable1(const std::vector<CompileColumn> &Cols) {
  auto Pct = [](const PhaseTimers &T, const char *Phase) {
    double Tot = T.seconds(core::phase::Total);
    return Tot > 0 ? 100.0 * T.seconds(Phase) / Tot : 0.0;
  };
  std::printf("%-42s", "Breakdown of compilation time");
  for (const CompileColumn &C : Cols)
    std::printf(" | %10s", C.Name.c_str());
  std::printf("\n");
  std::printf("%-42s", "total compilation wall-clock time (s)");
  for (const CompileColumn &C : Cols)
    std::printf(" | %9.2fs", C.Timers->seconds(core::phase::Total));
  std::printf("\n");
  const char *Rows[] = {
      core::phase::Interproc,      core::phase::Partitioning,
      core::phase::LoopSplitting,  core::phase::BoundsReduction,
      core::phase::CommGeneration, core::phase::CommEquations,
      core::phase::CommLoops,      core::phase::ContigCheck,
      core::phase::RectCheck,      core::phase::OptGenerated,
      core::phase::MMCodegen,
  };
  for (const char *Row : Rows) {
    std::printf("%-42s", Row);
    for (const CompileColumn &C : Cols) {
      // "communication generation" aggregates its sub-phases.
      double P = Pct(*C.Timers, Row);
      if (std::string(Row) == core::phase::CommGeneration)
        P += Pct(*C.Timers, core::phase::CommEquations) +
             Pct(*C.Timers, core::phase::CommLoops) +
             Pct(*C.Timers, core::phase::ContigCheck) +
             Pct(*C.Timers, core::phase::RectCheck);
      std::printf(" | %9.1f%%", P);
    }
    std::printf("\n");
  }
}

/// One subject's before/after measurement for the machine-readable report.
struct SubjectResult {
  std::string Name;
  double BaselineSecs = 0;             ///< cache+fast paths off, sequential
  const core::CompileOutput *Opt = nullptr; ///< cache+fast-path compile
};

/// Writes the Table 1 results as JSON (one object per subject with the
/// baseline/optimized totals, per-phase seconds of the optimized run, and
/// the cache/fast-path counters). Consumed by scripts; keep keys stable.
inline void writeTable1Json(const char *Path,
                            const std::vector<SubjectResult> &Subjects) {
  std::FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::fprintf(stderr, "cannot write %s\n", Path);
    return;
  }
  const char *Phases[] = {
      core::phase::Total,          core::phase::Interproc,
      core::phase::Partitioning,   core::phase::LoopSplitting,
      core::phase::BoundsReduction, core::phase::CommGeneration,
      core::phase::CommEquations,  core::phase::CommLoops,
      core::phase::ContigCheck,    core::phase::RectCheck,
      core::phase::OptGenerated,   core::phase::MMCodegen,
  };
  std::fprintf(F, "{\n  \"bench\": \"table1_compile_time\",\n"
                  "  \"subjects\": [\n");
  for (size_t I = 0; I != Subjects.size(); ++I) {
    const SubjectResult &S = Subjects[I];
    double OptSecs = S.Opt->Timers.seconds(core::phase::Total);
    std::fprintf(F, "    {\n      \"name\": \"%s\",\n", S.Name.c_str());
    std::fprintf(F, "      \"baseline_s\": %.6f,\n", S.BaselineSecs);
    std::fprintf(F, "      \"optimized_s\": %.6f,\n", OptSecs);
    std::fprintf(F, "      \"speedup\": %.3f,\n",
                 OptSecs > 0 ? S.BaselineSecs / OptSecs : 0.0);
    std::fprintf(F, "      \"threads\": %u,\n", S.Opt->ThreadsUsed);
    std::fprintf(F, "      \"comm_events\": %u,\n", S.Opt->NumCommEvents);
    std::fprintf(F, "      \"split_nests\": %u,\n", S.Opt->NumSplitNests);
    std::fprintf(F, "      \"contiguous_msgs\": %u,\n",
                 S.Opt->NumContiguousProven);
    const pset::CacheStats &CS = S.Opt->Cache;
    std::fprintf(F,
                 "      \"cache\": {\"hits\": %llu, \"misses\": %llu, "
                 "\"evictions\": %llu, \"hit_rate\": %.4f, "
                 "\"fast_empty_bbox\": %llu, \"fast_disjoint_bbox\": %llu, "
                 "\"fast_subset_fp\": %llu, \"dup_rows_removed\": %llu, "
                 "\"fast_implied_atom\": %llu, \"intern_lookups\": %llu, "
                 "\"intern_hits\": %llu, \"intern_entries\": %llu, "
                 "\"intern_rows\": %llu},\n",
                 static_cast<unsigned long long>(CS.Hits),
                 static_cast<unsigned long long>(CS.Misses),
                 static_cast<unsigned long long>(CS.Evictions),
                 CS.hitRate(),
                 static_cast<unsigned long long>(CS.FastEmptyBBox),
                 static_cast<unsigned long long>(CS.FastDisjointBBox),
                 static_cast<unsigned long long>(CS.FastSubsetFP),
                 static_cast<unsigned long long>(CS.DupRowsRemoved),
                 static_cast<unsigned long long>(CS.FastImpliedAtom),
                 static_cast<unsigned long long>(CS.InternLookups),
                 static_cast<unsigned long long>(CS.InternHits),
                 static_cast<unsigned long long>(CS.InternEntries),
                 static_cast<unsigned long long>(CS.InternRows));
    std::fprintf(F, "      \"phases_s\": {");
    for (size_t P = 0; P != sizeof(Phases) / sizeof(Phases[0]); ++P)
      std::fprintf(F, "%s\"%s\": %.6f", P ? ", " : "", Phases[P],
                   S.Opt->Timers.seconds(Phases[P]));
    std::fprintf(F, "}\n    }%s\n", I + 1 != Subjects.size() ? "," : "");
  }
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
}

} // namespace bench
} // namespace dhpf

#endif // DHPF_BENCH_TABLEUTIL_H
