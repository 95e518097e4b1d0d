//===- bench_e2e/layers.h - Span self times from Chrome traces -----------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns the spans the program already records (obs::TraceBuffer, written
/// as Chrome trace JSON by the driver and by every rank) into per-layer
/// self times: a span's duration minus the part of it that spans nested
/// inside it on the same lane and thread cover.
///
//===----------------------------------------------------------------------===//

#ifndef DHPF_BENCH_E2E_LAYERS_H
#define DHPF_BENCH_E2E_LAYERS_H

#include <cstdint>
#include <string>
#include <vector>

namespace bench {

struct Span {
  std::string Name;
  uint64_t TsUs = 0;
  uint64_t DurUs = 0;
  uint32_t Pid = 0;
  uint32_t Tid = 0;
  uint64_t SelfUs = 0; ///< filled by computeSelfTimes
};

/// The complete ('X') events of one chromeJson() document. The format is
/// the one dhpf::obs::TraceBuffer writes: one event object per line.
std::vector<Span> parseChromeSpans(const std::string &Doc);

/// Fills Span::SelfUs for every span: duration minus the durations of its
/// direct children (spans on the same pid/tid that it contains).
void computeSelfTimes(std::vector<Span> &Spans);

/// Self-time breakdown of one rank process's lane.
struct RankLayers {
  double RunS = 0;      ///< rank:run duration
  double FinishS = 0;   ///< rank:finish duration
  double ComputeS = 0;  ///< compute:* self time
  double SendS = 0;     ///< send self time
  double RecvS = 0;     ///< recv self time (waiting for data)
  double ReduceS = 0;   ///< reduce:* self time (collectives)
  double RunSelfS = 0;  ///< rank:run time outside every child span
  double NativeS = 0;   ///< native:* (kernel emit/compile/dlopen) self time
};

RankLayers rankLayers(const std::vector<Span> &RankSpans);

} // namespace bench

#endif // DHPF_BENCH_E2E_LAYERS_H
