//===- bench_e2e/layers.cpp - Span self times from Chrome traces ---------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "layers.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <tuple>

using namespace bench;

namespace {

/// The value of `"Key": ` on \p Line: a JSON string body (no unescaping
/// beyond dropping backslashes; span names carry no quotes) or a number.
bool field(const std::string &Line, const char *Key, std::string &Out) {
  std::string Pat = std::string("\"") + Key + "\": ";
  size_t P = Line.find(Pat);
  if (P == std::string::npos)
    return false;
  P += Pat.size();
  if (P < Line.size() && Line[P] == '"') {
    Out.clear();
    for (size_t I = P + 1; I < Line.size() && Line[I] != '"'; ++I) {
      if (Line[I] == '\\' && I + 1 < Line.size())
        ++I;
      Out += Line[I];
    }
    return true;
  }
  size_t E = Line.find_first_of(",}", P);
  Out = Line.substr(P, E == std::string::npos ? std::string::npos : E - P);
  return true;
}

uint64_t num(const std::string &S) {
  return std::strtoull(S.c_str(), nullptr, 10);
}

bool startsWith(const std::string &S, const char *Prefix) {
  return S.rfind(Prefix, 0) == 0;
}

} // namespace

std::vector<Span> bench::parseChromeSpans(const std::string &Doc) {
  std::vector<Span> Out;
  std::istringstream IS(Doc);
  std::string Line, V;
  while (std::getline(IS, Line)) {
    if (!field(Line, "ph", V) || V != "X")
      continue;
    Span S;
    if (!field(Line, "name", S.Name))
      continue;
    if (field(Line, "ts", V))
      S.TsUs = num(V);
    if (field(Line, "dur", V))
      S.DurUs = num(V);
    if (field(Line, "pid", V))
      S.Pid = static_cast<uint32_t>(num(V));
    if (field(Line, "tid", V))
      S.Tid = static_cast<uint32_t>(num(V));
    Out.push_back(std::move(S));
  }
  return Out;
}

void bench::computeSelfTimes(std::vector<Span> &Spans) {
  // Parents sort before their children: same thread, earlier start, and
  // on a tied start the longer span first.
  std::vector<size_t> Order(Spans.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    const Span &X = Spans[A], &Y = Spans[B];
    return std::make_tuple(X.Pid, X.Tid, X.TsUs, ~X.DurUs) <
           std::make_tuple(Y.Pid, Y.Tid, Y.TsUs, ~Y.DurUs);
  });
  std::vector<size_t> Stack;
  for (size_t I : Order) {
    Span &S = Spans[I];
    S.SelfUs = S.DurUs;
    while (!Stack.empty()) {
      const Span &Top = Spans[Stack.back()];
      bool Contains = Top.Pid == S.Pid && Top.Tid == S.Tid &&
                      S.TsUs >= Top.TsUs &&
                      S.TsUs + S.DurUs <= Top.TsUs + Top.DurUs;
      if (Contains)
        break;
      Stack.pop_back();
    }
    if (!Stack.empty()) {
      Span &Parent = Spans[Stack.back()];
      Parent.SelfUs -= std::min(Parent.SelfUs, S.DurUs);
    }
    Stack.push_back(I);
  }
}

RankLayers bench::rankLayers(const std::vector<Span> &RankSpans) {
  RankLayers L;
  for (const Span &S : RankSpans) {
    double Self = static_cast<double>(S.SelfUs) * 1e-6;
    double Dur = static_cast<double>(S.DurUs) * 1e-6;
    if (S.Name == "rank:run") {
      L.RunS += Dur;
      L.RunSelfS += Self;
    } else if (S.Name == "rank:finish") {
      L.FinishS += Dur;
    } else if (startsWith(S.Name, "compute:")) {
      L.ComputeS += Self;
    } else if (S.Name == "send") {
      L.SendS += Self;
    } else if (S.Name == "recv") {
      L.RecvS += Self;
    } else if (startsWith(S.Name, "reduce:")) {
      L.ReduceS += Self;
    } else if (startsWith(S.Name, "native:")) {
      L.NativeS += Self;
    }
  }
  return L;
}
