//===- rt/RankResult.cpp - Per-rank result dump, parse, and merge --------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "rt/RankResult.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <sstream>
#include <string_view>

using namespace dhpf;
using namespace dhpf::rt;
using namespace dhpf::spmd;

namespace {

uint64_t bitsOf(double D) {
  uint64_t V;
  std::memcpy(&V, &D, 8);
  return V;
}

double doubleOf(uint64_t V) {
  double D;
  std::memcpy(&D, &V, 8);
  return D;
}

/// The rank whose dump carries element \p Flat of \p A: its owner, or
/// rank 0 for replicated and ownerless elements. dumpRank and
/// mergeRankDumps both decide through this one rule, which is what lets
/// a dump carry values without indices.
unsigned reportingRank(const ArrayStore &A, size_t Flat) {
  int32_t Own = A.Owner.empty() ? -1 : A.Owner[Flat];
  return Own < 0 ? 0u : static_cast<unsigned>(Own);
}

/// Appends \p V as exactly 16 lowercase hex digits.
void appendHex(std::string &S, uint64_t V) {
  static const char Digits[] = "0123456789abcdef";
  char Buf[16];
  for (int I = 15; I >= 0; --I, V >>= 4)
    Buf[I] = Digits[V & 15];
  S.append(Buf, 16);
}

std::string hex64(uint64_t V) {
  std::string S;
  appendHex(S, V);
  return S;
}

/// Decodes the 16 hex digits at \p P; false on any non-hex digit.
bool decodeHex16(const char *P, uint64_t &Out) {
  uint64_t V = 0;
  for (int I = 0; I != 16; ++I) {
    char C = P[I];
    unsigned D;
    if (C >= '0' && C <= '9')
      D = C - '0';
    else if (C >= 'a' && C <= 'f')
      D = C - 'a' + 10;
    else if (C >= 'A' && C <= 'F')
      D = C - 'A' + 10;
    else
      return false;
    V = (V << 4) | D;
  }
  Out = V;
  return true;
}

bool parseHex64(const std::string &S, uint64_t &Out) {
  return S.size() == 16 && decodeHex16(S.data(), Out);
}

/// Parses the rest of an "array" line, [\p B, \p E) after "array ":
/// "<name> <count>" then count values of " <16 hex digits>".
bool parseArrayLine(const char *B, const char *E, RankDump &Out,
                    std::string &Why) {
  const char *NameB = B;
  const char *NameE = std::find(NameB, E, ' ');
  size_t N = 0;
  auto [CountE, Ec] = std::from_chars(NameE + (NameE != E), E, N);
  if (NameB == NameE || NameE == E || Ec != std::errc()) {
    Why = "bad array header";
    return false;
  }
  std::string Name(NameB, NameE);
  auto [It, Fresh] = Out.Elems.try_emplace(Name);
  if (!Fresh) {
    Why = "duplicate array '" + Name + "'";
    return false;
  }
  const size_t Have = static_cast<size_t>(E - CountE);
  if (N > Have / 17) {
    Why = "array dump truncated";
    return false;
  }
  if (Have != N * 17) {
    Why = "array '" + Name + "' has more than its " + std::to_string(N) +
          " values";
    return false;
  }
  std::vector<uint64_t> &Vals = It->second;
  Vals.resize(N);
  const char *C = CountE;
  for (size_t I = 0; I != N; ++I, C += 17)
    if (C[0] != ' ' || !decodeHex16(C + 1, Vals[I])) {
      Why = "bad element value";
      return false;
    }
  return true;
}

} // namespace

RankDump rt::dumpRank(const RankEngine &E, const RunResult &R,
                      const net::TransportStats &St) {
  RankDump D;
  D.Rank = E.rank();
  D.NP = E.numProcs();
  D.R = R;
  D.OverlapNum = St.BytesFlushedDuringCompute;
  D.OverlapDen = St.WireBytesSent;
  for (const auto &[Name, V] : R.FinalAccums)
    D.AccumBits[Name] = bitsOf(V);
  for (const auto &[Name, A] : E.arrays()) {
    std::vector<uint64_t> &Out = D.Elems[Name];
    for (size_t F = 0; F != A.size(); ++F)
      if (reportingRank(A, F) == D.Rank)
        Out.push_back(bitsOf(A.at(F)));
  }
  return D;
}

std::string rt::serializeRankDump(const RankDump &D) {
  std::ostringstream OS;
  OS << "rankdump " << D.Rank << " " << D.NP << "\n";
  OS << "stat messages " << D.R.Messages << " bytes " << D.R.Bytes
     << " span " << D.R.SpanCopies << " packed " << D.R.PackedCopies
     << " stmts " << D.R.StmtInstances << " upgrades "
     << D.R.InPlaceRuntimeUpgrades << " collmsgs " << D.R.CollMessages
     << " collbytes " << D.R.CollBytes << "\n";
  OS << "stat elapsed " << hex64(bitsOf(D.R.ElapsedSeconds))
     << " overlapnum " << D.OverlapNum << " overlapden " << D.OverlapDen
     << "\n";
  OS << "valid " << (D.R.Valid ? 1 : 0) << "\n";
  for (const std::string &V : D.R.Violations)
    OS << "viol " << V << "\n";
  for (const auto &[Name, Bits] : D.AccumBits)
    OS << "accum " << Name << " " << hex64(Bits) << "\n";
  std::string S = OS.str();
  size_t Size = S.size() + 4;
  for (const auto &[Name, Vals] : D.Elems)
    Size += 32 + Name.size() + Vals.size() * 17;
  S.reserve(Size);
  for (const auto &[Name, Vals] : D.Elems) {
    S += "array ";
    S += Name;
    S += ' ';
    S += std::to_string(Vals.size());
    for (uint64_t Bits : Vals) {
      S += ' ';
      appendHex(S, Bits);
    }
    S += '\n';
  }
  S += "end\n";
  return S;
}

bool rt::parseRankDump(const std::string &Text, RankDump &Out,
                       std::string &Err) {
  Out = RankDump();
  bool SawHeader = false, SawEnd = false;
  int LineNo = 0;
  auto Fail = [&](const std::string &Why) {
    Err = "rank dump line " + std::to_string(LineNo) + ": " + Why;
    return false;
  };
  static constexpr std::string_view ArrayTok = "array ";
  for (size_t Pos = 0; Pos < Text.size();) {
    size_t Eol = std::min(Text.find('\n', Pos), Text.size());
    const char *B = Text.data() + Pos, *E = Text.data() + Eol;
    Pos = Eol + 1;
    ++LineNo;
    if (B == E)
      continue;
    std::string_view Line(B, E - B);
    if (Line.starts_with(ArrayTok)) {
      std::string Why;
      if (!parseArrayLine(B + ArrayTok.size(), E, Out, Why))
        return Fail(Why);
      continue;
    }
    std::istringstream LS{std::string(Line)};
    std::string Tok;
    LS >> Tok;
    if (Tok == "rankdump") {
      if (!(LS >> Out.Rank >> Out.NP) || Out.NP == 0 || Out.Rank >= Out.NP)
        return Fail("bad header");
      SawHeader = true;
    } else if (Tok == "stat") {
      std::string Key;
      while (LS >> Key) {
        if (Key == "elapsed") {
          std::string Hex;
          uint64_t Bits;
          if (!(LS >> Hex) || !parseHex64(Hex, Bits))
            return Fail("bad elapsed");
          Out.R.ElapsedSeconds = doubleOf(Bits);
          continue;
        }
        uint64_t V;
        if (!(LS >> V))
          return Fail("bad stat value for " + Key);
        if (Key == "messages")
          Out.R.Messages = V;
        else if (Key == "bytes")
          Out.R.Bytes = V;
        else if (Key == "span")
          Out.R.SpanCopies = V;
        else if (Key == "packed")
          Out.R.PackedCopies = V;
        else if (Key == "stmts")
          Out.R.StmtInstances = V;
        else if (Key == "upgrades")
          Out.R.InPlaceRuntimeUpgrades = static_cast<unsigned>(V);
        else if (Key == "collmsgs")
          Out.R.CollMessages = V;
        else if (Key == "collbytes")
          Out.R.CollBytes = V;
        else if (Key == "overlapnum")
          Out.OverlapNum = V;
        else if (Key == "overlapden")
          Out.OverlapDen = V;
        else
          return Fail("unknown stat key " + Key);
      }
    } else if (Tok == "valid") {
      int V;
      if (!(LS >> V))
        return Fail("bad valid flag");
      Out.R.Valid = V != 0;
    } else if (Tok == "viol") {
      std::string Rest;
      std::getline(LS, Rest);
      if (!Rest.empty() && Rest[0] == ' ')
        Rest.erase(0, 1);
      Out.R.Violations.push_back(Rest);
    } else if (Tok == "accum") {
      std::string Name, Hex;
      uint64_t Bits;
      if (!(LS >> Name >> Hex) || !parseHex64(Hex, Bits))
        return Fail("bad accum");
      Out.AccumBits[Name] = Bits;
      Out.R.FinalAccums[Name] = doubleOf(Bits);
    } else if (Tok == "end") {
      SawEnd = true;
    } else {
      return Fail("unknown directive '" + Tok + "'");
    }
  }
  if (!SawHeader)
    return Fail("missing rankdump header");
  if (!SawEnd)
    return Fail("missing end marker (rank died mid-dump?)");
  return true;
}

bool rt::mergeRankDumps(const SpmdProgram &SP, const RunConfig &Config,
                        const std::vector<RankDump> &Dumps, MergedRun &Out,
                        std::string &Err) {
  ProgramLayout L = resolveLayout(SP, Config);
  if (Dumps.size() != L.NumProcs) {
    Err = "have " + std::to_string(Dumps.size()) + " rank dumps, need " +
          std::to_string(L.NumProcs);
    return false;
  }
  std::vector<const RankDump *> ByRank(L.NumProcs, nullptr);
  for (const RankDump &D : Dumps) {
    if (D.NP != L.NumProcs || D.Rank >= L.NumProcs) {
      Err = "rank dump " + std::to_string(D.Rank) + "/" +
            std::to_string(D.NP) + " does not match the layout";
      return false;
    }
    if (ByRank[D.Rank]) {
      Err = "duplicate dump for rank " + std::to_string(D.Rank);
      return false;
    }
    ByRank[D.Rank] = &D;
  }

  Out.R = RunResult();
  Out.Arrays = buildArrayStores(SP, Config, L);
  uint64_t ONum = 0, ODen = 0;
  for (unsigned P = 0; P != L.NumProcs; ++P) {
    const RankDump &D = *ByRank[P];
    Out.R.Messages += D.R.Messages;
    Out.R.Bytes += D.R.Bytes;
    Out.R.SpanCopies += D.R.SpanCopies;
    Out.R.PackedCopies += D.R.PackedCopies;
    Out.R.StmtInstances += D.R.StmtInstances;
    Out.R.CollMessages += D.R.CollMessages;
    Out.R.CollBytes += D.R.CollBytes;
    Out.MaxRankCollMessages =
        std::max(Out.MaxRankCollMessages, D.R.CollMessages);
    Out.MaxRankCollBytes = std::max(Out.MaxRankCollBytes, D.R.CollBytes);
    Out.R.ElapsedSeconds =
        std::max(Out.R.ElapsedSeconds, D.R.ElapsedSeconds);
    ONum += D.OverlapNum;
    ODen += D.OverlapDen;
    if (!D.R.Valid)
      Out.R.Valid = false;
    for (const std::string &V : D.R.Violations)
      if (Out.R.Violations.size() < 40)
        Out.R.Violations.push_back("rank " + std::to_string(P) + ": " + V);
    // Broadcast values must agree bitwise across ranks.
    if (D.R.InPlaceRuntimeUpgrades !=
        ByRank[0]->R.InPlaceRuntimeUpgrades) {
      Err = "rank " + std::to_string(P) +
            " disagrees on in-place runtime upgrades";
      return false;
    }
    for (const auto &[Name, Bits] : D.AccumBits) {
      auto It = ByRank[0]->AccumBits.find(Name);
      if (It == ByRank[0]->AccumBits.end() || It->second != Bits) {
        Err = "rank " + std::to_string(P) +
              " disagrees on broadcast accumulator '" + Name + "'";
        return false;
      }
    }
    for (const auto &[Name, Vals] : D.Elems)
      if (!Out.Arrays.count(Name)) {
        Err = "rank " + std::to_string(P) + " dumped unknown array '" +
              Name + "'";
        return false;
      }
  }
  // Hand every element the next value of its reporting rank's run.
  std::vector<const std::vector<uint64_t> *> Run(L.NumProcs);
  std::vector<size_t> Cur(L.NumProcs);
  for (auto &[Name, A] : Out.Arrays) {
    for (unsigned P = 0; P != L.NumProcs; ++P) {
      auto It = ByRank[P]->Elems.find(Name);
      if (It == ByRank[P]->Elems.end()) {
        Err = "rank " + std::to_string(P) + " dump is missing array '" +
              Name + "'";
        return false;
      }
      Run[P] = &It->second;
      Cur[P] = 0;
    }
    for (size_t F = 0; F != A.size(); ++F) {
      unsigned R = reportingRank(A, F);
      size_t K = Cur[R]++;
      if (K < Run[R]->size())
        A.at(F) = doubleOf((*Run[R])[K]);
    }
    for (unsigned P = 0; P != L.NumProcs; ++P)
      if (Cur[P] != Run[P]->size()) {
        Err = "rank " + std::to_string(P) + " reports " +
              std::to_string(Run[P]->size()) + " values of array '" + Name +
              "', the layout assigns it " + std::to_string(Cur[P]);
        return false;
      }
  }
  Out.R.InPlaceRuntimeUpgrades = ByRank[0]->R.InPlaceRuntimeUpgrades;
  Out.R.FinalAccums = ByRank[0]->R.FinalAccums;
  Out.R.OverlapRatio = ODen ? double(ONum) / double(ODen) : 0.0;
  return true;
}
