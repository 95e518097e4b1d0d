//===- coll/Collective.cpp - Reduction collectives over a Transport -------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "coll/Collective.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>

using namespace dhpf;
using namespace dhpf::coll;

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

/// The canonical combine every engine shares: identity, then rank order.
double combineByRank(const std::vector<double> &ByRank, Op O) {
  double Acc = O == Op::Max ? -std::numeric_limits<double>::infinity() : 0.0;
  for (double V : ByRank)
    Acc = O == Op::Max ? std::max(Acc, V) : Acc + V;
  return Acc;
}

void post8(net::Transport &T, unsigned Dst, uint64_t Tag, double V,
           CollStats &St) {
  uint64_t Bits = bitsOf(V);
  net::ByteSpan S{&Bits, 8};
  T.post(Dst, Tag, &S, 1);
  ++St.Messages;
  St.Bytes += 8;
}

double recv8(net::Transport &T, unsigned Src, uint64_t Tag, CollStats &St) {
  std::vector<uint8_t> Pay = T.recv(Src, Tag);
  if (Pay.size() != 8)
    throw net::TransportError("rank " + std::to_string(T.rank()) +
                              ": malformed collective contribution from "
                              "rank " +
                              std::to_string(Src));
  ++St.Messages;
  St.Bytes += 8;
  uint64_t Bits;
  std::memcpy(&Bits, Pay.data(), 8);
  return doubleOf(Bits);
}

/// Contribution lists travel as: u32 count, then per entry u32 rank +
/// u64 value bits (little-endian memcpy, matching the frame codec).
void encodeList(const std::vector<std::pair<uint32_t, uint64_t>> &L,
                std::vector<uint8_t> &Out) {
  Out.clear();
  Out.resize(4 + L.size() * 12);
  uint32_t N = static_cast<uint32_t>(L.size());
  std::memcpy(Out.data(), &N, 4);
  uint8_t *P = Out.data() + 4;
  for (const auto &[R, Bits] : L) {
    std::memcpy(P, &R, 4);
    std::memcpy(P + 4, &Bits, 8);
    P += 12;
  }
}

std::vector<std::pair<uint32_t, uint64_t>>
decodeList(const std::vector<uint8_t> &Pay, unsigned Me, unsigned Src) {
  auto Malformed = [&]() -> net::TransportError {
    return net::TransportError("rank " + std::to_string(Me) +
                               ": malformed contribution list from rank " +
                               std::to_string(Src));
  };
  if (Pay.size() < 4)
    throw Malformed();
  uint32_t N;
  std::memcpy(&N, Pay.data(), 4);
  if (Pay.size() != 4 + static_cast<size_t>(N) * 12)
    throw Malformed();
  std::vector<std::pair<uint32_t, uint64_t>> L(N);
  const uint8_t *P = Pay.data() + 4;
  for (uint32_t I = 0; I != N; ++I, P += 12) {
    std::memcpy(&L[I].first, P, 4);
    std::memcpy(&L[I].second, P + 4, 8);
  }
  return L;
}

void postList(net::Transport &T, unsigned Dst, uint64_t Tag,
              const std::vector<std::pair<uint32_t, uint64_t>> &L,
              std::vector<uint8_t> &Scratch, CollStats &St) {
  encodeList(L, Scratch);
  net::ByteSpan S{Scratch.data(), Scratch.size()};
  T.post(Dst, Tag, &S, 1);
  ++St.Messages;
  St.Bytes += Scratch.size();
}

std::vector<std::pair<uint32_t, uint64_t>>
recvList(net::Transport &T, unsigned Src, uint64_t Tag, CollStats &St) {
  std::vector<uint8_t> Pay = T.recv(Src, Tag);
  ++St.Messages;
  St.Bytes += Pay.size();
  return decodeList(Pay, T.rank(), Src);
}

/// Turns a complete contribution list into the rank-indexed vector the
/// canonical combine consumes, validating that every rank appears once.
std::vector<double>
byRank(const std::vector<std::pair<uint32_t, uint64_t>> &Held, unsigned NP,
       unsigned Me) {
  std::vector<double> V(NP);
  std::vector<char> Seen(NP, 0);
  for (const auto &[R, Bits] : Held) {
    if (R >= NP || Seen[R])
      throw net::TransportError("rank " + std::to_string(Me) +
                                ": inconsistent collective contribution "
                                "set (rank " +
                                std::to_string(R) + ")");
    Seen[R] = 1;
    V[R] = doubleOf(Bits);
  }
  for (unsigned R = 0; R != NP; ++R)
    if (!Seen[R])
      throw net::TransportError("rank " + std::to_string(Me) +
                                ": collective missing contribution of "
                                "rank " +
                                std::to_string(R));
  return V;
}

/// Gather through rank 0, combine there, broadcast the result — the
/// historical RankEngine reduction, message for message.
class NaiveColl final : public Collective {
public:
  const char *name() const override { return "naive"; }
  double allreduce(net::Transport &T, double Own, Op O, uint64_t Tag,
                   CollStats &St) override {
    unsigned NP = T.size(), P = T.rank();
    if (NP == 1)
      return combineByRank({Own}, O);
    if (P == 0) {
      std::vector<double> ByRank(NP);
      ByRank[0] = Own;
      for (unsigned Q = 1; Q != NP; ++Q)
        ByRank[Q] = recv8(T, Q, Tag, St);
      double Combined = combineByRank(ByRank, O);
      for (unsigned Q = 1; Q != NP; ++Q)
        post8(T, Q, Tag, Combined, St);
      return Combined;
    }
    post8(T, 0, Tag, Own, St);
    return recv8(T, 0, Tag, St);
  }
};

/// Recursive doubling over the power-of-two core: lg(M) pairwise
/// exchanges of growing contribution lists; ranks past the largest power
/// of two fold into (and read back from) their core partner.
class RdblColl final : public Collective {
public:
  const char *name() const override { return "rdbl"; }
  double allreduce(net::Transport &T, double Own, Op O, uint64_t Tag,
                   CollStats &St) override {
    unsigned NP = T.size(), P = T.rank();
    if (NP == 1)
      return combineByRank({Own}, O);
    unsigned M = 1;
    while (M * 2 <= NP)
      M *= 2;
    if (P >= M) {
      post8(T, P - M, Tag, Own, St);
      return recv8(T, P - M, Tag, St);
    }
    std::vector<std::pair<uint32_t, uint64_t>> Held;
    Held.push_back({P, bitsOf(Own)});
    if (P + M < NP)
      Held.push_back({P + M, bitsOf(recv8(T, P + M, Tag, St))});
    std::vector<uint8_t> Scratch;
    for (unsigned D = 1; D < M; D *= 2) {
      unsigned Partner = P ^ D;
      postList(T, Partner, Tag, Held, Scratch, St);
      auto Got = recvList(T, Partner, Tag, St);
      Held.insert(Held.end(), Got.begin(), Got.end());
    }
    double Combined = combineByRank(byRank(Held, NP, P), O);
    if (P + M < NP)
      post8(T, P + M, Tag, Combined, St);
    return Combined;
  }
};

} // namespace

Collective::~Collective() = default;

Algo coll::parseAlgo(const std::string &Name) {
  if (Name == "naive")
    return Algo::Naive;
  if (Name == "rdbl")
    return Algo::Rdbl;
  if (Name == "auto")
    return Algo::Auto;
  throw net::TransportError("DHPF_COLL: unknown collective \"" + Name +
                            "\" (want naive|rdbl|auto)");
}

Algo coll::algoFromEnv() {
  const char *E = std::getenv("DHPF_COLL");
  if (!E || !*E)
    return Algo::Auto;
  return parseAlgo(E);
}

Algo coll::resolveAlgo(Algo A, unsigned NP) {
  if (A != Algo::Auto)
    return A;
  // Below 4 ranks every schedule degenerates to the same two-or-three
  // frame exchange; rdbl's lg-depth schedule wins from 4 up.
  return NP >= 4 ? Algo::Rdbl : Algo::Naive;
}

const char *coll::algoName(Algo A) {
  switch (A) {
  case Algo::Naive:
    return "naive";
  case Algo::Rdbl:
    return "rdbl";
  case Algo::Auto:
    return "auto";
  }
  return "?";
}

std::unique_ptr<Collective> coll::makeCollective(Algo A, unsigned NP) {
  switch (resolveAlgo(A, NP)) {
  case Algo::Rdbl:
    return std::make_unique<RdblColl>();
  case Algo::Naive:
  case Algo::Auto:
    break;
  }
  return std::make_unique<NaiveColl>();
}
