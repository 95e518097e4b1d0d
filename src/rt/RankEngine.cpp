//===- rt/RankEngine.cpp - Single-rank distributed executor --------------===//
//
// Part of dhpf-sets (PLDI 1998 dHPF reproduction).
//
//===----------------------------------------------------------------------===//

#include "rt/RankEngine.h"

#include "spmd/ExecPlan.h"

#include <chrono>
#include <cstring>

using namespace dhpf;
using namespace dhpf::rt;
using namespace dhpf::spmd;

namespace {

/// Tag spaces: comm events use their event id; reductions and the
/// shutdown barrier live above every possible event id.
constexpr uint64_t ReduceTagBase = 1ull << 32;
constexpr uint64_t FinTag = 1ull << 33;

/// Wire payload of one comm-event message:
///   u8 kind (1 = contiguous span, 0 = packed)
///   u64 count
///   kind 1: i64 base, then count raw doubles
///   kind 0: count sorted i64 flat indices, then count raw doubles
constexpr uint8_t KindPacked = 0;
constexpr uint8_t KindContig = 1;

uint8_t *putU64(uint8_t *B, uint64_t V) {
  std::memcpy(B, &V, 8);
  return B + 8;
}

} // namespace

RankEngine::RankEngine(const SpmdProgram &ProgIn, RankConfig ConfigIn,
                       net::Transport &TIn)
    : Prog(ProgIn), Config(std::move(ConfigIn)), T(TIn),
      Layout(resolveLayout(Prog, Config.Run)) {
  if (Config.Rank >= Layout.NumProcs)
    throw net::TransportError(
        "rank " + std::to_string(Config.Rank) + " out of range (layout has " +
        std::to_string(Layout.NumProcs) + " processors)");
  if (T.size() != Layout.NumProcs)
    throw net::TransportError(
        "transport spans " + std::to_string(T.size()) +
        " ranks but the layout needs " + std::to_string(Layout.NumProcs));
  if (T.rank() != Config.Rank)
    throw net::TransportError("transport rank mismatch");
  Arrays = buildArrayStores(Prog, Config.Run, Layout);
  Coll = coll::makeCollective(coll::algoFromEnv(), Layout.NumProcs);
  Env = initialEnv(Prog, Layout, Config.Rank);
  EventInPlace =
      resolveEventInPlace(Prog, Layout, Result.InPlaceRuntimeUpgrades);
  // The same inputs the in-process engines lower from, so the plan — and
  // its kernel-cache entry — is shared with the driver and every rank.
  Plan = std::make_unique<LoadedPlan>(
      Prog,
      PlanBuildInputs{&Arrays, &Layout.AllBindings, &Layout.ProcShape,
                      &EventInPlace},
      Config.Run.Machine.SecPerWork);
  // A rank always runs the lowered plan: tree resolves to bytecode here.
  if (Interpreter::resolveEngine(Config.Run.Engine) == EngineKind::Native)
    Plan->setupNative(Config.Trace,
                      "rank " + std::to_string(Config.Rank) + ": ");
  Core = std::make_unique<RankCore>(*Plan, Config.Rank, Layout.NumProcs, Env,
                                    Accums, Config.Run.CheckValidity, &Clock);
  Core->pumpEvery(Config.ProgressEveryStmts, [this] {
    ++ProgressCalls;
    T.progress();
  });
}

RankEngine::~RankEngine() = default;

void RankEngine::setSemantics(int Id, StmtFn Fn) {
  Semantics[Id] = std::move(Fn);
}

void RankEngine::initArray(
    const std::string &Name,
    const std::function<double(const std::vector<int64_t> &)> &Init) {
  Arrays.at(Name).fill(Init);
}

const ArrayStore &RankEngine::array(const std::string &Name) const {
  return Arrays.at(Name);
}

void RankEngine::violation(const std::string &Msg) {
  Result.Valid = false;
  if (Result.Violations.size() < 20)
    Result.Violations.push_back(Msg);
}

void RankEngine::drain() {
  Result.StmtInstances +=
      Core->drain([&](const std::string &M) { violation(M); });
}

void RankEngine::execCompute(const PlanNode &N) {
  obs::TraceSpan Span(Config.Trace, "compute:" + N.NestName, "rt.exec");
  Core->compute(N);
  drain();
}

void RankEngine::execSend(const PlanNode &N) {
  const EventPlan &EP = Plan->plan().Events[N.EventId];
  ArrayStore &A = Plan->store(EP.Array);
  const uint64_t Tag = static_cast<uint64_t>(EP.Id);
  for (const RankCore::PartnerList &PL : Core->lists(EP, /*RecvSide=*/false)) {
    const std::vector<int64_t> &Fl = *PL.Flats;
    const uint64_t Bytes = Fl.size() * EP.ElemBytes;
    // Exactly one "send" span per counted message (++Result.Messages
    // below) — the trace/counter cross-check in the tests relies on it.
    obs::TraceSpan SendSpan(Config.Trace, "send", "rt.comm",
                            "\"dst\": " + std::to_string(PL.Q) +
                                ", \"event\": " + std::to_string(EP.Id) +
                                ", \"bytes\": " + std::to_string(Bytes));
    uint8_t Meta[17];
    Meta[0] = PL.Contig ? KindContig : KindPacked;
    uint8_t *End = putU64(Meta + 1, Fl.size());
    if (PL.Contig)
      End = putU64(End, static_cast<uint64_t>(PL.Base));
    net::ByteSpan Parts[3];
    unsigned NParts = 0;
    Parts[NParts++] = {Meta, static_cast<size_t>(End - Meta)};
    if (RankCore::isSpan(PL)) {
      // The Section 3.3 shape: a contiguous run of locally-owned storage.
      // Post the data bytes straight from the array — zero copy.
      ++Result.SpanCopies;
      Parts[NParts++] = {A.data() + PL.Base, Fl.size() * sizeof(double)};
    } else {
      ++Result.PackedCopies;
      Vals.resize(Fl.size());
      Core->pack(EP, PL, Vals.data());
      if (!PL.Contig)
        Parts[NParts++] = {Fl.data(), Fl.size() * sizeof(int64_t)};
      Parts[NParts++] = {Vals.data(), Vals.size() * sizeof(double)};
    }
    T.post(PL.Q, Tag, Parts, NParts);
    // Logical counters match the simulated machine: the sender counts the
    // message and its payload bytes; wire framing is tracked separately.
    ++Result.Messages;
    Result.Bytes += Bytes;
  }
  drain();
}

void RankEngine::execRecv(const PlanNode &N) {
  const EventPlan &EP = Plan->plan().Events[N.EventId];
  unsigned P = Config.Rank;
  for (const RankCore::PartnerList &PL : Core->lists(EP, /*RecvSide=*/true)) {
    obs::TraceSpan Span(Config.Trace, "recv", "rt.comm",
                        "\"src\": " + std::to_string(PL.Q) +
                            ", \"event\": " + std::to_string(EP.Id));
    std::vector<uint8_t> Pay = T.recv(PL.Q, static_cast<uint64_t>(EP.Id));

    // Decode; a malformed payload passed the checksum, so it is a sender
    // logic error, not line noise.
    auto Malformed = [&]() -> net::TransportError {
      return net::TransportError("rank " + std::to_string(P) +
                                 ": malformed payload from rank " +
                                 std::to_string(PL.Q) + " for event " +
                                 std::to_string(EP.Id));
    };
    if (Pay.size() < 9)
      throw Malformed();
    uint8_t Kind = Pay[0];
    uint64_t Count;
    std::memcpy(&Count, Pay.data() + 1, 8);
    if (Count > Pay.size() / 8) // also keeps Need below from wrapping
      throw Malformed();
    size_t Need = Kind == KindContig ? 9 + 8 + Count * 8 : 9 + Count * 16;
    if ((Kind != KindContig && Kind != KindPacked) || Pay.size() != Need)
      throw Malformed();
    RankCore::PayloadView View;
    View.Count = Count;
    const uint8_t *V = Pay.data() + 9;
    if (Kind == KindContig) {
      uint64_t BaseU;
      std::memcpy(&BaseU, V, 8);
      View.Base = static_cast<int64_t>(BaseU);
      V += 8;
    } else {
      Flats.resize(Count);
      std::memcpy(Flats.data(), V, Count * 8);
      View.Flats = Flats.data();
      V += Count * 8;
    }
    Vals.resize(Count);
    std::memcpy(Vals.data(), V, Count * 8);
    View.Vals = Vals.data();
    // Validation and apply are the in-process executor's.
    Core->unpack(EP, PL, View);
  }
  drain();
}

void RankEngine::execReduce(const PlanNode &N) {
  obs::TraceSpan Span(Config.Trace, "reduce:" + N.RedName, "rt.comm");
  unsigned NP = Layout.NumProcs;
  uint64_t Tag = ReduceTagBase + ReduceSeq++;
  // The collective gathers the raw per-rank contributions under the chosen
  // schedule (DHPF_COLL) and combines them locally from the identity in
  // rank order 0..NP-1 — exactly the in-process combine, so double
  // rounding is bit-identical regardless of the algorithm.
  double Combined = Coll->allreduce(
      T, Accums[N.RedName],
      N.RedOp == SpmdNode::ReduceOp::Max ? coll::Op::Max : coll::Op::Sum,
      Tag, CollSt);
  Accums[N.RedName] = Combined;
  Result.FinalAccums[N.RedName] = Combined;
  // Logical accounting mirrors sim::Machine::allReduce: P messages total
  // for the collective, no payload bytes — one per rank. The paired
  // zero-duration "send" span keeps trace event counts == Messages.
  if (NP > 1) {
    ++Result.Messages;
    if (Config.Trace->active())
      Config.Trace->complete("send", "rt.comm", Config.Trace->nowUs(), 0,
                             "\"reduce\": \"" + obs::jsonEscape(N.RedName) +
                                 "\"");
  }
}

void RankEngine::execNode(const PlanNode &N) {
  switch (N.K) {
  case SpmdNode::Kind::Seq:
    for (const PlanNode &C : N.Children)
      execNode(C);
    break;
  case SpmdNode::Kind::TimeLoop: {
    int64_t Lo = Core->eval(N.SeqLo), Hi = Core->eval(N.SeqHi);
    for (int64_t V = Lo; V <= Hi; ++V) {
      Env[N.SeqSlot] = V;
      for (const PlanNode &C : N.Children)
        execNode(C);
    }
    break;
  }
  case SpmdNode::Kind::Compute:
    execCompute(N);
    break;
  case SpmdNode::Kind::Send:
    execSend(N);
    break;
  case SpmdNode::Kind::Recv:
    execRecv(N);
    break;
  case SpmdNode::Kind::Reduce:
    execReduce(N);
    break;
  }
}

void RankEngine::finish() {
  unsigned NP = Layout.NumProcs, P = Config.Rank;
  if (NP > 1) {
    // Drain the user-space send queues, then a FIN handshake with every
    // peer: the per-stream FIFO guarantees all data frames precede the
    // FIN, so leftover queued frames below really are undeliverable.
    T.flush();
    uint8_t Fin = 0xF1;
    for (unsigned Q = 0; Q != NP; ++Q) {
      if (Q == P)
        continue;
      net::ByteSpan S{&Fin, 1};
      T.post(Q, FinTag, &S, 1);
    }
    T.flush();
    for (unsigned Q = 0; Q != NP; ++Q)
      if (Q != P)
        T.recv(Q, FinTag);
  }
  if (T.hasUndelivered())
    violation("unconsumed messages remain (send/recv sets are not dual)");
}

RunResult RankEngine::run() {
  auto Start = std::chrono::steady_clock::now();
  Plan->bindSemantics(Semantics);
  {
    obs::TraceSpan Span(Config.Trace, "rank:run", "rt");
    if (Prog.Root)
      execNode(Plan->plan().Root);
  }
  {
    obs::TraceSpan Span(Config.Trace, "rank:finish", "rt");
    finish();
  }
  if (obs::compiledIn()) {
    obs::MetricsRegistry &R = obs::MetricsRegistry::global();
    R.counter("rt.comm.messages")->inc(Result.Messages);
    R.counter("rt.comm.bytes")->inc(Result.Bytes);
    R.counter("rt.comm.span_copies")->inc(Result.SpanCopies);
    R.counter("rt.comm.packed_copies")->inc(Result.PackedCopies);
    R.counter("rt.comm.progress_calls")->inc(ProgressCalls);
    R.counter("rt.exec.stmt_instances")->inc(Result.StmtInstances);
  }
  Result.ElapsedSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  Result.CollMessages = CollSt.Messages;
  Result.CollBytes = CollSt.Bytes;
  const net::TransportStats &St = T.stats();
  Result.OverlapRatio =
      St.WireBytesSent
          ? double(St.BytesFlushedDuringCompute) / double(St.WireBytesSent)
          : 0.0;
  return Result;
}
