//===- interp/Interp.cpp - Partitioned-program interpreter ----------------===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"

#include "obs/Trace.h"
#include "partition/Reprice.h"

#include <algorithm>
#include <optional>
#include <set>

using namespace paco;

namespace {

/// A runtime value. Pointers are (region, element offset) pairs; func
/// values carry the function index.
struct Value {
  TypeKind K = TypeKind::Int;
  int64_t I = 0;
  double D = 0;
  unsigned Region = KNone;
  int64_t Off = 0;
  unsigned Func = KNone;

  static Value ofInt(int64_t V) {
    Value R;
    R.K = TypeKind::Int;
    R.I = V;
    return R;
  }
  static Value ofDouble(double V) {
    Value R;
    R.K = TypeKind::Double;
    R.D = V;
    return R;
  }
  static Value ofPointer(TypeKind PtrTy, unsigned Region, int64_t Off) {
    Value R;
    R.K = PtrTy;
    R.Region = Region;
    R.Off = Off;
    return R;
  }
  static Value ofFunc(unsigned F) {
    Value R;
    R.K = TypeKind::Func;
    R.Func = F;
    return R;
  }
};

/// One memory region with its two host copies and their ground-truth
/// validity. A write on one host invalidates the other copy; a transfer
/// always sources the valid copy (the static validity certificate does
/// not constrain source-side validity -- see crossTask), and a read from
/// an invalid copy is an analysis bug the interpreter reports.
struct MemRegion {
  unsigned LocId = KNone;
  bool Live = true;
  bool ClientValid = true;
  bool ServerValid = true;
  /// Counts server-side writes to this region. The recovery ledger keys
  /// pin freshness on it: a pin taken at version V is exactly the server
  /// content until the next server store. Transfers do not bump it --
  /// they only copy content the version already describes.
  uint64_t ServerVersion = 0;
  std::vector<Value> Client, Server;
};

struct Frame {
  unsigned FuncIdx = KNone;
  std::vector<unsigned> LocalRegions;
  // Return linkage: where the caller resumes, and which caller local
  // receives the return value.
  unsigned RetFunc = KNone;
  unsigned RetBlock = KNone;
  unsigned RetDstVar = KNone;
};

/// FailFast means "no retries": the first lost attempt is terminal.
RetryPolicy effectiveRetry(const ExecOptions &Opts) {
  RetryPolicy Retry = Opts.Retry;
  if (Opts.OnLinkFailure == FaultPolicy::FailFast)
    Retry.MaxRetries = 0;
  return Retry;
}

/// Static adaptation pins the dispatched choice: degrading to local is
/// itself an adaptation, so under AdaptationPolicy::Static a message
/// that exhausts its retries becomes a structured failure instead.
FaultPolicy effectivePolicy(const ExecOptions &Opts) {
  if (Opts.Adapt.Policy == AdaptationPolicy::Static &&
      Opts.OnLinkFailure == FaultPolicy::DegradeToLocal)
    return FaultPolicy::RetryOnly;
  return Opts.OnLinkFailure;
}

class Machine {
public:
  Machine(const CompiledProgram &CP, const ExecOptions &Opts,
          const EnergyModel &Energy)
      : CP(CP), Opts(Opts), Energy(Energy),
        Sim(CP.Costs, Opts.Link, effectiveRetry(Opts), Opts.Drift,
            Opts.Crash),
        EffPolicy(effectivePolicy(Opts)),
        ClosedLoop(Opts.Adapt.Policy == AdaptationPolicy::ClosedLoop),
        EvalPeriod(std::max(1u, Opts.Adapt.EvalPeriod)),
        ProbePeriod(std::max(1u, Opts.Adapt.ProbePeriodBoundaries)),
        CrashArmed(Opts.Crash.active()), Rec(Opts.Recorder),
        Ev(Opts.Events) {
    if (ClosedLoop)
      Prof.emplace(CP.Costs, Opts.Adapt.Alpha);
  }

  ExecResult run();

private:
  //===--------------------------------------------------------------===//
  // Memory
  //===--------------------------------------------------------------===//

  unsigned newRegion(unsigned LocId, size_t Elems, TypeKind ElemTy) {
    MemRegion Region;
    Region.LocId = LocId;
    Value Fill = ElemTy == TypeKind::Double ? Value::ofDouble(0.0)
                                            : Value::ofInt(0);
    Fill.K = ElemTy;
    Region.Client.assign(Elems, Fill);
    Region.Server.assign(Elems, Fill);
    Regions.push_back(std::move(Region));
    unsigned Id = static_cast<unsigned>(Regions.size() - 1);
    LiveOfLoc[LocId].push_back(Id);
    return Id;
  }

  void killRegion(unsigned Id) {
    Regions[Id].Live = false;
    std::vector<unsigned> &List = LiveOfLoc[Regions[Id].LocId];
    for (size_t I = List.size(); I-- > 0;)
      if (List[I] == Id)
        List.erase(List.begin() + static_cast<long>(I));
    Regions[Id].Client.clear();
    Regions[Id].Server.clear();
  }

  std::vector<Value> &sideOf(unsigned Region) {
    return OnServer ? Regions[Region].Server : Regions[Region].Client;
  }

  bool loadMem(unsigned Region, int64_t Off, Value &Out) {
    if (Region == KNone || !Regions[Region].Live)
      return fail("dereference of invalid pointer");
    MemRegion &R = Regions[Region];
    if (!(OnServer ? R.ServerValid : R.ClientValid))
      return fail("read of an invalid copy of " +
                  CP.Memory->loc(R.LocId).Name + " (analysis bug)");
    std::vector<Value> &Data = sideOf(Region);
    if (Off < 0 || static_cast<size_t>(Off) >= Data.size())
      return fail("out-of-bounds access at offset " + std::to_string(Off));
    Out = Data[static_cast<size_t>(Off)];
    return true;
  }

  bool storeMem(unsigned Region, int64_t Off, const Value &V) {
    if (Region == KNone || !Regions[Region].Live)
      return fail("store through invalid pointer");
    MemRegion &R = Regions[Region];
    std::vector<Value> &Data = sideOf(Region);
    if (Off < 0 || static_cast<size_t>(Off) >= Data.size())
      return fail("out-of-bounds store at offset " + std::to_string(Off));
    Data[static_cast<size_t>(Off)] = V;
    // Writing makes this host's copy the truth.
    if (OnServer) {
      R.ServerValid = true;
      R.ClientValid = false;
      ++R.ServerVersion;
    } else {
      R.ClientValid = true;
      R.ServerValid = false;
    }
    return true;
  }

  //===--------------------------------------------------------------===//
  // Task transitions and transfers
  //===--------------------------------------------------------------===//

  /// True while a cut is in force: a choice was dispatched and the run
  /// is neither degraded nor in a probing fallback.
  bool offloaded() const {
    return Choice != KNone && !Degraded && !LocalFallback;
  }

  bool taskOnServer(unsigned Task) const {
    if (!offloaded())
      return false;
    return CP.Partition.Choices[Choice].TaskOnServer[Task];
  }

  /// Data movements dictated by the validity states on edge (A, B).
  struct Movement {
    unsigned LocId;
    bool ToServer;
  };
  const std::vector<Movement> &transferSet(unsigned A, unsigned B);

  bool crossTask(unsigned NewTask);

  //===--------------------------------------------------------------===//
  // Timeline recording
  //
  // Segments and messages partition the run on the simulated clock:
  // every message (scheduling, transfer, registration -- the last can
  // strike mid-segment, at a malloc) closes the open segment first, so
  // span durations sum exactly to the elapsed time. All hooks are task/
  // message-grained; the per-instruction path only bumps SegInstrs.
  //===--------------------------------------------------------------===//

  void recEndSegment() {
    bool RecOpen = Rec && Rec->open();
    if (!RecOpen && !ProfSegOpen)
      return;
    Rational Now = Sim.now();
    if (ProfSegOpen) {
      Prof->observeCompute(ProfSegServer, SegInstrs, Now - ProfSegStart);
      ProfSegOpen = false;
    }
    if (RecOpen) {
      Rec->endSegment(std::move(Now), SegInstrs);
      // Registry entries are never erased, so the by-name lookup (mutex
      // + map walk) can be paid once per process, not per segment.
      static obs::Histogram &SegHist =
          obs::StatsRegistry::global().histogram("sim.task_segment_instrs");
      SegHist.record(SegInstrs);
    }
    SegInstrs = 0;
  }

  void recBeginSegment() {
    if (!Rec && !Prof)
      return;
    Rational Now = Sim.now();
    if (Rec)
      Rec->beginSegment(CurrentTask, OnServer, Now);
    if (Prof) {
      ProfSegStart = std::move(Now);
      ProfSegServer = OnServer;
      ProfSegOpen = true;
    }
  }

  /// Runs \p Send (one simulator message) and records it -- to the
  /// timeline recorder and, in a closed-loop run, to the online
  /// profiler (the observed cost spans everything the message charged,
  /// fault time included). Returns the delivery status of the send.
  template <typename SendFn>
  bool recMessage(MessageRecord::Kind K, bool ToServer, unsigned FromTask,
                  unsigned ToTask, unsigned LocId, uint64_t Bytes,
                  SendFn &&Send) {
    if (!Rec && !Prof)
      return Send();
    Rational Start = Sim.now();
    uint64_t Timeouts0 = Sim.timeouts(), Retries0 = Sim.retries();
    bool Delivered = Send();
    Rational End = Sim.now();
    if (Prof && Delivered)
      Prof->observeMessage(K, ToServer, Bytes, End - Start);
    if (Rec) {
      MessageRecord M;
      M.K = K;
      M.ToServer = ToServer;
      M.FromTask = FromTask;
      M.ToTask = ToTask;
      M.LocId = LocId;
      M.Bytes = Bytes;
      M.Timeouts = Sim.timeouts() - Timeouts0;
      M.Retries = Sim.retries() - Retries0;
      M.Delivered = Delivered;
      M.Start = std::move(Start);
      M.End = std::move(End);
      Rec->message(std::move(M));
    }
    return Delivered;
  }

  //===--------------------------------------------------------------===//
  // Control events
  //
  // Every control point of the run makes one note() call with one Note
  // record, always at the active task. note() is the only place the
  // record turns into outputs: the recorder's RunEvent, the event-log
  // line, the wall-clock trace instant, the registry counters and the
  // ExecResult accounting.
  //===--------------------------------------------------------------===//

  struct Note {
    enum Kind {
      // The RunEvent kinds, in RunEvent::Kind order (recorded).
      Redispatch, Crash, Restart, Fallback, Reoffload, Exhausted,
      // Points only the log, the trace and the counters see.
      Probe, LedgerEvict, LedgerRefetch, Schedule, Transfer, RunStart, RunEnd
    } K;
    Rational At = {};          ///< Simulated time (unset for the two
                               ///< trace-only kinds, Schedule, Transfer).
    unsigned From = KNone;     ///< Redispatch: the incumbent choice.
    unsigned To = KNone;       ///< Redispatch, Reoffload: the new choice.
    Rational Stay = {};        ///< Redispatch: the two profiled costs.
    Rational Switch = {};
    uint64_t Restored = 0;     ///< Fallback: items restored from ledger.
    bool Rollback = false;     ///< Crash: the run rolls back to recover.
    bool Delivered = false;    ///< Probe: the server answered.
    unsigned Region = KNone;   ///< LedgerEvict, LedgerRefetch.
    unsigned Loc = KNone;      ///< Transfer: the data item.
    uint64_t Bytes = 0;        ///< LedgerEvict, LedgerRefetch, Transfer.
    unsigned FromTask = KNone; ///< Schedule, Transfer: the edge source.
    bool ToServer = false;     ///< Schedule, Transfer: the direction.
  };

  void note(const Note &N);

  //===--------------------------------------------------------------===//
  // Fault recovery
  //
  // While the link can fault and the policy allows degrading, the
  // machine snapshots its full state at every task boundary (taken at
  // the top of the interpreter loop, where no instruction is mid-
  // flight). When a message later exhausts its retries, the run rolls
  // back to that snapshot and finishes on the client alone: I/O done
  // since the checkpoint is rewound with it, so outputs stay exactly
  // the all-client outputs.
  //===--------------------------------------------------------------===//

  struct Checkpoint {
    std::vector<MemRegion> Regions;
    std::map<unsigned, std::vector<unsigned>> LiveOfLoc;
    std::vector<Frame> Stack;
    unsigned CurrentTask = KNone;
    unsigned CurFunc = KNone;
    unsigned CurBlock = KNone;
    size_t InstrIdx = 0;
    size_t InputPos = 0;
    size_t OutputCount = 0;
  };

  void takeCheckpoint() {
    Ckpt.Regions = Regions;
    Ckpt.LiveOfLoc = LiveOfLoc;
    Ckpt.Stack = Stack;
    Ckpt.CurrentTask = CurrentTask;
    Ckpt.CurFunc = CurFunc;
    Ckpt.CurBlock = CurBlock;
    Ckpt.InstrIdx = InstrIdx;
    Ckpt.InputPos = InputPos;
    Ckpt.OutputCount = Result.Outputs.size();
  }

  /// Restores the last checkpoint and resumes on the client -- either as
  /// a permanent degrade (the PR-1 behavior) or, under ClosedLoop with
  /// probe budget left, as a temporary LocalFallback the recovery probes
  /// can later lift. The snapshot is moved out: every rollback consumes a
  /// checkpoint taken since the previous rollback (boundary checkpoints,
  /// the redispatch checkpoint, or the pre-re-offload checkpoint
  /// maybeProbe takes), so no checkpoint is ever restored twice.
  void restoreCheckpoint() {
    recEndSegment(); // The failed message may have left no open segment.
    Regions = std::move(Ckpt.Regions);
    LiveOfLoc = std::move(Ckpt.LiveOfLoc);
    Stack = std::move(Ckpt.Stack);
    CurrentTask = Ckpt.CurrentTask;
    CurFunc = Ckpt.CurFunc;
    CurBlock = Ckpt.CurBlock;
    InstrIdx = Ckpt.InstrIdx;
    InputPos = Ckpt.InputPos;
    Result.Outputs.resize(Ckpt.OutputCount);
    OnServer = false;
    // The client recovers data it had shipped to the server from its
    // shadow copies (the checkpoint retains them while the server is
    // alive); after this merge plus the ledger restores below, the
    // client copy of every live region is authoritative.
    for (MemRegion &Region : Regions)
      if (Region.Live && !Region.ClientValid && Region.ServerValid) {
        Region.Client = Region.Server;
        Region.ClientValid = true;
      }
    // After a crash the server copies are gone (onServerCrash invalidated
    // them in the snapshot too): items whose authoritative copy died come
    // back from the client-held recovery ledger. Sync-before-checkpoint
    // and the never-evict-needed-pins rule guarantee a version-matched
    // pin for each; a miss here is an internal invariant violation.
    uint64_t Restored = 0;
    for (unsigned Id = 0; Id != Regions.size(); ++Id) {
      MemRegion &Region = Regions[Id];
      if (!Region.Live || Region.ClientValid || Region.ServerValid)
        continue;
      auto It = Ledger.find(Id);
      if (It == Ledger.end() || It->second.Version != Region.ServerVersion) {
        fail("server crash lost " + CP.Memory->loc(Region.LocId).Name +
                 " and the recovery ledger has no matching pin (ledger bug)",
             ExecResult::FailureKind::ServerCrash);
        return;
      }
      Region.Client = It->second.Data;
      Region.ClientValid = true;
      ++Restored;
    }
    // Pins for regions the rewind destroyed are dead weight.
    for (auto It = Ledger.begin(); It != Ledger.end();) {
      if (It->first >= Regions.size() || !Regions[It->first].Live) {
        PinnedBytes -= It->second.Bytes;
        It = Ledger.erase(It);
      } else {
        ++It;
      }
    }
    // Probing keeps the fallback temporary while budget remains; without
    // it (or without the closed loop) the degrade is permanent.
    if (ClosedLoop && ProbesSent < Opts.Adapt.ProbeBudget) {
      LocalFallback = true;
      LastFallbackTask = CurrentTask;
      FallbackBoundaries = 0;
    } else {
      Degraded = true;
      LocalFallback = false;
    }
    note({.K = Note::Fallback, .At = Sim.now(), .Restored = Restored});
    recBeginSegment(); // Resume the timeline on the client.
  }

  /// Called when a message exhausted its retries. Either requests a
  /// rollback (DegradeToLocal) or fails the run with a structured
  /// LinkFailure classification.
  bool linkLost(const char *What) {
    if (EffPolicy == FaultPolicy::DegradeToLocal) {
      WantRollback = true;
      return false;
    }
    return fail(std::string("link failure: ") + What + " lost after " +
                    std::to_string(Sim.timeouts()) + " timed-out attempt(s)",
                ExecResult::FailureKind::LinkFailure);
  }

  /// Turns a pending rollback request into an actual restore; returns
  /// false when the failure was not a recoverable link fault.
  bool rollback() {
    if (!WantRollback)
      return false;
    // A crash may have crossed during the failed message itself (its
    // retries can outlive the server). Process it before restoring: the
    // snapshot's server copies must be invalidated first, so the shadow
    // merge cannot "recover" data from a dead process -- only the
    // ledger can.
    if (CrashArmed && Sim.serverEventPending())
      handleServerEvents(); // A crash re-requests the same rollback.
    WantRollback = false;
    if (Failed)
      return false;
    restoreCheckpoint();
    return !Failed;
  }

  //===--------------------------------------------------------------===//
  // Server-failure recovery
  //
  // A scheduled crash kills the server process: every server-resident
  // authoritative copy is gone and the in-flight server task aborts.
  // While a crash schedule is armed, the client maintains a bounded
  // recovery ledger -- pinned copies of every data item whose only
  // valid copy lives server-side, refreshed at each task boundary
  // *before* the checkpoint and committed atomically with it, so the
  // pins are exactly as old as the snapshot they protect. Recovery
  // rolls back to the last boundary, restores the lost items from the
  // ledger, and resumes on the client with exactly-once task
  // semantics; under ClosedLoop, priced probes then test whether a
  // restarted server is worth re-offloading to.
  //===--------------------------------------------------------------===//

  /// Handles the server crash and restart events the simulated clock
  /// crossed. Returns false when the caller must roll back (WantRollback
  /// set) or the run failed; true when no further action is needed.
  bool handleServerEvents() {
    bool Crashed = false, Restarted = false;
    Rational CrashedAt, RestartedAt;
    Sim.takeServerEvents(Crashed, CrashedAt, Restarted, RestartedAt);
    bool Handled = !Crashed || onServerCrash(CrashedAt);
    if (Restarted)
      note({.K = Note::Restart, .At = RestartedAt});
    return Handled;
  }

  /// Handles a crash event the simulated clock crossed. Returns false
  /// when the caller must roll back (WantRollback set) or the run
  /// failed; true when the crash needs no further action.
  bool onServerCrash(const Rational &At) {
    bool Offloaded = offloaded();
    bool Recover = Offloaded && EffPolicy == FaultPolicy::DegradeToLocal &&
                   CheckpointsOn;
    note({.K = Note::Crash, .At = At, .Rollback = Recover});
    // The server process died: both the live state and the snapshot lose
    // their server-side copies (the snapshot's "server" halves lived in
    // the same process).
    for (MemRegion &Region : Regions)
      Region.ServerValid = false;
    for (MemRegion &Region : Ckpt.Regions)
      Region.ServerValid = false;
    if (!Offloaded)
      return true; // Already running entirely on the client.
    if (!Recover)
      return fail("server crashed at t=" + At.toString() +
                      " and the policy has no recovery path",
                  ExecResult::FailureKind::ServerCrash);
    WantRollback = true;
    return false;
  }

  /// One pinned client-held copy of a server-authoritative data item.
  struct LedgerPin {
    uint64_t Version = 0;  ///< MemRegion::ServerVersion at pin time.
    uint64_t Bytes = 0;    ///< Accounting size (budget + transfer price).
    uint64_t LastUsed = 0; ///< LRU stamp (LedgerSeq).
    bool Needed = false;   ///< The current checkpoint depends on it.
    std::vector<Value> Data;
  };

  /// Pre-checkpoint ledger sync: makes sure every live region whose
  /// authoritative copy is server-side has a version-matched pin,
  /// charging one s2c transfer per stale or missing pin. Fetched copies
  /// land in PendingPins and commit only together with the checkpoint
  /// (commitLedger), so a failure or crash mid-sync leaves the ledger
  /// consistent with the previous checkpoint. Returns false on link
  /// failure (WantRollback set); returns true early, without touching
  /// the ledger, when a server event crossed mid-sync (the caller
  /// re-checks before checkpointing).
  bool syncLedger() {
    PendingPins.clear();
    // Sweep pins whose region died since the last boundary.
    for (auto It = Ledger.begin(); It != Ledger.end();) {
      if (It->first >= Regions.size() || !Regions[It->first].Live) {
        PinnedBytes -= It->second.Bytes;
        It = Ledger.erase(It);
      } else {
        ++It;
      }
    }
    bool SplitSegment = false;
    for (unsigned Id = 0; Id != Regions.size(); ++Id) {
      MemRegion &Region = Regions[Id];
      bool Needed =
          Region.Live && !Region.ClientValid && Region.ServerValid;
      auto It = Ledger.find(Id);
      if (It != Ledger.end()) {
        It->second.Needed = Needed;
        if (Needed && It->second.Version == Region.ServerVersion) {
          It->second.LastUsed = ++LedgerSeq;
          continue; // Pin still matches the server content.
        }
      }
      if (!Needed)
        continue;
      if (Sim.serverEventPending()) {
        if (SplitSegment)
          recBeginSegment();
        return true; // Crash first; no checkpoint will be taken.
      }
      uint64_t Bytes = Region.Server.size() *
                       elementBytes(CP.Memory->loc(Region.LocId).ElemType);
      // The pin rides the real (charged, lossy) link as an s2c transfer;
      // like any message it splits the open segment.
      if (!SplitSegment) {
        recEndSegment();
        SplitSegment = true;
      }
      if (!recMessage(MessageRecord::Kind::LedgerSync, false, CurrentTask,
                      CurrentTask, Region.LocId, Bytes,
                      [&] { return Sim.tryLedgerSync(Bytes); }))
        return linkLost("recovery-ledger sync");
      if (EvictedOnce.erase(Id))
        note({.K = Note::LedgerRefetch,
              .At = Sim.now(),
              .Region = Id,
              .Bytes = Bytes});
      LedgerPin Pin;
      Pin.Version = Region.ServerVersion;
      Pin.Bytes = Bytes;
      Pin.LastUsed = ++LedgerSeq;
      Pin.Needed = true;
      Pin.Data = Region.Server;
      PendingPins.emplace_back(Id, std::move(Pin));
    }
    if (SplitSegment)
      recBeginSegment();
    return true;
  }

  /// Commits the pins syncLedger fetched, then enforces the byte budget
  /// by LRU-evicting pins the just-taken checkpoint does not depend on.
  /// Needed pins are never evicted: the budget is a soft target with a
  /// hard safety floor (a needed pin is the only recovery source for its
  /// item).
  void commitLedger() {
    for (auto &[Id, Pin] : PendingPins) {
      auto It = Ledger.find(Id);
      if (It != Ledger.end())
        PinnedBytes -= It->second.Bytes;
      PinnedBytes += Pin.Bytes;
      Ledger[Id] = std::move(Pin);
    }
    PendingPins.clear();
    while (PinnedBytes > Opts.LedgerBudgetBytes) {
      auto Victim = Ledger.end();
      for (auto It = Ledger.begin(); It != Ledger.end(); ++It)
        if (!It->second.Needed &&
            (Victim == Ledger.end() ||
             It->second.LastUsed < Victim->second.LastUsed))
          Victim = It;
      if (Victim == Ledger.end())
        break; // Everything left is load-bearing.
      PinnedBytes -= Victim->second.Bytes;
      EvictedOnce.insert(Victim->first);
      note({.K = Note::LedgerEvict,
            .At = Sim.now(),
            .Region = Victim->first,
            .Bytes = Victim->second.Bytes});
      Ledger.erase(Victim);
    }
    Result.LedgerPeakBytes = std::max(Result.LedgerPeakBytes, PinnedBytes);
    obs::StatsRegistry::global()
        .histogram("recovery.ledger_pinned_bytes")
        .record(PinnedBytes);
  }

  /// Spends the probe budget: the fallback becomes a permanent degrade.
  void exhaustProbes() {
    Degraded = true;
    LocalFallback = false;
    note({.K = Note::Exhausted, .At = Sim.now()});
  }

  /// Runs at each task boundary of a LocalFallback run: every
  /// ProbePeriod boundaries, sends one model-priced probe. A delivered
  /// probe feeds the profiler and reprices local-vs-remote under the
  /// profiled model; when the best remote cut clears the hysteresis
  /// margin, the run checkpoints and re-dispatches to it. Returns false
  /// when a re-dispatch message was lost (caller rolls back -- into
  /// fallback again).
  bool maybeProbe() {
    ++FallbackBoundaries;
    if (FallbackBoundaries % ProbePeriod != 0)
      return true;
    if (ProbesSent >= Opts.Adapt.ProbeBudget) {
      // Reachable when the final probe succeeded but repricing kept the
      // run local: the budget is gone, so stop paying for boundaries.
      exhaustProbes();
      return true;
    }
    ++ProbesSent;
    recEndSegment(); // The probe splits the open segment.
    bool Up = recMessage(MessageRecord::Kind::Probe, true, CurrentTask,
                         CurrentTask, KNone, Opts.Adapt.ProbeBytes,
                         [&] { return Sim.tryProbe(Opts.Adapt.ProbeBytes); });
    note({.K = Note::Probe, .At = Sim.now(), .Delivered = Up});
    if (!Up) {
      if (ProbesSent >= Opts.Adapt.ProbeBudget)
        exhaustProbes();
      recBeginSegment();
      return true; // Still down (or still crashed); keep running local.
    }
    // The server answered and the profiler just folded the probe's
    // observed cost into its c2s scale. Reprice staying local against
    // every computed cut under the live model; re-offload only when the
    // best remote cut beats local by the switch margin (same hysteresis
    // bar as the drift detector's).
    CostModel Profiled = Prof->model();
    Rational Stay = reprice(KNone, Profiled);
    unsigned Best = KNone;
    Rational BestCost = Stay;
    for (unsigned C = 0; C != CP.Partition.Choices.size(); ++C) {
      Rational Cost = reprice(C, Profiled);
      if (Cost < BestCost) {
        Best = C;
        BestCost = Cost;
      }
    }
    static const Rational One(1);
    if (Best == KNone ||
        !(BestCost <= Stay * (One - Opts.Adapt.SwitchMargin)) ||
        Result.Redispatches.size() >= Opts.Adapt.MaxRedispatches) {
      recBeginSegment();
      return true; // Remote not (sufficiently) worth it yet.
    }
    // Leave the fallback and re-dispatch. A fresh checkpoint first: the
    // one the fallback rolled back to was consumed by that restore, and
    // a lost reconciliation message below must land here, not there.
    Choice = KNone; // The incumbent really is all-client now.
    LocalFallback = false;
    takeCheckpoint();
    if (!redispatch(Best, std::move(Stay), std::move(BestCost)))
      return false;
    note({.K = Note::Reoffload, .At = Sim.now(), .To = Best});
    return true;
  }

  //===--------------------------------------------------------------===//
  // Closed-loop adaptation
  //
  // At every task-boundary checkpoint of a ClosedLoop run, the drift
  // detector re-prices the computed cuts (plus the all-client
  // fallback) under the profiler's live cost model and, with
  // hysteresis, switches the rest of the run to the cheapest one. A
  // switch reconciles memory validity with the new choice's entry
  // assumptions through real (charged, lossy) messages, so the run
  // stays bit-identical to the all-client outputs and any failure
  // lands in the ordinary rollback-and-degrade path.
  //===--------------------------------------------------------------===//

  /// Re-prices choice \p C (KNone = all-client) at the run's parameter
  /// point under \p Model.
  Rational reprice(unsigned C, const CostModel &Model) const {
    return repriceChoice(CP.Graph, *CP.Memory, CP.Problem, CP.Partition, C,
                         FullPoint, Model);
  }

  /// The drift detector; runs right after a boundary checkpoint.
  /// Returns false when a reconciliation message was lost (the caller
  /// rolls back, exactly like any other link failure).
  bool maybeAdapt();

  /// Switches the run to \p NewChoice at the current boundary.
  bool redispatch(unsigned NewChoice, Rational Stay, Rational Go);

  /// Makes the \p ToServer copy of loc \p D's live regions valid,
  /// charging one transfer when anything is stale; false on link
  /// failure.
  bool migrateLoc(unsigned D, bool ToServer);

  //===--------------------------------------------------------------===//
  // Execution
  //===--------------------------------------------------------------===//

  bool fail(const std::string &Message, ExecResult::FailureKind Kind =
                                            ExecResult::FailureKind::BadInput) {
    if (Result.Error.empty()) {
      Result.Error = Message;
      Result.Failure = Kind;
      if (CurFunc != KNone) {
        Result.Error += " [in " + CP.Module->Functions[CurFunc]->Name +
                        " bb" + std::to_string(CurBlock) + " instr " +
                        std::to_string(InstrIdx) + " task " +
                        std::to_string(CurrentTask) +
                        (OnServer ? " on server]" : " on client]");
      }
    }
    Failed = true;
    return false;
  }

  Frame &frame() { return Stack.back(); }
  const IRFunction &func() const { return *CP.Module->Functions[CurFunc]; }

  bool evalOperand(const Operand &O, Value &Out);
  bool writeLocal(unsigned Var, const Value &V) {
    return storeMem(frame().LocalRegions[Var], 0, V);
  }

  bool pushFrame(unsigned FuncIdx, unsigned RetFunc, unsigned RetBlock,
                 unsigned RetDstVar);

  bool execInstr(const Instr &I);
  bool execArith(const Instr &I);
  int64_t nextInput() {
    if (InputPos >= Opts.Inputs.size())
      return 0;
    return Opts.Inputs[InputPos++];
  }

  bool enterBlock(unsigned FuncIdx, unsigned Block);

  const CompiledProgram &CP;
  const ExecOptions &Opts;
  EnergyModel Energy;
  Simulator Sim;
  FaultPolicy EffPolicy;
  bool ClosedLoop = false;
  unsigned EvalPeriod = 1;
  std::optional<OnlineProfiler> Prof; ///< Armed iff ClosedLoop.
  std::vector<Rational> FullPoint;    ///< Parameter point (closed loop /
                                      ///< dispatch).
  ExecResult Result;

  std::vector<MemRegion> Regions;
  std::map<unsigned, std::vector<unsigned>> LiveOfLoc;
  std::vector<unsigned> GlobalRegion; ///< Region per module global.
  std::vector<unsigned> RetRegion;    ///< Region per function ret loc.
  std::vector<Frame> Stack;

  unsigned Choice = KNone;
  unsigned CurrentTask = KNone;
  bool OnServer = false;
  unsigned CurFunc = KNone;
  unsigned CurBlock = KNone;
  size_t InstrIdx = 0;
  size_t InputPos = 0;
  uint64_t Executed = 0;
  bool Failed = false;
  bool Finished = false;

  Checkpoint Ckpt;
  bool CheckpointsOn = false; ///< Snapshot at task boundaries.
  bool Degraded = false;      ///< Link declared dead; run pinned to client.
  bool WantRollback = false;  ///< A link failure requested a rollback.

  // Server-failure recovery state.
  unsigned ProbePeriod = 1;   ///< Boundaries between recovery probes.
  bool CrashArmed = false;    ///< A crash schedule is active.
  bool LedgerOn = false;      ///< Maintain the recovery ledger.
  bool LocalFallback = false; ///< Degraded, but probing may lift it.
  std::map<unsigned, LedgerPin> Ledger; ///< Pins, keyed by region id.
  std::vector<std::pair<unsigned, LedgerPin>> PendingPins;
  std::set<unsigned> EvictedOnce; ///< Evicted ids (refetch accounting).
  uint64_t PinnedBytes = 0;
  uint64_t LedgerSeq = 0; ///< Monotone LRU clock.
  unsigned LastFallbackTask = KNone;
  uint64_t FallbackBoundaries = 0;
  unsigned ProbesSent = 0;

  std::map<std::pair<unsigned, unsigned>, std::vector<Movement>>
      MovementCache;
  std::vector<uint64_t> TaskInstrCounts;

  RuntimeRecorder *Rec = nullptr;
  obs::EventLog *Ev = nullptr;
  uint64_t SegInstrs = 0; ///< Instructions in the open timeline segment.

  // Drift-detector state: boundary counters for the evaluation cadence
  // and dwell, and the challenger's confirmation streak.
  uint64_t Boundaries = 0;
  uint64_t BoundariesSinceSwitch = 0;
  bool HavePending = false;
  unsigned PendingChoice = KNone;
  unsigned PendingStreak = 0;
  // Profiler's view of the open segment (tracked independently of the
  // optional timeline recorder).
  bool ProfSegOpen = false;
  bool ProfSegServer = false;
  Rational ProfSegStart;
};

const std::vector<Machine::Movement> &Machine::transferSet(unsigned A,
                                                           unsigned B) {
  auto Key = std::make_pair(A, B);
  auto It = MovementCache.find(Key);
  if (It != MovementCache.end())
    return It->second;
  std::vector<Movement> Moves;
  if (Choice != KNone) {
    for (unsigned D : CP.Problem.DataItems) {
      auto UIt = CP.Problem.VNodes.find({A, D});
      auto VIt = CP.Problem.VNodes.find({B, D});
      if (UIt == CP.Problem.VNodes.end() || VIt == CP.Problem.VNodes.end())
        continue;
      const ValidityNodes &U = UIt->second;
      const ValidityNodes &V = VIt->second;
      bool VsoU = CP.Partition.nodeValue(Choice, U.Vso);
      bool VsiV = CP.Partition.nodeValue(Choice, V.Vsi);
      bool VcoU = !CP.Partition.nodeValue(Choice, U.NVco);
      bool VciV = !CP.Partition.nodeValue(Choice, V.NVci);
      // Client-to-server: the item becomes server-valid on this edge.
      if (!VsoU && VsiV)
        Moves.push_back({D, /*ToServer=*/true});
      // Server-to-client.
      if (!VcoU && VciV)
        Moves.push_back({D, /*ToServer=*/false});
    }
  }
  return MovementCache.emplace(Key, std::move(Moves)).first->second;
}

void Machine::note(const Note &N) {
  using RK = RunEvent::Kind;
  static_assert(Note::Redispatch == int(RK::Redispatch) &&
                    Note::Crash == int(RK::Crash) &&
                    Note::Restart == int(RK::Restart) &&
                    Note::Fallback == int(RK::Fallback) &&
                    Note::Reoffload == int(RK::Reoffload) &&
                    Note::Exhausted == int(RK::Exhausted),
                "Note kinds must start with the RunEvent kinds, in order");
  if (N.K <= Note::Exhausted) {
    RunEvent E{static_cast<RunEvent::Kind>(N.K), N.At, CurrentTask, N.From,
               N.To, N.Stay, N.Switch, N.Restored};
    if (N.K == Note::Redispatch)
      Result.Redispatches.push_back(E);
    if (Rec)
      Rec->event(std::move(E));
  }
  obs::StatsRegistry &Stats = obs::StatsRegistry::global();
  obs::Tracer &Trace = obs::Tracer::global();
  bool Tracing = Trace.enabled();
  // The event-log line, stamped with the exact simulated time and the
  // active task (empty without a log); it commits at the end of its scope.
  auto log = [&](obs::LogLevel L, const char *Type) {
    std::optional<obs::EventLog::EventBuilder> B;
    if (Ev) {
      B.emplace(Ev->event(L, Type));
      B->field("t_units", N.At.toString());
      if (CurrentTask == KNone)
        B->field("task", nullptr);
      else
        B->field("task", CurrentTask);
      if (CurrentTask < CP.Graph.Tasks.size())
        B->field("task_label", CP.Graph.Tasks[CurrentTask].Label);
    }
    return B;
  };
  auto label = [&](unsigned Task) -> const std::string & {
    return CP.Graph.Tasks[Task].Label;
  };
  auto locName = [&](unsigned Loc) -> const std::string & {
    return CP.Memory->loc(Loc).Name;
  };
  const char *Dir = N.ToServer ? "c2s" : "s2c";
  switch (N.K) {
  case Note::Redispatch: {
    std::string From = choiceName(N.From), To = choiceName(N.To);
    Stats.counter("sim.redispatches").add();
    if (Tracing)
      Trace.instantEvent("adapt.redispatch", "sim",
                         {{"at_task", label(CurrentTask)},
                          {"from_choice", From},
                          {"to_choice", To},
                          {"predicted_stay", N.Stay.toString()},
                          {"predicted_switch", N.Switch.toString()}});
    if (auto B = log(obs::LogLevel::Info, "redispatch"))
      B->field("from_choice", From)
          .field("to_choice", To)
          .field("predicted_stay", N.Stay.toString())
          .field("predicted_switch", N.Switch.toString());
    break;
  }
  case Note::Crash:
    if (N.Rollback) {
      ++Result.CrashRecoveries;
      Stats.counter("recovery.crash_rollbacks").add();
    }
    log(obs::LogLevel::Warn, "server-crash");
    break;
  case Note::Restart:
    log(obs::LogLevel::Info, "server-restart");
    break;
  case Note::Fallback:
    ++Result.Fallbacks;
    Result.LedgerRestores += N.Restored;
    Stats.counter("sim.fallbacks").add();
    if (N.Restored)
      Stats.counter("recovery.ledger_restores").add(N.Restored);
    if (Tracing)
      Trace.instantEvent("sim.fallback", "sim",
                         {{"resume_task", label(CurrentTask)},
                          {"restored", N.Restored},
                          {"permanent", LocalFallback ? "false" : "true"}});
    if (auto B = log(obs::LogLevel::Info, "fallback"))
      B->field("restored", N.Restored).field("permanent", !LocalFallback);
    break;
  case Note::Reoffload:
    ++Result.Reoffloads;
    Stats.counter("recovery.reoffloads").add();
    if (auto B = log(obs::LogLevel::Info, "re-offload"))
      B->field("to_choice", N.To);
    break;
  case Note::Exhausted:
    Stats.counter("recovery.probe_budget_exhausted").add();
    if (Tracing)
      Trace.instantEvent("recovery.probe_exhausted", "sim",
                         {{"probes", ProbesSent}});
    if (auto B = log(obs::LogLevel::Warn, "probe-exhausted"))
      B->field("probes", ProbesSent);
    break;
  case Note::Probe:
    if (Tracing)
      Trace.instantEvent("recovery.probe", "sim",
                         {{"delivered", N.Delivered ? "true" : "false"},
                          {"probes_sent", ProbesSent}});
    if (auto B = log(obs::LogLevel::Info, "probe"))
      B->field("delivered", N.Delivered)
          .field("probes_sent", ProbesSent)
          .field("probe_bytes", Opts.Adapt.ProbeBytes);
    break;
  case Note::LedgerEvict:
  case Note::LedgerRefetch: {
    bool Evict = N.K == Note::LedgerEvict;
    ++(Evict ? Result.LedgerEvictions : Result.LedgerRefetches);
    Stats.counter(Evict ? "recovery.ledger_evictions"
                        : "recovery.ledger_refetches")
        .add();
    auto B = log(obs::LogLevel::Info,
                 Evict ? "ledger-evict" : "ledger-refetch");
    if (!B)
      break;
    B->field("region", N.Region)
        .field("loc", N.Region < Regions.size()
                          ? locName(Regions[N.Region].LocId)
                          : std::string("?"))
        .field("bytes", N.Bytes);
    if (Evict)
      B->field("pinned_bytes", PinnedBytes);
    break;
  }
  case Note::Schedule: // Made only while tracing.
    Trace.instantEvent("sim.schedule", "sim",
                       {{"from_task", label(N.FromTask)},
                        {"to_task", label(CurrentTask)},
                        {"dir", Dir}});
    break;
  case Note::Transfer: // Made only while tracing.
    Trace.instantEvent("sim.transfer", "sim",
                       {{"from_task", label(N.FromTask)},
                        {"to_task", label(CurrentTask)},
                        {"data", locName(N.Loc)},
                        {"loc", N.Loc},
                        {"bytes", N.Bytes},
                        {"dir", Dir}});
    break;
  case Note::RunStart:
    if (auto B = log(obs::LogLevel::Info, "run-start"))
      B->field("choice", choiceName(Choice))
          .field("mode", Opts.Mode == ExecOptions::Placement::AllClient
                             ? "all-client"
                             : (Opts.Mode == ExecOptions::Placement::Dispatch
                                    ? "dispatch"
                                    : "forced"))
          .field("closed_loop", ClosedLoop);
    break;
  case Note::RunEnd:
    if (auto B = log(obs::LogLevel::Info, "run-end"))
      B->field("ok", Result.OK)
          .field("degraded", Result.Degraded)
          .field("final_choice", choiceName(Result.FinalChoice))
          .field("crashes", Result.Crashes)
          .field("redispatches",
                 static_cast<uint64_t>(Result.Redispatches.size()))
          .field("reoffloads", Result.Reoffloads)
          .field("transfers", Result.TransferCount)
          .field("timeouts", Result.Timeouts)
          .field("retries", Result.Retries);
    break;
  }
}

bool Machine::crossTask(unsigned NewTask) {
  unsigned OldTask = CurrentTask;
  CurrentTask = NewTask;
  recEndSegment();
  // A degraded (or probing-fallback) run self-schedules everything on the
  // client: no messages, no transfers, exactly like running under the
  // all-client partitioning.
  if (!offloaded()) {
    recBeginSegment();
    return true;
  }
  bool NewServer = taskOnServer(NewTask);
  if (NewServer != OnServer) {
    if (!recMessage(MessageRecord::Kind::Schedule, NewServer, OldTask,
                    NewTask, KNone, 0,
                    [&] { return Sim.trySchedule(/*ToServer=*/NewServer); }))
      return linkLost("task-scheduling message");
    OnServer = NewServer;
    if (obs::Tracer::global().enabled()) // Schedule notes only trace
      note({.K = Note::Schedule, .FromTask = OldTask, .ToServer = NewServer});
  }
  for (const Movement &Move : transferSet(OldTask, NewTask)) {
    uint64_t Bytes = 0;
    unsigned ElemBytes = elementBytes(CP.Memory->loc(Move.LocId).ElemType);
    auto LiveIt = LiveOfLoc.find(Move.LocId);
    if (LiveIt != LiveOfLoc.end())
      for (unsigned RegionId : LiveIt->second)
        Bytes += Regions[RegionId].Client.size() * ElemBytes;
    // Drive the message through the (possibly lossy) link first; the
    // destination copies change only when the data actually arrives.
    if (!recMessage(MessageRecord::Kind::Transfer, Move.ToServer, OldTask,
                    NewTask, Move.LocId, Bytes,
                    [&] { return Sim.tryTransfer(Move.ToServer, Bytes); }))
      return linkLost("data transfer");
    if (obs::Tracer::global().enabled()) // Transfer notes only trace
      note({.K = Note::Transfer,
            .Loc = Move.LocId,
            .Bytes = Bytes,
            .FromTask = OldTask,
            .ToServer = Move.ToServer});
    if (LiveIt != LiveOfLoc.end()) {
      for (unsigned RegionId : LiveIt->second) {
        // The transfer's purpose is to validate the destination copy; the
        // data always comes from the currently valid copy (the static
        // certificate may schedule a transfer whose nominal source copy
        // is stale -- nothing in the paper's constraint system forbids
        // it -- in which case the destination is already up to date and
        // only the cost is charged).
        MemRegion &Region = Regions[RegionId];
        if (Move.ToServer) {
          if (Region.ClientValid) {
            Region.Server = Region.Client;
            Region.ServerValid = true;
          }
        } else {
          if (Region.ServerValid) {
            Region.Client = Region.Server;
            Region.ClientValid = true;
          }
        }
      }
    }
  }
  recBeginSegment();
  return true;
}

bool Machine::maybeAdapt() {
  ++Boundaries;
  ++BoundariesSinceSwitch;
  if (Boundaries % EvalPeriod != 0)
    return true;
  if (Prof->samples() < Opts.Adapt.MinSamples)
    return true;
  if (Result.Redispatches.size() >= Opts.Adapt.MaxRedispatches)
    return true;

  CostModel Profiled = Prof->model();
  Rational Stay = reprice(Choice, Profiled);
  // Candidates: every computed cut plus the all-client fallback -- the
  // safe landing when the profiled point matches no region at all.
  unsigned Best = Choice;
  Rational BestCost = Stay;
  for (unsigned C = 0; C <= CP.Partition.Choices.size(); ++C) {
    unsigned Cand = C == CP.Partition.Choices.size() ? KNone : C;
    if (Cand == Choice)
      continue;
    Rational Cost = reprice(Cand, Profiled);
    if (Cost < BestCost) {
      Best = Cand;
      BestCost = Cost;
    }
  }

  // Hysteresis: the challenger must beat the incumbent by the margin,
  // keep winning for ConfirmEvals consecutive evaluations, and the run
  // must have dwelt on the incumbent long enough.
  static const Rational One(1);
  if (Best == Choice ||
      !(BestCost <= Stay * (One - Opts.Adapt.SwitchMargin))) {
    HavePending = false;
    PendingStreak = 0;
    return true;
  }
  if (!HavePending || PendingChoice != Best) {
    HavePending = true;
    PendingChoice = Best;
    PendingStreak = 1;
  } else {
    ++PendingStreak;
  }
  if (PendingStreak < Opts.Adapt.ConfirmEvals ||
      BoundariesSinceSwitch < Opts.Adapt.MinDwellBoundaries)
    return true;
  return redispatch(Best, std::move(Stay), std::move(BestCost));
}

bool Machine::migrateLoc(unsigned D, bool ToServer) {
  auto LiveIt = LiveOfLoc.find(D);
  if (LiveIt == LiveOfLoc.end() || LiveIt->second.empty())
    return true;
  bool Stale = false;
  uint64_t Bytes = 0;
  unsigned ElemBytes = elementBytes(CP.Memory->loc(D).ElemType);
  for (unsigned RegionId : LiveIt->second) {
    const MemRegion &Region = Regions[RegionId];
    Stale = Stale || !(ToServer ? Region.ServerValid : Region.ClientValid);
    Bytes += Region.Client.size() * ElemBytes;
  }
  if (!Stale)
    return true;
  if (!recMessage(MessageRecord::Kind::Transfer, ToServer, CurrentTask,
                  CurrentTask, D, Bytes,
                  [&] { return Sim.tryTransfer(ToServer, Bytes); }))
    return linkLost("re-dispatch data transfer");
  for (unsigned RegionId : LiveIt->second) {
    // Like crossTask: the valid copy is the source; a region whose
    // destination copy is already valid is untouched.
    MemRegion &Region = Regions[RegionId];
    if (ToServer) {
      if (Region.ClientValid) {
        Region.Server = Region.Client;
        Region.ServerValid = true;
      }
    } else {
      if (Region.ServerValid) {
        Region.Client = Region.Server;
        Region.ClientValid = true;
      }
    }
  }
  return true;
}

bool Machine::redispatch(unsigned NewChoice, Rational Stay, Rational Go) {
  recEndSegment(); // The switch happens between tasks.
  Rational At = Sim.now();
  unsigned From = Choice;
  Choice = NewChoice;
  // The cached movement sets encode the old choice's certificate.
  MovementCache.clear();

  // Reconcile the live state with the new choice's entry assumptions at
  // this boundary through real (charged, lossy) messages: move the host
  // if the boundary task now runs elsewhere, then make every copy the
  // new certificate claims valid at this task actually valid. A lost
  // message lands in the ordinary rollback path against the checkpoint
  // just taken.
  bool NewServer = taskOnServer(CurrentTask);
  if (NewServer != OnServer) {
    if (!recMessage(MessageRecord::Kind::Schedule, NewServer, CurrentTask,
                    CurrentTask, KNone, 0,
                    [&] { return Sim.trySchedule(NewServer); }))
      return linkLost("re-dispatch scheduling message");
    OnServer = NewServer;
  }
  if (Choice == KNone) {
    // All-client from here on: every live region must be client-valid.
    for (const auto &[D, RegionList] : LiveOfLoc) {
      (void)RegionList;
      if (!migrateLoc(D, /*ToServer=*/false))
        return false;
    }
  } else {
    for (unsigned D : CP.Problem.DataItems) {
      auto It = CP.Problem.VNodes.find({CurrentTask, D});
      if (It == CP.Problem.VNodes.end())
        continue;
      if (CP.Partition.nodeValue(Choice, It->second.Vsi) &&
          !migrateLoc(D, /*ToServer=*/true))
        return false;
      if (!CP.Partition.nodeValue(Choice, It->second.NVci) &&
          !migrateLoc(D, /*ToServer=*/false))
        return false;
    }
  }
  // The completed switch is the new rollback anchor and dwell origin.
  takeCheckpoint();
  BoundariesSinceSwitch = 0;
  HavePending = false;
  PendingStreak = 0;

  note({.K = Note::Redispatch,
        .At = std::move(At),
        .From = From,
        .To = NewChoice,
        .Stay = std::move(Stay),
        .Switch = std::move(Go)});
  recBeginSegment();
  return true;
}

bool Machine::evalOperand(const Operand &O, Value &Out) {
  switch (O.K) {
  case Operand::Kind::ConstInt:
    Out = Value::ofInt(O.IntVal);
    return true;
  case Operand::Kind::ConstFloat:
    Out = Value::ofDouble(O.FloatVal);
    return true;
  case Operand::Kind::Local:
    return loadMem(frame().LocalRegions[O.Index], 0, Out);
  case Operand::Kind::Global:
    return loadMem(GlobalRegion[O.Index], 0, Out);
  case Operand::Kind::FuncRef:
    Out = Value::ofFunc(O.Index);
    return true;
  case Operand::Kind::RtParam:
    Out = Value::ofInt(Opts.ParamValues[O.Index]);
    return true;
  case Operand::Kind::None:
    Out = Value();
    return true;
  }
  return fail("bad operand");
}

bool Machine::pushFrame(unsigned FuncIdx, unsigned RetFunc, unsigned RetBlock,
                        unsigned RetDstVar) {
  if (Stack.size() > 4096)
    return fail("call stack overflow");
  Frame F;
  F.FuncIdx = FuncIdx;
  F.RetFunc = RetFunc;
  F.RetBlock = RetBlock;
  F.RetDstVar = RetDstVar;
  const IRFunction &Fn = *CP.Module->Functions[FuncIdx];
  F.LocalRegions.reserve(Fn.Locals.size());
  for (unsigned L = 0; L != Fn.Locals.size(); ++L) {
    const LocalVar &Var = Fn.Locals[L];
    size_t Elems = Var.IsArray ? static_cast<size_t>(Var.ArraySize) : 1;
    F.LocalRegions.push_back(
        newRegion(CP.Memory->localLoc(FuncIdx, L), Elems, Var.Type));
  }
  Stack.push_back(std::move(F));
  return true;
}

bool Machine::enterBlock(unsigned FuncIdx, unsigned Block) {
  CurFunc = FuncIdx;
  CurBlock = Block;
  InstrIdx = 0;
  unsigned Task = CP.Graph.taskOfBlock(FuncIdx, Block);
  if (Task != CurrentTask)
    return crossTask(Task);
  return true;
}

bool Machine::execArith(const Instr &I) {
  Value A, B;
  if (!evalOperand(I.A, A) || !evalOperand(I.B, B))
    return false;
  Value Out;
  bool IsDouble = I.Ty == TypeKind::Double;
  switch (I.Op) {
  case Opcode::Add:
    Out = IsDouble ? Value::ofDouble(A.D + B.D) : Value::ofInt(A.I + B.I);
    break;
  case Opcode::Sub:
    Out = IsDouble ? Value::ofDouble(A.D - B.D) : Value::ofInt(A.I - B.I);
    break;
  case Opcode::Mul:
    Out = IsDouble ? Value::ofDouble(A.D * B.D) : Value::ofInt(A.I * B.I);
    break;
  case Opcode::Div:
    if (IsDouble) {
      Out = Value::ofDouble(B.D == 0.0 ? 0.0 : A.D / B.D);
    } else {
      if (B.I == 0)
        return fail("integer division by zero");
      Out = Value::ofInt(A.I / B.I);
    }
    break;
  case Opcode::Rem:
    if (B.I == 0)
      return fail("integer remainder by zero");
    Out = Value::ofInt(A.I % B.I);
    break;
  case Opcode::And: Out = Value::ofInt(A.I & B.I); break;
  case Opcode::Or:  Out = Value::ofInt(A.I | B.I); break;
  case Opcode::Xor: Out = Value::ofInt(A.I ^ B.I); break;
  case Opcode::Shl: Out = Value::ofInt(A.I << (B.I & 63)); break;
  case Opcode::Shr: Out = Value::ofInt(A.I >> (B.I & 63)); break;
  case Opcode::CmpLt:
  case Opcode::CmpLe:
  case Opcode::CmpGt:
  case Opcode::CmpGe:
  case Opcode::CmpEq:
  case Opcode::CmpNe: {
    int Cmp = 0;
    if (I.Ty == TypeKind::Double)
      Cmp = A.D < B.D ? -1 : (A.D > B.D ? 1 : 0);
    else if (isPointerType(I.Ty))
      Cmp = A.Region != B.Region ? (A.Region < B.Region ? -1 : 1)
                                 : (A.Off < B.Off ? -1 : (A.Off > B.Off));
    else if (I.Ty == TypeKind::Func)
      Cmp = A.Func != B.Func;
    else
      Cmp = A.I < B.I ? -1 : (A.I > B.I ? 1 : 0);
    bool R = false;
    switch (I.Op) {
    case Opcode::CmpLt: R = Cmp < 0; break;
    case Opcode::CmpLe: R = Cmp <= 0; break;
    case Opcode::CmpGt: R = Cmp > 0; break;
    case Opcode::CmpGe: R = Cmp >= 0; break;
    case Opcode::CmpEq: R = Cmp == 0; break;
    case Opcode::CmpNe: R = Cmp != 0; break;
    default: break;
    }
    Out = Value::ofInt(R);
    break;
  }
  default:
    return fail("bad arithmetic opcode");
  }
  return writeLocal(I.Dst, Out);
}

bool Machine::execInstr(const Instr &I) {
  switch (I.Op) {
  case Opcode::Copy: {
    Value A;
    if (!evalOperand(I.A, A))
      return false;
    if (I.Dst != KNone)
      return writeLocal(I.Dst, A);
    return true;
  }
  case Opcode::IntToFloat: {
    Value A;
    if (!evalOperand(I.A, A))
      return false;
    return writeLocal(I.Dst, Value::ofDouble(static_cast<double>(A.I)));
  }
  case Opcode::FloatToInt: {
    Value A;
    if (!evalOperand(I.A, A))
      return false;
    return writeLocal(I.Dst, Value::ofInt(static_cast<int64_t>(A.D)));
  }
  case Opcode::Neg: {
    Value A;
    if (!evalOperand(I.A, A))
      return false;
    return writeLocal(I.Dst, I.Ty == TypeKind::Double
                                 ? Value::ofDouble(-A.D)
                                 : Value::ofInt(-A.I));
  }
  case Opcode::Not: {
    Value A;
    if (!evalOperand(I.A, A))
      return false;
    return writeLocal(I.Dst, Value::ofInt(A.I == 0));
  }
  case Opcode::BitNot: {
    Value A;
    if (!evalOperand(I.A, A))
      return false;
    return writeLocal(I.Dst, Value::ofInt(~A.I));
  }
  case Opcode::AddrOfVar: {
    unsigned Region = I.A.K == Operand::Kind::Global
                          ? GlobalRegion[I.A.Index]
                          : frame().LocalRegions[I.A.Index];
    return writeLocal(I.Dst, Value::ofPointer(I.Ty, Region, 0));
  }
  case Opcode::PtrAdd: {
    Value A, B;
    if (!evalOperand(I.A, A) || !evalOperand(I.B, B))
      return false;
    return writeLocal(I.Dst,
                      Value::ofPointer(I.Ty, A.Region, A.Off + B.I));
  }
  case Opcode::Load: {
    Value A, B, Out;
    if (!evalOperand(I.A, A) || !evalOperand(I.B, B))
      return false;
    if (!loadMem(A.Region, A.Off + B.I, Out))
      return false;
    return writeLocal(I.Dst, Out);
  }
  case Opcode::Store: {
    Value A, B, C;
    if (!evalOperand(I.A, A) || !evalOperand(I.B, B) ||
        !evalOperand(I.C, C))
      return false;
    return storeMem(A.Region, A.Off + B.I, C);
  }
  case Opcode::Malloc: {
    Value A;
    if (!evalOperand(I.A, A))
      return false;
    if (A.I < 0 || A.I > (int64_t(1) << 28))
      return fail("malloc size out of range");
    unsigned LocId = CP.Memory->allocLoc(I.AllocSite);
    unsigned Region = newRegion(LocId, static_cast<size_t>(A.I),
                                CP.Memory->loc(LocId).ElemType);
    // Registration overhead when the static analysis decides the data is
    // accessed by both hosts (paper section 2.3).
    auto It = CP.Problem.AccessNodes.find(LocId);
    if (offloaded() && It != CP.Problem.AccessNodes.end()) {
      bool Ns = CP.Partition.nodeValue(Choice, It->second.first);
      bool Nc = !CP.Partition.nodeValue(Choice, It->second.second);
      if (Ns && Nc) {
        // Registration strikes mid-segment, so the timeline splits the
        // segment around the message.
        recEndSegment();
        if (!recMessage(MessageRecord::Kind::Registration, true, CurrentTask,
                        CurrentTask, LocId, 0,
                        [&] { return Sim.tryRegistration(); }))
          return linkLost("registration");
        recBeginSegment();
      }
    }
    return writeLocal(I.Dst, Value::ofPointer(I.Ty, Region, 0));
  }
  case Opcode::IoRead: {
    if (OnServer)
      return fail("I/O executed on the server (analysis bug)");
    return writeLocal(I.Dst, Value::ofInt(nextInput()));
  }
  case Opcode::IoWrite: {
    if (OnServer)
      return fail("I/O executed on the server (analysis bug)");
    Value A;
    if (!evalOperand(I.A, A))
      return false;
    Result.Outputs.push_back(A.K == TypeKind::Double
                                 ? A.D
                                 : static_cast<double>(A.I));
    return true;
  }
  case Opcode::IoReadBuf:
  case Opcode::IoWriteBuf: {
    if (OnServer)
      return fail("I/O executed on the server (analysis bug)");
    Value A, B;
    if (!evalOperand(I.A, A) || !evalOperand(I.B, B))
      return false;
    bool IsRead = I.Op == Opcode::IoReadBuf;
    for (int64_t K = 0; K != B.I; ++K) {
      if (IsRead) {
        int64_t In = nextInput();
        Value V;
        if (!loadMem(A.Region, A.Off + K, V))
          return false;
        Value New = V.K == TypeKind::Double
                        ? Value::ofDouble(static_cast<double>(In))
                        : Value::ofInt(In);
        if (!storeMem(A.Region, A.Off + K, New))
          return false;
      } else {
        Value V;
        if (!loadMem(A.Region, A.Off + K, V))
          return false;
        Result.Outputs.push_back(V.K == TypeKind::Double
                                     ? V.D
                                     : static_cast<double>(V.I));
      }
    }
    return true;
  }
  case Opcode::Call: {
    std::vector<Value> Args(I.Args.size());
    for (size_t A = 0; A != I.Args.size(); ++A)
      if (!evalOperand(I.Args[A], Args[A]))
        return false;
    if (!pushFrame(I.Callee, CurFunc, I.Succ0, I.Dst))
      return false;
    // Parameter values are written on the caller's host; if the callee
    // runs elsewhere, the validity transfers on the call edge move them.
    for (size_t A = 0; A != Args.size(); ++A)
      if (!storeMem(frame().LocalRegions[A], 0, Args[A]))
        return false;
    return enterBlock(I.Callee, 0);
  }
  case Opcode::CallInd: {
    Value A;
    if (!evalOperand(I.A, A))
      return false;
    if (A.Func == KNone)
      return fail("indirect call through null func value");
    if (!pushFrame(A.Func, CurFunc, I.Succ0, KNone))
      return false;
    return enterBlock(A.Func, 0);
  }
  case Opcode::Ret: {
    Value RetVal;
    bool HasValue = !I.A.isNone();
    if (HasValue) {
      if (!evalOperand(I.A, RetVal))
        return false;
      if (!storeMem(RetRegion[CurFunc], 0, RetVal))
        return false;
    }
    Frame Done = std::move(Stack.back());
    for (unsigned Region : Done.LocalRegions)
      killRegion(Region);
    Stack.pop_back();
    if (Stack.empty()) {
      // main returned: hand control to the virtual exit task.
      if (!crossTask(CP.Graph.ExitTask))
        return false;
      Finished = true;
      return true;
    }
    unsigned Callee = Done.FuncIdx;
    if (!enterBlock(Done.RetFunc, Done.RetBlock))
      return false;
    if (Done.RetDstVar != KNone) {
      // The continuation task receives the return value (after any
      // transfer on the return edge).
      Value Out;
      if (!loadMem(RetRegion[Callee], 0, Out))
        return false;
      return writeLocal(Done.RetDstVar, Out);
    }
    return true;
  }
  case Opcode::Br: {
    Value A;
    if (!evalOperand(I.A, A))
      return false;
    return enterBlock(CurFunc, A.I != 0 ? I.Succ0 : I.Succ1);
  }
  case Opcode::Jmp:
    return enterBlock(CurFunc, I.Succ0);
  default:
    return execArith(I);
  }
}

ExecResult Machine::run() {
  obs::ScopedSpan Span("interp.run", "interp");
  if (Rec)
    Rec->clear();
  // Placement choice.
  if (Opts.Mode == ExecOptions::Placement::Forced) {
    Choice = Opts.ForcedChoice;
  } else if (Opts.Mode == ExecOptions::Placement::Dispatch) {
    FullPoint = CP.parameterPoint(Opts.ParamValues);
    Choice = CP.Partition.pickChoice(FullPoint);
  }
  if (ClosedLoop && FullPoint.empty())
    FullPoint = CP.parameterPoint(Opts.ParamValues);
  Result.ChoiceUsed = Choice;
  note({.K = Note::RunStart});

  // Globals: client copies take the initializers, server copies start
  // zeroed (they are invalid until a transfer).
  GlobalRegion.resize(CP.Module->Globals.size());
  for (unsigned G = 0; G != CP.Module->Globals.size(); ++G) {
    const GlobalVar &Var = CP.Module->Globals[G];
    size_t Elems = Var.IsArray ? static_cast<size_t>(Var.ArraySize) : 1;
    GlobalRegion[G] = newRegion(CP.Memory->globalLoc(G), Elems, Var.Type);
    MemRegion &Region = Regions[GlobalRegion[G]];
    if (!Var.Init.empty()) {
      Region.ClientValid = true;
      Region.ServerValid = false;
    }
    std::vector<Value> &Client = Region.Client;
    for (size_t K = 0; K != Var.Init.size() && K != Elems; ++K) {
      const Operand &Init = Var.Init[K];
      Client[K] = Var.Type == TypeKind::Double
                      ? Value::ofDouble(Init.K == Operand::Kind::ConstFloat
                                            ? Init.FloatVal
                                            : double(Init.IntVal))
                      : Value::ofInt(Init.IntVal);
    }
  }
  RetRegion.resize(CP.Module->Functions.size());
  for (unsigned F = 0; F != CP.Module->Functions.size(); ++F) {
    TypeKind Ty = CP.Module->Functions[F]->RetType;
    RetRegion[F] = newRegion(CP.Memory->retLoc(F), 1,
                             Ty == TypeKind::Void ? TypeKind::Int : Ty);
  }

  TaskInstrCounts.assign(CP.Graph.numTasks(), 0);
  CurrentTask = CP.Graph.EntryTask;
  OnServer = false;
  if (CP.Module->MainIndex == KNone) {
    Result.Error = "no main function";
    Result.Failure = ExecResult::FailureKind::BadInput;
    return Result;
  }
  if (!pushFrame(CP.Module->MainIndex, KNone, KNone, KNone))
    return Result;

  // Arm task-boundary checkpointing only when a fault can actually
  // strike and the policy wants recovery, or when the closed loop needs
  // boundaries to re-dispatch at; the common (fault-free, static) case
  // never pays for it. A drift schedule with Down phases can fail even
  // a nominally fault-free link. The initial checkpoint describes the
  // state "about to execute main's first instruction, locally": even a
  // failure on the very first task boundary can roll back to it.
  bool DriftCanFail = false;
  for (const DriftPhase &P : Opts.Drift.Phases)
    DriftCanFail = DriftCanFail || P.Down;
  CheckpointsOn =
      Choice != KNone &&
      ((EffPolicy == FaultPolicy::DegradeToLocal &&
        (!Opts.Link.faultFree() || DriftCanFail || CrashArmed)) ||
       ClosedLoop);
  // The recovery ledger runs only when a crash can actually destroy
  // server-held data *and* the policy will roll back instead of failing.
  LedgerOn = CrashArmed && Choice != KNone &&
             EffPolicy == FaultPolicy::DegradeToLocal && CheckpointsOn;
  if (CheckpointsOn) {
    unsigned SavedTask = CurrentTask;
    CurrentTask = CP.Graph.taskOfBlock(CP.Module->MainIndex, 0);
    CurFunc = CP.Module->MainIndex;
    CurBlock = 0;
    InstrIdx = 0;
    takeCheckpoint();
    CurrentTask = SavedTask;
  }

  recBeginSegment(); // The virtual entry task opens the timeline.
  if (!enterBlock(CP.Module->MainIndex, 0))
    rollback(); // Either restores into the loop below or leaves Failed set.

  while (!Failed && !Finished) {
    // Server lifecycle events fire strictly at the instruction/message
    // grain the simulated clock advances by; handle them at the loop
    // top, where no instruction is mid-flight.
    if (CrashArmed && Sim.serverEventPending() && !handleServerEvents() &&
        !rollback())
      break;
    if (CheckpointsOn && LocalFallback) {
      // Probing fallback: no checkpoints (the client-only run cannot
      // fail recoverably), but each fresh task boundary may probe.
      if (CurrentTask != LastFallbackTask) {
        LastFallbackTask = CurrentTask;
        if (!maybeProbe() && !rollback())
          break;
      }
    } else if (CheckpointsOn && !Degraded &&
               CurrentTask != Ckpt.CurrentTask) {
      // Pin server-authoritative items *before* the checkpoint, and
      // re-check for a crash that crossed mid-sync: the pins commit
      // only together with the snapshot they protect.
      if (LedgerOn && !syncLedger()) {
        if (!rollback())
          break;
        continue;
      }
      if (CrashArmed && Sim.serverEventPending())
        continue;
      takeCheckpoint();
      if (LedgerOn)
        commitLedger();
      // The boundary checkpoint doubles as the re-dispatch point: the
      // drift detector runs here, where no instruction is mid-flight
      // and a failed switch can roll back to the snapshot just taken.
      if (ClosedLoop && !maybeAdapt() && !rollback())
        break;
    }
    const BasicBlock &Block = func().Blocks[CurBlock];
    if (InstrIdx >= Block.Instrs.size()) {
      fail("fell off the end of a basic block");
      break;
    }
    const Instr &I = Block.Instrs[InstrIdx++];
    // Charge the instruction's cost weight: 1 straight from lowering, or
    // the folded weight of optimized-away neighbours, so simulated time
    // and instruction accounting match the unoptimized program exactly.
    Executed += I.Units;
    if (Executed > Opts.MaxInstructions) {
      fail("instruction budget exceeded",
           ExecResult::FailureKind::InstructionLimit);
      break;
    }
    Sim.execInstructions(OnServer, I.Units);
    TaskInstrCounts[CurrentTask] += I.Units;
    SegInstrs += I.Units;
    if (!execInstr(I) && !rollback())
      break;
  }
  recEndSegment();
  Sim.flushInstrs();

  Result.OK = !Failed;
  Result.Time = Sim.elapsed();
  Result.EnergyJoules = Sim.energyJoules(Energy);
  Result.ClientInstrs = Sim.clientInstructions();
  Result.ServerInstrs = Sim.serverInstructions();
  Result.Migrations = Sim.migrations();
  Result.TransferCount = Sim.transferCount();
  Result.BytesToServer = Sim.bytesToServer();
  Result.BytesToClient = Sim.bytesToClient();
  Result.Registrations = Sim.registrationCount();
  Result.SchedulingTime = Sim.schedulingTime();
  Result.TransferTime = Sim.transferTime();
  Result.RegistrationTime = Sim.registrationTime();
  Result.Timeouts = Sim.timeouts();
  Result.Retries = Sim.retries();
  Result.FaultTime = Sim.faultTime() + Sim.jitterTime();
  // A run still sitting in the probing fallback at exit finished on the
  // client, exactly like a permanent degrade.
  Result.Degraded = Degraded || LocalFallback;
  Result.FinalChoice = (Degraded || LocalFallback) ? KNone : Choice;
  Result.Crashes = Sim.crashCount();
  Result.Restarts = Sim.restartCount();
  Result.Probes = Sim.probes();
  Result.ProbeFailures = Sim.probeFailures();
  Result.LedgerSyncs = Sim.ledgerSyncs();
  Result.LedgerSyncBytes = Sim.ledgerBytes();
  Result.ProbeTime = Sim.probeTime();
  Result.LedgerTime = Sim.ledgerTime();
  for (unsigned T = 0; T != TaskInstrCounts.size(); ++T)
    if (TaskInstrCounts[T])
      Result.TaskInstrs[T] = TaskInstrCounts[T];
  Span.arg("instructions", Executed);
  Span.arg("transfers", Result.TransferCount);
  Span.arg("migrations", Result.Migrations);
  note({.K = Note::RunEnd, .At = Result.Time});
  return Result;
}

} // namespace

ExecResult paco::runProgram(const CompiledProgram &CP, const ExecOptions &Opts,
                            const EnergyModel &Energy) {
  Machine M(CP, Opts, Energy);
  return M.run();
}
