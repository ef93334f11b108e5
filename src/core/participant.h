#ifndef O2PC_CORE_PARTICIPANT_H_
#define O2PC_CORE_PARTICIPANT_H_

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/flat_hash.h"
#include "common/retry_policy.h"
#include "common/types.h"
#include "core/compensation.h"
#include "core/global_txn.h"
#include "core/marking.h"
#include "core/messages.h"
#include "core/protocol.h"
#include "core/step_hook.h"
#include "local/local_db.h"
#include "metrics/stats.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "trace/trace.h"

/// \file
/// The participant role of one site: executes subtransactions (applying
/// rule R1's marking check first), answers VOTE-REQ, and processes the
/// DECISION — which, under O2PC, is where the two protocols diverge:
///
///   * 2PC   : vote commit => kPrepared, exclusive locks held until the
///             DECISION (blocking window);
///   * O2PC  : vote commit => locally-committed, **all locks released**;
///             DECISION = abort => compensating subtransaction (rules R2,
///             R3 maintain the site marks).
///
/// A site hosting a *real action* always takes the 2PC path for that
/// transaction (§2's adjustment for non-compensatable actions).

namespace o2pc::core {

class Participant {
 public:
  struct Options {
    ProtocolConfig protocol;
    /// Reserved key whose lock serializes access to the marking sets
    /// (the paper stores `sitemarks.k` in the local database, §6.2).
    DataKey marks_key = 0;
    /// Optional step-indexed instrumentation (fault injection). Points at
    /// the owner's hook slot so it can be (re)installed after construction.
    const StepHook* step_hook = nullptr;
    /// Seeds the termination timers' jitter streams (per subtransaction,
    /// derived as seed ^ hash(global id) — order-independent, replay-safe).
    std::uint64_t seed = 0;
  };

  Participant(sim::Simulator* simulator, net::Network* network,
              local::LocalDb* db, TxnIdAllocator* ids,
              WitnessKnowledge* knowledge, metrics::StatsCollector* stats,
              Options options);
  Participant(const Participant&) = delete;
  Participant& operator=(const Participant&) = delete;

  /// Network entry point for SUBTXN-INVOKE / VOTE-REQ / DECISION /
  /// TERM-REQ / TERM-RESP.
  void OnMessage(const net::Message& message);

  /// Snapshot of the transactions this site is currently undone w.r.t.
  /// (taken by local transactions at begin, for witness bookkeeping).
  common::SmallSet<TxnId> SnapshotUndone() const { return marks_.undone; }

  /// Called when a *local* transaction that began under `entry_undone`
  /// commits: registers UDUM1 witness facts and re-evaluates rule R3.
  void WitnessLocal(const common::SmallSet<TxnId>& entry_undone);

  /// Local autonomy ([BST90], paper §1): the site unilaterally aborts its
  /// subtransaction of `global_id` — allowed any time before the
  /// subtransaction terminates (i.e. before this site votes). Returns
  /// false when it is too late (already voted / locally committed) or the
  /// transaction is unknown here. A pre-vote unilateral abort surfaces to
  /// the coordinator as a failure ack or an abort vote; O2PC preserves
  /// this right, which 2PC's prepared state would forfeit.
  bool UnilateralAbort(TxnId global_id);

  /// Site crash notification: volatile subtransaction runtimes are lost
  /// (the marks survive — the paper stores sitemarks in the database).
  /// `rolled_back_globals` are the global ids whose in-flight
  /// subtransactions recovery just rolled back; they become undone marks.
  /// Later (resent) VOTE-REQ / DECISION messages for forgotten
  /// transactions are answered from the WAL: pending-prepared and
  /// pending-exposed subtransactions re-vote commit; anything else votes
  /// abort; abort decisions for pending-exposed subtransactions re-run
  /// compensation from the logged counter-operations.
  void OnCrash(const std::vector<TxnId>& rolled_back_globals);

  // --- Site recovery phase (crash restart) ------------------------------

  /// Counters of the recovery phase's WAL analysis + catch-up pass.
  struct RecoveryStats {
    /// In-doubt subtransactions (pending-exposed + pending-prepared) the
    /// analysis pass found in the WAL.
    int in_doubt = 0;
    /// In-doubt subtransactions whose abort verdict was already known to
    /// the merged witness gossip and were resolved during catch-up.
    int resolved = 0;
  };

  /// Starts the recovery phase after an outage: merges the witness-gossip
  /// `snapshots` pulled from reachable peers, re-evaluates rule R3, and
  /// resolves every in-doubt subtransaction whose verdict the merged
  /// knowledge already carries — exec_sites are learned only from abort
  /// DECISIONs, so a known execution-site set implies T_i aborted and its
  /// compensation CT_i must replay here *before* the site accepts new
  /// work (the marking catch-up that closes the crash-window SG straddle).
  /// Prepared in-doubt subtransactions with a known verdict are rolled
  /// back first so their recovery locks cannot block the catch-up CTs.
  /// `on_catchup_settled` fires once every catch-up compensation has
  /// completed (synchronously when none run).
  RecoveryStats BeginRecovery(const std::vector<MarkingGossip>& snapshots,
                              std::function<void()> on_catchup_settled);

  /// Closes the recovery phase: arms the termination protocol
  /// (DECISION-REQ / cooperative termination) for every subtransaction
  /// still in doubt. Returns the number left unresolved.
  int FinishRecovery();

  /// Exports this site's witness-gossip snapshot (for a recovering peer's
  /// marking catch-up).
  MarkingGossip ExportKnowledge() const { return Gossip(); }

  /// In-doubt subtransactions currently pending in the WAL (pending
  /// exposed + pending prepared) — the recovery analysis pass's input.
  int InDoubtCount() const;

  const SiteMarks& marks() const { return marks_; }
  SiteId site() const { return db_->site(); }

  /// True while any subtransaction of `txn` exists here (tests).
  bool Knows(TxnId txn) const { return subtxns_.contains(txn); }

 private:
  /// Runtime of one subtransaction (one global transaction at this site).
  struct Subtxn {
    TxnId global_id = kInvalidTxn;
    SiteId coordinator = kInvalidSite;
    /// Local identity of the current execution attempt (fresh per R1
    /// retry, so the local DBMS sees distinct transactions).
    TxnId local_id = kInvalidTxn;
    std::vector<local::Operation> ops;
    std::size_t next_op = 0;
    /// transmarks.j as received with the invoke (pre-merge; null on a
    /// first hop).
    std::shared_ptr<const TransMarks> invoke_marks;
    /// Start time of the global incarnation (for retirement fences).
    SimTime txn_start = 0;
    /// When rule R1 admitted this attempt (tombstones no newer than this
    /// were already evaluated by the admission fence).
    SimTime admit_time = 0;
    /// transmarks.j after merging this site's marks (returned in the ack).
    /// The only TransMarks an admitted hop builds; null with marking off.
    std::shared_ptr<const TransMarks> merged_marks;
    /// The undone set observed at entry — this subtransaction "executed
    /// while the site was undone" w.r.t. exactly these transactions.
    common::SmallSet<TxnId> entry_undone;
    bool force_abort_vote = false;
    /// Attempt number of the current invoke (R1 retries bump it).
    int attempt = -1;
    bool executed = false;   // ops ran to completion (acked OK)
    bool voted = false;
    bool vote_commit = false;
    bool decided = false;
    bool decision_acked = false;
    /// Cached ack payloads for duplicate-message resends.
    std::shared_ptr<const SubtxnAckPayload> last_ack;
    std::shared_ptr<const VotePayload> last_vote;
    std::shared_ptr<const DecisionAckPayload> last_decision_ack;

    // --- Termination state (blocking resolution). ---
    /// Peer participants from the VOTE-REQ; the CTP query targets.
    std::vector<SiteId> participants;
    /// The learned outcome, cached to answer TERM-REQs from blocked peers.
    bool decision_commit = false;
    bool decision_exposed = false;
    std::vector<SiteId> decision_exec_sites;
    /// When this subtransaction entered the prepared state (kInvalid when
    /// it never did); feeds the blocked_prepared metrics.
    SimTime prepared_at = 0;
    /// Backoff schedule of the post-vote decision timer.
    common::RetryPolicy term_policy;
    /// Timer liveness guards: a pending timer event fires only while the
    /// captured sequence number still matches (reinitialization, crash
    /// recovery, and cancellation all bump it).
    std::uint64_t term_seq = 0;
    std::uint64_t prevote_seq = 0;
    sim::EventId term_event = sim::kInvalidEvent;
    sim::EventId prevote_event = sim::kInvalidEvent;
    /// Decision-timer rounds fired so far (first rounds send DECISION-REQ,
    /// later rounds run the cooperative termination protocol).
    int term_rounds = 0;
  };

  bool MarkingActive() const {
    return options_.protocol.protocol == CommitProtocol::kOptimistic &&
           options_.protocol.governance != GovernancePolicy::kNone;
  }
  bool MaintainLcMarks() const {
    return MarkingActive() &&
           (options_.protocol.governance == GovernancePolicy::kP2 ||
            options_.protocol.governance == GovernancePolicy::kP2Literal ||
            options_.protocol.governance == GovernancePolicy::kSimple);
  }

  /// Announces a protocol step to the installed StepHook (if any).
  void Step(ProtocolStep step, TxnId txn);

  void OnSubtxnInvoke(const net::Message& message);
  void OnVoteRequest(const net::Message& message);
  void OnDecision(const net::Message& message);
  /// Cooperative termination: a blocked peer asks whether this site knows
  /// (or can force) the outcome of a transaction.
  void OnTermRequest(const net::Message& message);
  void OnTermResponse(const net::Message& message);

  // --- Termination timers (blocking resolution). ---
  /// Arms the post-vote decision timer (no-op when decision_timeout == 0
  /// or the decision is already known).
  void ArmTermination(Subtxn& sub);
  /// Arms the pre-vote local-autonomy timer at execution completion.
  void ArmPrevoteTimer(Subtxn& sub);
  /// One firing of the decision timer: DECISION-REQ first, cooperative
  /// termination rounds after `decision_req_attempts`.
  void TerminationRound(Subtxn& sub);
  /// Invalidates both timers (decision learned / runtime reinitialized).
  void CancelTermination(Subtxn& sub);
  /// Records that the decision for `sub` is now known: caches the outcome
  /// for TERM-REQ peers, cancels the timers, and closes the
  /// blocked-prepared accounting window.
  void NoteDecision(Subtxn& sub, bool commit, bool exposed,
                    const std::vector<SiteId>& exec_sites);
  /// Applies a known decision to the local state (final-commit, rollback,
  /// or compensation) and acks it — shared by OnDecision, the
  /// cooperative-termination resolution path, and recovery catch-up.
  /// `on_settled` (optional) fires once the decision's local effect is
  /// durable — immediately for commits/rollbacks, at CT completion for
  /// compensations.
  void ApplyDecision(TxnId global_id, bool commit, bool exposed,
                     const std::vector<SiteId>& exec_sites,
                     std::function<void()> on_settled = nullptr);

  /// Rebuilds a minimal runtime for a transaction forgotten in a crash,
  /// from the WAL's pending records. Returns nullptr when the WAL knows
  /// nothing pending for it. When `coordinator` is kInvalidSite, the
  /// coordinator and peer set force-logged with the vote record are used.
  Subtxn* RecoverRuntime(TxnId global_id, SiteId coordinator);

  /// Starts executing `sub`'s operations (after R1 admitted it).
  void ExecuteNext(TxnId global_id);
  /// All operations done: optional end-of-subtransaction revalidation of
  /// the marking check, then ack.
  void FinishExecution(TxnId global_id);
  /// Records witnesses and sends the OK ack.
  void CompleteExecution(Subtxn& sub);
  /// The subtransaction failed locally (deadlock, semantic error):
  /// roll back (invisible exact restore), mark undone, ack.
  void FailSubtxn(TxnId global_id, const Status& status);
  void SendAck(Subtxn& sub, std::shared_ptr<const SubtxnAckPayload> payload);
  /// Sends to `sub`'s coordinator; a no-op for a runtime that has none (a
  /// TERM-REQ stub, a WAL record that named none) — the coordinator's own
  /// resends or the termination protocol settle those.
  void SendToCoordinator(const Subtxn& sub, net::MessageType type,
                         std::shared_ptr<const net::Payload> payload);

  void SendVote(Subtxn& sub, bool commit, bool recovery_abort = false);
  void SendDecisionAck(Subtxn& sub, bool compensated);

  /// Adds the undone mark for `forward` (rule R2 already wrote the marking
  /// set under the CT's lock; this mirrors it into the fast structure).
  /// `exposed` = T_i locally committed somewhere (or might have —
  /// vote-abort marks pass true conservatively until the DECISION says).
  void AddUndoneMark(TxnId forward, bool exposed,
                     trace::MarkReason reason);
  /// Registers witness facts for a transaction that executed while this
  /// site was undone w.r.t. `entry_undone`, then applies rule R3.
  void Witness(const common::SmallSet<TxnId>& entry_undone);
  /// Rule R3: unmark every T_i whose UDUM1 condition now holds.
  void TryUnmark();

  /// Retires the undone mark for `ti` (rule R3), leaving a timestamped
  /// tombstone behind for the retirement fence. `self_witness` adds this
  /// site's witness fact first.
  void RetireMark(TxnId ti, bool self_witness);

  /// Marks whose UDUM1 condition holds once the arriving subtransaction is
  /// counted as a witness of this site. The paper executes R3 "as part of
  /// the transaction that enabled the transition", i.e. *before* rule R1's
  /// merge — without this, the mark of a transaction that executed at this
  /// site alone could never retire and every successor would livelock.
  std::vector<TxnId> RemovableWithSelfWitness() const;

  /// Outcome of the full R1 evaluation (R3 retirement, retirement fence,
  /// compatibility).
  struct MarkCheck {
    bool ok = true;
    /// Rejection that in-place retries cannot fix (fence tripped).
    bool fatal = false;
    std::string reason;
  };

  /// Runs R3 + fence + compatible() for a subtransaction arriving with
  /// `tm` whose incarnation started at `txn_start`. Has the side effect of
  /// retiring UDUM1-complete marks. Undone observations of retired marks
  /// count as absent (the transaction sits entirely in the "after CT_i"
  /// class, so the stale entry must not poison it; the admitting merge
  /// drops them). `fence_since` skips tombstones the caller already
  /// cleared (the end-of-subtransaction revalidation only fences
  /// retirements that happened after admission).
  MarkCheck EvaluateMarkCheck(const TransMarks& tm, SimTime txn_start,
                              SimTime fence_since = 0);

  /// True while T_i has a locally-committed, not-yet-compensated
  /// subtransaction at this site (exposed updates that a newcomer could
  /// still read *before* CT_i runs here).
  bool HasExposedPending(TxnId ti) const;

  MarkingGossip Gossip() const { return knowledge_->Export(); }

  sim::Simulator* simulator_;   // not owned
  net::Network* network_;       // not owned
  local::LocalDb* db_;          // not owned
  TxnIdAllocator* ids_;         // not owned
  WitnessKnowledge* knowledge_;  // not owned (site-local or shared oracle)
  metrics::StatsCollector* stats_;  // not owned
  Options options_;
  SiteMarks marks_;
  /// Rule R3 tombstones: T_i -> (retirement time, T_i's execution sites).
  /// Never shrinks, not even in OnCrash; marks_.retired mirrors its keys.
  struct Tombstone {
    SimTime retire_time = 0;
    bool exposed = true;
    std::vector<SiteId> exec_sites;
  };
  common::SmallMap<TxnId, Tombstone> retired_marks_;
  CompensationExecutor compensator_;
  std::map<TxnId, Subtxn> subtxns_;
  /// Monotonic sequence for the termination-timer liveness guards.
  std::uint64_t timer_seq_ = 0;
};

}  // namespace o2pc::core

#endif  // O2PC_CORE_PARTICIPANT_H_
