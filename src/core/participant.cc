#include "core/participant.h"

#include <algorithm>

#include "common/logging.h"
#include "net/payload_pool.h"
#include "common/string_util.h"

namespace o2pc::core {

namespace {

/// True iff a transaction with view `tm` observed T_i's mark (unless its
/// observations are `stale`) or T_i's retirement at `site`.
bool ObservedAt(const TransMarks& tm, TxnId ti, SiteId site,
                bool stale = false) {
  auto it = tm.undone_seen.find(ti);
  return (!stale && it != tm.undone_seen.end() && it->second.contains(site)) ||
         tm.SawRetired(ti, site);
}

}  // namespace

Participant::Participant(sim::Simulator* simulator, net::Network* network,
                         local::LocalDb* db, TxnIdAllocator* ids,
                         WitnessKnowledge* knowledge,
                         metrics::StatsCollector* stats, Options options)
    : simulator_(simulator),
      network_(network),
      db_(db),
      ids_(ids),
      knowledge_(knowledge),
      stats_(stats),
      options_(options),
      compensator_(simulator, db, ids, stats) {
  O2PC_CHECK(simulator != nullptr);
  O2PC_CHECK(network != nullptr);
  O2PC_CHECK(db != nullptr);
  O2PC_CHECK(knowledge != nullptr);
}

void Participant::Step(ProtocolStep step, TxnId txn) {
  if (options_.step_hook != nullptr && *options_.step_hook) {
    (*options_.step_hook)(StepContext{step, site(), txn});
  }
}

void Participant::OnMessage(const net::Message& message) {
  switch (message.type) {
    case net::MessageType::kSubtxnInvoke:
      OnSubtxnInvoke(message);
      return;
    case net::MessageType::kVoteRequest:
      OnVoteRequest(message);
      return;
    case net::MessageType::kDecision:
      OnDecision(message);
      return;
    case net::MessageType::kTermReq:
      OnTermRequest(message);
      return;
    case net::MessageType::kTermResp:
      OnTermResponse(message);
      return;
    default:
      O2PC_LOG(kWarn) << "participant " << site() << " ignoring "
                      << net::MessageTypeName(message.type);
  }
}

void Participant::OnSubtxnInvoke(const net::Message& message) {
  const auto* payload =
      static_cast<const SubtxnInvokePayload*>(message.payload.get());
  knowledge_->Merge(payload->gossip);
  TryUnmark();

  auto it = subtxns_.find(message.txn);
  if (it != subtxns_.end()) {
    Subtxn& sub = it->second;
    if (payload->attempt == sub.attempt) {
      // Network resend of the attempt we are running / have answered.
      if (sub.last_ack != nullptr) SendAck(sub, sub.last_ack);
      return;
    }
    if (payload->attempt < sub.attempt) return;  // stale resend
    if (sub.voted || sub.decided) {
      // Ghost-round retransmission: a duplicated or reordered INVOKE with
      // a higher attempt landing after this subtransaction already cast a
      // binding vote (e.g. a recovery-abort stub answered a resent
      // VOTE-REQ) or learned the DECISION. Reinitializing here would wipe
      // the binding vote and re-execute a settled transaction — a peer
      // that resolved abort off the stub via CTP would then diverge from
      // a later commit vote. Re-answer from the recorded state instead.
      // The sender is the authoritative coordinator — a stub created by a
      // TERM-REQ has none, and answering it would address kInvalidSite.
      sub.coordinator = message.from;
      if (sub.decision_acked && sub.last_decision_ack != nullptr) {
        SendDecisionAck(sub, sub.last_decision_ack->compensated);
      } else if (sub.last_vote != nullptr) {
        SendVote(sub, sub.last_vote->commit, sub.last_vote->recovery_abort);
      } else if (sub.voted) {
        SendVote(sub, sub.vote_commit, /*recovery_abort=*/!sub.vote_commit);
      }
      return;
    }
    // A genuinely new attempt (retry after rejection) falls through and
    // reinitializes the runtime below.
  }

  Subtxn& sub = subtxns_[message.txn];
  sub.global_id = message.txn;
  sub.coordinator = message.from;
  sub.ops = payload->ops;
  sub.next_op = 0;
  sub.invoke_marks = payload->transmarks;
  sub.force_abort_vote = payload->force_abort_vote;
  sub.attempt = payload->attempt;
  sub.txn_start = payload->txn_start;
  sub.executed = false;
  sub.last_ack = nullptr;
  // A fresh attempt restarts the termination clocks.
  CancelTermination(sub);
  sub.term_rounds = 0;
  sub.prepared_at = 0;
  sub.local_id = ids_->Next();
  db_->Begin(sub.local_id, TxnKind::kGlobal, sub.global_id);

  if (!MarkingActive()) {
    O2PC_TRACE(kSubtxnAdmit, site(), message.txn, sub.attempt);
    Step(ProtocolStep::kSubtxnAdmit, message.txn);
    ExecuteNext(message.txn);
    return;
  }

  // Rule R1 as the first action of T_jk: read sitemarks.k under a (short)
  // shared lock, check compatibility, accumulate into transmarks.j.
  const TxnId gid = message.txn;
  const int attempt = sub.attempt;
  db_->Execute(
      sub.local_id, local::Operation{local::OpType::kRead, options_.marks_key},
      [this, gid, attempt](Result<Value> result) {
        auto sit = subtxns_.find(gid);
        if (sit == subtxns_.end() || sit->second.attempt != attempt) return;
        Subtxn& sub = sit->second;
        if (!result.ok()) {
          if (db_->TxnState(sub.local_id) == local::LocalTxnState::kActive) {
            FailSubtxn(gid, result.status());
          }
          return;
        }
        // The paper's deadlock-avoidance compromise: unlock sitemarks.k
        // right after the check (a final validation happens at the end).
        db_->lock_manager().Release(sub.local_id, options_.marks_key);
        const common::SmallSet<TxnId> entry_undone = marks_.undone;
        static const TransMarks kFirstHop;  // the coordinator has none yet
        const TransMarks& tm =
            sub.invoke_marks != nullptr ? *sub.invoke_marks : kFirstHop;
        MarkCheck check = EvaluateMarkCheck(tm, sub.txn_start);
        if (!check.ok) {
          if (stats_ != nullptr) stats_->Incr("r1_rejections");
          O2PC_TRACE(kR1Reject, site(), gid, sub.attempt,
                     check.fatal ? 1 : 0);
          O2PC_LOG(kDebug) << "site " << site() << " rejects T" << gid
                           << (check.fatal ? " (fatal): " : ": ")
                           << check.reason;
          // The rejected probe never executed: discard it without trace.
          db_->AbortLocal(sub.local_id);
          auto ack = net::MakePayload<SubtxnAckPayload>();
          ack->status = Status::Rejected(
              StrCat("R1 at site ", site(), ": ", check.reason));
          ack->attempt = sub.attempt;
          ack->fatal = check.fatal;
          ack->gossip = Gossip();
          SendAck(sub, std::move(ack));
          return;
        }
        sub.entry_undone = entry_undone;  // includes marks retired just now
        sub.admit_time = simulator_->Now();
        auto merged = std::make_shared<TransMarks>(tm);
        MergeMarks(marks_, site(), *merged);
        sub.merged_marks = std::move(merged);
        O2PC_TRACE(kSubtxnAdmit, site(), gid, sub.attempt);
        Step(ProtocolStep::kSubtxnAdmit, gid);
        O2PC_LOG(kDebug) << "site " << site() << " admits T" << gid << " ["
                         << sub.merged_marks->ToString() << "] at "
                         << simulator_->Now();
        ExecuteNext(gid);
      });
}

void Participant::ExecuteNext(TxnId global_id) {
  Subtxn& sub = subtxns_.at(global_id);
  if (sub.next_op >= sub.ops.size()) {
    FinishExecution(global_id);
    return;
  }
  const local::Operation op = sub.ops[sub.next_op];
  const int attempt = sub.attempt;
  db_->Execute(sub.local_id, op,
               [this, global_id, attempt](Result<Value> result) {
                 auto it = subtxns_.find(global_id);
                 if (it == subtxns_.end() || it->second.attempt != attempt) {
                   return;  // stale callback of a superseded attempt
                 }
                 if (!result.ok()) {
                   // If the subtransaction is no longer active, something
                   // else (an abort decision racing a cancelled lock wait)
                   // already terminated it — nothing to do.
                   if (db_->TxnState(it->second.local_id) ==
                       local::LocalTxnState::kActive) {
                     FailSubtxn(global_id, result.status());
                   }
                   return;
                 }
                 ++it->second.next_op;
                 ExecuteNext(global_id);
               });
}

void Participant::FinishExecution(TxnId global_id) {
  Subtxn& sub = subtxns_.at(global_id);
  if (MarkingActive() && options_.protocol.revalidate_marks_at_end) {
    // Final validation of the compatibility check, as the last action of
    // the subtransaction (this lock is held until the vote, but it is the
    // last access, so the hold is short).
    const int attempt = sub.attempt;
    db_->Execute(
        sub.local_id,
        local::Operation{local::OpType::kRead, options_.marks_key},
        [this, global_id, attempt](Result<Value> result) {
          auto it = subtxns_.find(global_id);
          if (it == subtxns_.end() || it->second.attempt != attempt) return;
          Subtxn& sub = it->second;
          if (!result.ok()) {
            if (db_->TxnState(sub.local_id) ==
                local::LocalTxnState::kActive) {
              FailSubtxn(global_id, result.status());
            }
            return;
          }
          // Revalidate against the *merged* view (which includes this
          // site's entry-time observation): a mark that appeared here
          // during our execution — e.g. we were admitted before T_i's
          // rollback and our lock waits drained after it — shows up as
          // "this site is undone w.r.t. T_i but we did not see it", which
          // the backward check turns into a restart. Without this, the
          // subtransaction could sit on both sides of CT_i at different
          // sites (the straddle that builds a regular cycle).
          MarkCheck check =
              EvaluateMarkCheck(*sub.merged_marks, sub.txn_start,
                                /*fence_since=*/sub.admit_time);
          if (!check.ok) {
            if (stats_ != nullptr) stats_->Incr("r1_revalidation_failures");
            O2PC_TRACE(kR1Reject, site(), global_id, sub.attempt,
                       check.fatal ? 1 : 0);
            O2PC_LOG(kDebug) << "site " << site() << " revalidation fails T"
                             << global_id << (check.fatal ? " (fatal): " : ": ")
                             << check.reason;
            // Nothing was exposed (locks held throughout): discard the
            // attempt and let the coordinator retry or restart it.
            db_->AbortLocal(sub.local_id);
            auto ack = net::MakePayload<SubtxnAckPayload>();
            ack->status = Status::Rejected("R1 revalidation failed");
            ack->attempt = sub.attempt;
            ack->fatal = check.fatal;
            ack->gossip = Gossip();
            SendAck(sub, std::move(ack));
            return;
          }
          CompleteExecution(sub);
        });
    return;
  }
  CompleteExecution(sub);
}

void Participant::CompleteExecution(Subtxn& sub) {
  sub.executed = true;
  Witness(sub.entry_undone);
  auto ack = net::MakePayload<SubtxnAckPayload>();
  ack->status = Status::OK();
  ack->transmarks = sub.merged_marks;
  ack->attempt = sub.attempt;
  ack->gossip = Gossip();
  SendAck(sub, std::move(ack));
  ArmPrevoteTimer(sub);
}

void Participant::FailSubtxn(TxnId global_id, const Status& status) {
  Subtxn& sub = subtxns_.at(global_id);
  O2PC_TRACE(kSubtxnFail, site(), global_id);
  O2PC_LOG(kDebug) << "site " << site() << " subtxn of T" << global_id
                   << " failed: " << status.ToString();
  // Roll back the partial execution. The forward accesses stay in the SG
  // (aborted globals are §5 nodes); the undo itself is invisible (exact
  // restore behind the subtransaction's own locks). Per Figure 2 the site
  // still becomes undone w.r.t. the dying transaction: the mark tracks the
  // *protocol* state for admission control, conservatively — the
  // transaction may be exposed at other sites, and undone-dependence must
  // stay visible to the stratification checks regardless of what this
  // site's oracle graph records.
  db_->RollbackSubtxn(sub.local_id);
  AddUndoneMark(global_id, /*exposed=*/false,  // pre-vote: nothing exposed
                trace::MarkReason::kRollback);
  if (stats_ != nullptr) stats_->Incr("subtxn_failures");
  auto ack = net::MakePayload<SubtxnAckPayload>();
  ack->status = status;
  ack->attempt = sub.attempt;
  ack->gossip = Gossip();
  SendAck(sub, std::move(ack));
}

void Participant::SendAck(Subtxn& sub,
                          std::shared_ptr<const SubtxnAckPayload> payload) {
  sub.last_ack = payload;
  SendToCoordinator(sub, net::MessageType::kSubtxnAck, std::move(payload));
}

void Participant::SendToCoordinator(
    const Subtxn& sub, net::MessageType type,
    std::shared_ptr<const net::Payload> payload) {
  if (sub.coordinator == kInvalidSite) return;
  net::Message message;
  message.from = site();
  message.to = sub.coordinator;
  message.type = type;
  message.txn = sub.global_id;
  message.payload = std::move(payload);
  network_->Send(std::move(message));
}

bool Participant::UnilateralAbort(TxnId global_id) {
  auto it = subtxns_.find(global_id);
  if (it == subtxns_.end()) return false;
  Subtxn& sub = it->second;
  if (sub.voted || sub.local_id == kInvalidTxn) return false;
  if (!db_->HasTxn(sub.local_id)) return false;
  const local::LocalTxnState state = db_->TxnState(sub.local_id);
  if (state != local::LocalTxnState::kActive) return false;
  if (stats_ != nullptr) stats_->Incr("unilateral_aborts");
  if (sub.executed) {
    // Already acked OK: withdraw at vote time. (The vote request may
    // already be in flight; the abort vote is binding either way.)
    sub.force_abort_vote = true;
    return true;
  }
  // Mid-execution: fail the subtransaction now; in-flight op callbacks
  // are stale-guarded by the local state check.
  FailSubtxn(global_id, Status::Aborted("unilateral local abort"));
  return true;
}

void Participant::OnCrash(const std::vector<TxnId>& rolled_back_globals) {
  subtxns_.clear();
  for (TxnId gid : rolled_back_globals) {
    // Conservatively exposed; the (resent) DECISION clarifies.
    AddUndoneMark(gid, /*exposed=*/true, trace::MarkReason::kCrashRecovery);
  }
  if (stats_ != nullptr) stats_->Incr("participant_crashes");
}

int Participant::InDoubtCount() const {
  return static_cast<int>(db_->PendingExposedSubtxns().size() +
                          db_->PendingPreparedSubtxns().size());
}

Participant::RecoveryStats Participant::BeginRecovery(
    const std::vector<MarkingGossip>& snapshots,
    std::function<void()> on_catchup_settled) {
  // Marking catch-up, step 1: absorb what the surviving sites learned
  // while this one was down — witness facts (rule R3 retirement) and
  // execution-site sets (known only from abort DECISIONs).
  for (const MarkingGossip& snapshot : snapshots) knowledge_->Merge(snapshot);
  TryUnmark();

  RecoveryStats stats;
  // One hold for the scan itself so on_catchup_settled cannot fire while
  // catch-up decisions are still being issued; released at the end.
  auto pending = std::make_shared<int>(1);
  auto settle = [pending, cb = std::move(on_catchup_settled)] {
    if (--*pending == 0 && cb) cb();
  };
  auto catch_up = [this, &stats, &pending,
                   &settle](const local::LocalDb::PendingExposed& p) {
    ++stats.in_doubt;
    const std::vector<SiteId>* exec = knowledge_->ExecSitesOf(p.global_id);
    if (exec == nullptr) return;  // verdict unknown; FinishRecovery arms CTP
    // exec_sites enter the gossip only with an abort DECISION: the merged
    // knowledge proves T_i aborted and CT_i already ran at the listed
    // sites. Replay the abort here, now — before any new admission can
    // read the doomed exposed updates (the §14.3 straddle closure).
    Subtxn* sub = RecoverRuntime(p.global_id, kInvalidSite);
    if (sub == nullptr) return;
    NoteDecision(*sub, /*commit=*/false, /*exposed=*/true, *exec);
    ++*pending;
    ++stats.resolved;
    ApplyDecision(p.global_id, /*commit=*/false, /*exposed=*/true, *exec,
                  settle);
  };
  // Prepared survivors first: a known-abort prepared subtransaction rolls
  // back synchronously, releasing recovery locks a catch-up CT below might
  // otherwise wait on.
  for (const local::LocalDb::PendingExposed& p :
       db_->PendingPreparedSubtxns()) {
    catch_up(p);
  }
  for (const local::LocalDb::PendingExposed& p :
       db_->PendingExposedSubtxns()) {
    catch_up(p);
  }
  if (stats_ != nullptr) {
    stats_->Incr("recovery_in_doubt", static_cast<std::uint64_t>(stats.in_doubt));
    stats_->Incr("recovery_catchup_resolved",
                 static_cast<std::uint64_t>(stats.resolved));
  }
  settle();  // release the scan's own hold
  return stats;
}

int Participant::FinishRecovery() {
  // Everything the catch-up pass resolved has reached its terminal WAL
  // record by now (the recovery barrier waits for the CTs); whatever is
  // still pending is genuinely in doubt — hand it to the termination
  // protocol rather than leaving it wedged until a coordinator resend.
  int unresolved = 0;
  auto arm = [this, &unresolved](const local::LocalDb::PendingExposed& p) {
    auto it = subtxns_.find(p.global_id);
    Subtxn* sub = it != subtxns_.end()
                      ? &it->second
                      : RecoverRuntime(p.global_id, kInvalidSite);
    if (sub == nullptr || sub->decided) return;
    ++unresolved;
    // A record that predates the coordinator extension leaves no valid
    // termination target; the coordinator's resends resolve those.
    if (sub->coordinator != kInvalidSite) ArmTermination(*sub);
  };
  for (const local::LocalDb::PendingExposed& p :
       db_->PendingPreparedSubtxns()) {
    arm(p);
  }
  for (const local::LocalDb::PendingExposed& p :
       db_->PendingExposedSubtxns()) {
    arm(p);
  }
  return unresolved;
}

Participant::Subtxn* Participant::RecoverRuntime(TxnId global_id,
                                                 SiteId coordinator) {
  // Fall back on the coordinator / peer set force-logged with the vote
  // record when the caller has none (recovery-phase catch-up, where no
  // message carries the coordinator's identity).
  auto rebuild = [this, global_id, coordinator](
                     const local::LocalDb::PendingExposed& p) -> Subtxn& {
    Subtxn& sub = subtxns_[global_id];
    sub.global_id = global_id;
    sub.coordinator = coordinator != kInvalidSite ? coordinator
                                                  : p.coordinator;
    sub.local_id = p.local_id;
    if (sub.participants.empty()) sub.participants = p.participants;
    sub.executed = true;
    sub.voted = true;  // it durably voted commit
    sub.vote_commit = true;
    return sub;
  };
  for (const local::LocalDb::PendingExposed& p :
       db_->PendingExposedSubtxns()) {
    if (p.global_id != global_id) continue;
    return &rebuild(p);
  }
  for (const local::LocalDb::PendingExposed& p :
       db_->PendingPreparedSubtxns()) {
    if (p.global_id != global_id) continue;
    Subtxn& sub = rebuild(p);
    // Recovery re-holds the prepared locks: the blocked window reopens.
    sub.prepared_at = simulator_->Now();
    return &sub;
  }
  return nullptr;
}

void Participant::OnVoteRequest(const net::Message& message) {
  const auto* payload =
      static_cast<const VoteRequestPayload*>(message.payload.get());
  knowledge_->Merge(payload->gossip);
  TryUnmark();
  auto it = subtxns_.find(message.txn);
  if (it == subtxns_.end()) {
    // Post-crash: answer from the durable log. A pending prepared or
    // locally-committed subtransaction re-votes commit; anything the WAL
    // does not vouch for votes abort (its work was rolled back by
    // recovery).
    Subtxn* recovered = RecoverRuntime(message.txn, message.from);
    if (recovered != nullptr) {
      recovered->participants = payload->participants;
      SendVote(*recovered, /*commit=*/true);
      ArmTermination(*recovered);
      return;
    }
    Subtxn& stub = subtxns_[message.txn];
    stub.global_id = message.txn;
    stub.coordinator = message.from;
    stub.participants = payload->participants;
    stub.voted = true;
    stub.vote_commit = false;
    SendVote(stub, /*commit=*/false, /*recovery_abort=*/true);
    ArmTermination(stub);
    return;
  }
  Subtxn& sub = it->second;
  // Refresh the termination inputs: the sender is the authoritative
  // coordinator (a stub created by a TERM-REQ had none), and the
  // participant list is the CTP peer set.
  sub.coordinator = message.from;
  if (!payload->participants.empty()) {
    sub.participants = payload->participants;
  }
  if (sub.voted) {
    if (sub.last_vote != nullptr) {
      SendVote(sub, sub.last_vote->commit, sub.last_vote->recovery_abort);
    } else {
      // Voted but never sent one (a renouncement recorded by the
      // cooperative termination protocol): surface it as a recovery abort.
      SendVote(sub, sub.vote_commit, /*recovery_abort=*/!sub.vote_commit);
    }
    return;
  }
  if (!sub.executed) {
    // Withdrawn after the OK ack (pre-vote timeout exercised unilateral
    // abort): the work is rolled back, so the vote is a binding abort.
    if (db_->HasTxn(sub.local_id) &&
        db_->TxnState(sub.local_id) == local::LocalTxnState::kActive) {
      db_->RollbackSubtxn(sub.local_id);
      AddUndoneMark(message.txn, /*exposed=*/false,
                    trace::MarkReason::kRollback);
    }
    sub.voted = true;
    sub.vote_commit = false;
    if (stats_ != nullptr) stats_->Incr("votes_abort");
    SendVote(sub, false);
    return;
  }
  CancelTermination(sub);  // the VOTE-REQ arrived: stand down the pre-vote timer
  const TxnId gid = message.txn;
  const std::uint64_t epoch = db_->epoch();
  simulator_->Schedule(options_.protocol.vote_processing_delay,
                       [this, gid, epoch] {
    // A crash in the processing window wiped the runtime; the coordinator's
    // resent VOTE-REQ will be answered from the WAL instead.
    if (db_->epoch() != epoch) return;
    auto it = subtxns_.find(gid);
    if (it == subtxns_.end()) return;
    Subtxn& sub = it->second;
    if (sub.voted) return;
    sub.voted = true;
    Step(ProtocolStep::kBeforeVote, gid);
    if (sub.force_abort_vote) {
      // Unilateral local abort at vote time (autonomy / local integrity):
      // roll back now — this is the undone transition of Figure 2.
      sub.vote_commit = false;
      db_->RollbackSubtxn(sub.local_id);
      // Sibling votes are concurrent: exposure unknown until the DECISION.
      AddUndoneMark(gid, /*exposed=*/true, trace::MarkReason::kVoteAbort);
      if (stats_ != nullptr) stats_->Incr("votes_abort");
      SendVote(sub, false);
      Step(ProtocolStep::kAfterVote, gid);
      // Abort voters still await the DECISION (it settles exposure and
      // delivers exec_sites for mark retirement) — so they time out and
      // terminate like commit voters do.
      ArmTermination(sub);
      return;
    }
    sub.vote_commit = true;
    const bool optimistic =
        options_.protocol.protocol == CommitProtocol::kOptimistic;
    if (optimistic && !db_->HasRealAction(sub.local_id)) {
      // O2PC's crux: the site locally commits and releases everything.
      // The coordinator / peer set ride the force-written record so a
      // post-crash recovery can direct its termination queries.
      db_->LocallyCommit(sub.local_id, sub.coordinator, sub.participants);
      if (MaintainLcMarks()) marks_.locally_committed.insert(gid);
      Step(ProtocolStep::kLocalCommit, gid);
    } else {
      // 2PC (or a pending real action): keep exclusive locks, release
      // shared ones.
      db_->PrepareAndReleaseShared(sub.local_id, sub.coordinator,
                                   sub.participants);
      sub.prepared_at = simulator_->Now();  // blocked-window accounting
      Step(ProtocolStep::kPrepare, gid);
    }
    if (stats_ != nullptr) stats_->Incr("votes_commit");
    SendVote(sub, true);
    Step(ProtocolStep::kAfterVote, gid);
    ArmTermination(sub);
  });
}

void Participant::SendVote(Subtxn& sub, bool commit, bool recovery_abort) {
  auto payload = net::MakePayload<VotePayload>();
  payload->commit = commit;
  payload->recovery_abort = recovery_abort;
  payload->gossip = Gossip();
  sub.last_vote = payload;
  O2PC_TRACE(kVote, site(), sub.global_id, commit ? 1 : 0,
             recovery_abort ? 1 : 0);
  SendToCoordinator(sub, net::MessageType::kVote, std::move(payload));
}

void Participant::OnDecision(const net::Message& message) {
  const auto* raw =
      static_cast<const DecisionPayload*>(message.payload.get());
  knowledge_->Merge(raw->gossip);
  TryUnmark();
  auto it = subtxns_.find(message.txn);
  if (it == subtxns_.end()) {
    // Post-crash: resolve from the durable log.
    Subtxn* recovered = RecoverRuntime(message.txn, message.from);
    if (recovered == nullptr) {
      // Nothing pending: recovery already rolled everything back. Just
      // acknowledge so the coordinator can finish.
      Subtxn& stub = subtxns_[message.txn];
      stub.global_id = message.txn;
      stub.coordinator = message.from;
      NoteDecision(stub, raw->commit, raw->exposed, raw->exec_sites);
      SendDecisionAck(stub, /*compensated=*/false);
      return;
    }
    it = subtxns_.find(message.txn);
  }
  Subtxn& sub = it->second;
  // The sender is the authoritative coordinator — a stub created by a
  // TERM-REQ has none to re-ack to.
  sub.coordinator = message.from;
  if (sub.decision_acked) {
    if (sub.last_decision_ack != nullptr) {
      SendDecisionAck(sub, sub.last_decision_ack->compensated);
    }
    return;
  }
  if (sub.decided) return;  // still processing (e.g. compensation running)
  if (sub.local_id == kInvalidTxn) {
    // Recovery stub: the WAL vouches for nothing, recovery already rolled
    // everything back — just acknowledge.
    NoteDecision(sub, raw->commit, raw->exposed, raw->exec_sites);
    SendDecisionAck(sub, /*compensated=*/false);
    return;
  }
  NoteDecision(sub, raw->commit, raw->exposed, raw->exec_sites);

  const TxnId gid = message.txn;
  const bool commit = raw->commit;
  const bool exposed = raw->exposed;
  const std::vector<SiteId> exec_sites = raw->exec_sites;
  const std::uint64_t epoch = db_->epoch();
  simulator_->Schedule(
      options_.protocol.decision_processing_delay,
      [this, gid, commit, exposed, exec_sites, epoch] {
        // A crash in the processing window wiped the runtime; the resent
        // DECISION resolves the transaction from the WAL instead.
        if (db_->epoch() != epoch) return;
        ApplyDecision(gid, commit, exposed, exec_sites);
      });
}

void Participant::ApplyDecision(TxnId gid, bool commit, bool exposed,
                                const std::vector<SiteId>& exec_sites,
                                std::function<void()> on_settled) {
  auto decision_it = subtxns_.find(gid);
  if (decision_it == subtxns_.end()) {
    if (on_settled) on_settled();
    return;
  }
  Subtxn& sub = decision_it->second;
  Step(ProtocolStep::kBeforeDecision, gid);
  if (commit) {
    db_->FinalizeCommit(sub.local_id);
    if (MaintainLcMarks()) marks_.locally_committed.erase(gid);
    SendDecisionAck(sub, /*compensated=*/false);
    Step(ProtocolStep::kAfterDecision, gid);
    if (on_settled) on_settled();
    return;
  }
  // DECISION = abort. Remember where the transaction executed —
  // rule R3 needs the execution-site list to evaluate UDUM1, and
  // other sites learn it through the gossip.
  if (stats_ != nullptr && exposed) stats_->Incr("aborts_exposed");
  if (MarkingActive() && !exec_sites.empty()) {
    marks_.exec_sites[gid] = exec_sites;
    knowledge_->SetExecSites(gid, exec_sites);
  }
  // The DECISION settles exposure: demote a conservative vote-abort
  // mark if nothing was exposed anywhere.
  if (MarkingActive() && !exposed) marks_.exposed_undone.erase(gid);
  const local::LocalTxnState state = db_->TxnState(sub.local_id);
  switch (state) {
    case local::LocalTxnState::kLocallyCommitted: {
      // The exposed case: semantic undo via a compensating
      // subtransaction. Rule R2: the CT's *last* operation updates
      // sitemarks.k (under the CT's exclusive lock).
      CompensationExecutor::Request request;
      request.forward_id = gid;
      request.plan = db_->CompensationPlan(sub.local_id);
      if (MarkingActive()) {
        request.plan.push_back(local::Operation{
            local::OpType::kWrite, options_.marks_key, 0});
      }
      request.retry_backoff =
          options_.protocol.compensation_retry_backoff;
      request.done = [this, gid, on_settled = std::move(on_settled)] {
        Subtxn& sub = subtxns_.at(gid);
        db_->MarkCompensated(sub.local_id);
        AddUndoneMark(gid, /*exposed=*/true,  // this site exposed
                      trace::MarkReason::kCompensation);
        if (MaintainLcMarks()) marks_.locally_committed.erase(gid);
        SendDecisionAck(sub, /*compensated=*/true);
        Step(ProtocolStep::kAfterDecision, gid);
        if (on_settled) on_settled();
      };
      Step(ProtocolStep::kCompensationBegin, gid);
      compensator_.Run(std::move(request));
      return;
    }
    case local::LocalTxnState::kActive:
    case local::LocalTxnState::kPrepared:
      // 2PC path (or a real-action site): locks still held, standard
      // rollback.
      db_->RollbackSubtxn(sub.local_id);
      AddUndoneMark(gid, exposed, trace::MarkReason::kDecisionRollback);
      if (MaintainLcMarks()) marks_.locally_committed.erase(gid);
      SendDecisionAck(sub, /*compensated=*/false);
      Step(ProtocolStep::kAfterDecision, gid);
      if (on_settled) on_settled();
      return;
    case local::LocalTxnState::kAborted:
      // Abort-voter or failed subtransaction: already rolled back.
      SendDecisionAck(sub, /*compensated=*/false);
      Step(ProtocolStep::kAfterDecision, gid);
      if (on_settled) on_settled();
      return;
    case local::LocalTxnState::kCommitted:
      O2PC_CHECK(false) << "abort decision for committed subtxn";
      return;
  }
}

void Participant::SendDecisionAck(Subtxn& sub, bool compensated) {
  sub.decision_acked = true;
  auto payload = net::MakePayload<DecisionAckPayload>();
  payload->compensated = compensated;
  payload->gossip = Gossip();
  sub.last_decision_ack = payload;
  SendToCoordinator(sub, net::MessageType::kDecisionAck, std::move(payload));
}

// ---------------------------------------------------------------------------
// Termination: participant-driven decision recovery and the cooperative
// termination protocol (CTP). A voted participant that misses its DECISION
// first asks the coordinator's recovery agent (DECISION-REQ — answered from
// the force-written decision log even while the coordinator process is
// down), then escalates to its peers from the VOTE-REQ participant list. A
// peer unblocks the asker when it saw the DECISION, or when its own state
// rules commit out: an abort vote is binding, and an unprepared peer can
// renounce its (never-sent) commit vote by unilaterally aborting.
// ---------------------------------------------------------------------------

void Participant::CancelTermination(Subtxn& sub) {
  sub.term_seq = ++timer_seq_;
  sub.prevote_seq = ++timer_seq_;
  if (sub.term_event != sim::kInvalidEvent) {
    simulator_->Cancel(sub.term_event);
    sub.term_event = sim::kInvalidEvent;
  }
  if (sub.prevote_event != sim::kInvalidEvent) {
    simulator_->Cancel(sub.prevote_event);
    sub.prevote_event = sim::kInvalidEvent;
  }
}

void Participant::NoteDecision(Subtxn& sub, bool commit, bool exposed,
                               const std::vector<SiteId>& exec_sites) {
  sub.decided = true;
  sub.decision_commit = commit;
  sub.decision_exposed = exposed;
  sub.decision_exec_sites = exec_sites;
  CancelTermination(sub);
  if (sub.prepared_at > 0) {
    // The 2PC blocking window the paper's §7 argues about: time spent
    // prepared, holding exclusive locks, waiting to learn the outcome.
    const Duration blocked_us = simulator_->Now() - sub.prepared_at;
    if (stats_ != nullptr) {
      stats_->Incr("blocked_prepared_ns",
                   static_cast<std::uint64_t>(blocked_us) * 1000);
      stats_->Hist("blocked_prepared_us").Add(static_cast<double>(blocked_us));
    }
    sub.prepared_at = 0;
  }
}

void Participant::ArmPrevoteTimer(Subtxn& sub) {
  if (options_.protocol.prevote_timeout <= 0) return;
  if (sub.prevote_event != sim::kInvalidEvent) {
    simulator_->Cancel(sub.prevote_event);
  }
  const TxnId gid = sub.global_id;
  const std::uint64_t seq = ++timer_seq_;
  sub.prevote_seq = seq;
  sub.prevote_event = simulator_->Schedule(
      options_.protocol.prevote_timeout, [this, gid, seq] {
        auto it = subtxns_.find(gid);
        if (it == subtxns_.end() || it->second.prevote_seq != seq) return;
        Subtxn& sub = it->second;
        sub.prevote_event = sim::kInvalidEvent;
        if (sub.voted || sub.decided) return;
        // No VOTE-REQ in time: exercise local autonomy ([BST90]) instead
        // of holding this site's resources hostage to a dead coordinator.
        O2PC_TRACE(kDecisionTimeout, site(), gid, /*round=*/0, /*ctp=*/0);
        if (stats_ != nullptr) stats_->Incr("prevote_timeouts");
        if (!UnilateralAbort(gid)) return;
        if (sub.executed && !sub.voted) {
          // UnilateralAbort deferred to a forced abort vote, but the
          // VOTE-REQ that would collect it may never come (that is why we
          // timed out): withdraw the execution and release the locks now.
          // A late VOTE-REQ is answered with a binding abort vote.
          sub.executed = false;
          sub.force_abort_vote = false;
          FailSubtxn(gid, Status::TimedOut("no VOTE-REQ before timeout"));
        }
      });
}

void Participant::ArmTermination(Subtxn& sub) {
  if (options_.protocol.decision_timeout <= 0) return;
  if (sub.decided || sub.term_event != sim::kInvalidEvent) return;
  if (sub.term_rounds == 0) {
    common::RetryPolicyConfig retry;
    retry.initial = options_.protocol.decision_timeout;
    retry.multiplier = options_.protocol.retry_backoff_multiplier;
    retry.cap = options_.protocol.retry_backoff_cap;
    retry.budget = options_.protocol.termination_budget;
    retry.jitter = options_.protocol.retry_jitter;
    // Seeded per (site options, global id): order-independent and
    // replay-deterministic.
    sub.term_policy = common::RetryPolicy(
        retry,
        Rng(options_.seed ^ (sub.global_id * 0x9e3779b97f4a7c15ULL)));
  }
  if (sub.term_policy.Exhausted()) {
    if (stats_ != nullptr) stats_->Incr("termination_budget_exhausted");
    O2PC_LOG(kWarn) << "site " << site() << " exhausted the termination "
                    << "budget for T" << sub.global_id
                    << "; still blocked (liveness oracle will judge)";
    return;
  }
  const TxnId gid = sub.global_id;
  const std::uint64_t seq = ++timer_seq_;
  sub.term_seq = seq;
  sub.term_event =
      simulator_->Schedule(sub.term_policy.NextDelay(), [this, gid, seq] {
        auto it = subtxns_.find(gid);
        if (it == subtxns_.end() || it->second.term_seq != seq) return;
        it->second.term_event = sim::kInvalidEvent;
        TerminationRound(it->second);
      });
}

void Participant::TerminationRound(Subtxn& sub) {
  if (sub.decided) return;
  ++sub.term_rounds;
  const bool ctp = sub.term_rounds > options_.protocol.decision_req_attempts;
  O2PC_TRACE(kDecisionTimeout, site(), sub.global_id, sub.term_rounds,
             ctp ? 1 : 0);
  bool queried_peer = false;
  if (ctp) {
    for (SiteId peer : sub.participants) {
      if (peer == site()) continue;
      queried_peer = true;
      if (stats_ != nullptr) stats_->Incr("term_reqs_sent");
      auto payload = net::MakePayload<TermRequestPayload>();
      payload->gossip = Gossip();
      net::Message message;
      message.from = site();
      message.to = peer;
      message.type = net::MessageType::kTermReq;
      message.txn = sub.global_id;
      message.payload = std::move(payload);
      network_->Send(std::move(message));
    }
  }
  if (!ctp || !queried_peer) {
    // DECISION-REQ round (or a CTP round without a peer list — e.g. a
    // runtime recovered from the WAL, which lost the VOTE-REQ's list):
    // ask the coordinator home's recovery agent.
    if (stats_ != nullptr) stats_->Incr("decision_reqs_sent");
    auto payload = net::MakePayload<DecisionRequestPayload>();
    payload->gossip = Gossip();
    SendToCoordinator(sub, net::MessageType::kDecisionReq, std::move(payload));
  }
  ArmTermination(sub);
}

void Participant::OnTermRequest(const net::Message& message) {
  const auto* payload =
      static_cast<const TermRequestPayload*>(message.payload.get());
  knowledge_->Merge(payload->gossip);
  TryUnmark();
  if (stats_ != nullptr) stats_->Incr("term_reqs_received");

  auto reply = net::MakePayload<TermResponsePayload>();
  auto it = subtxns_.find(message.txn);
  if (it == subtxns_.end()) {
    // Crash survivor: consult the WAL, exactly as a resent VOTE-REQ would.
    bool pending = false;
    for (const local::LocalDb::PendingExposed& p :
         db_->PendingExposedSubtxns()) {
      if (p.global_id == message.txn) pending = true;
    }
    for (const local::LocalDb::PendingExposed& p :
         db_->PendingPreparedSubtxns()) {
      if (p.global_id == message.txn) pending = true;
    }
    if (pending) {
      // A durable commit vote: this site is as uncertain as the asker.
      reply->known = false;
    } else {
      // The WAL vouches for nothing — this site never durably voted
      // commit, and by recording the renouncement now (the stub a resent
      // VOTE-REQ would also create) commit becomes impossible: abort is
      // safe to report.
      Subtxn& stub = subtxns_[message.txn];
      stub.global_id = message.txn;
      stub.voted = true;
      stub.vote_commit = false;
      reply->known = true;
      reply->commit = false;
      reply->exposed = true;  // conservative; the asker knows better
    }
  } else {
    Subtxn& sub = it->second;
    if (sub.decided) {
      reply->known = true;
      reply->commit = sub.decision_commit;
      reply->exposed = sub.decision_exposed;
      reply->exec_sites = sub.decision_exec_sites;
    } else if (sub.voted && !sub.vote_commit) {
      // Our abort vote is binding: the decision can only be abort.
      reply->known = true;
      reply->commit = false;
      reply->exposed = true;  // conservative until a real DECISION says
    } else if (!sub.voted) {
      // Unprepared: abort is safe *iff* we also renounce the commit vote
      // we might otherwise cast later — unilateral abort first, answer
      // second. When the abort is refused (e.g. the local runtime is in a
      // state only a fresh attempt can resolve), stay uncertain: a future
      // attempt could still vote commit.
      const bool renounced =
          UnilateralAbort(message.txn) || (sub.voted && !sub.vote_commit);
      if (renounced) {
        reply->known = true;
        reply->commit = false;
        reply->exposed = true;
      } else {
        reply->known = false;
      }
    } else {
      // Voted commit, no decision: same boat as the asker.
      reply->known = false;
    }
  }
  if (stats_ != nullptr && reply->known) {
    stats_->Incr("term_reqs_answered");
  }
  reply->gossip = Gossip();
  net::Message response;
  response.from = site();
  response.to = message.from;
  response.type = net::MessageType::kTermResp;
  response.txn = message.txn;
  response.payload = std::move(reply);
  network_->Send(std::move(response));
}

void Participant::OnTermResponse(const net::Message& message) {
  const auto* payload =
      static_cast<const TermResponsePayload*>(message.payload.get());
  knowledge_->Merge(payload->gossip);
  TryUnmark();
  auto it = subtxns_.find(message.txn);
  if (it == subtxns_.end()) return;
  Subtxn& sub = it->second;
  if (sub.decided || sub.decision_acked) return;  // already resolved
  if (!payload->known) {
    if (stats_ != nullptr) stats_->Incr("term_resps_uncertain");
    return;
  }
  // An abort inferred by a peer carries no execution-site list; fall back
  // to the asker's own VOTE-REQ participant list (all participants
  // executed by vote time, so the lists coincide) — without it, the abort
  // mark could never satisfy UDUM1 and would poison later admissions.
  const std::vector<SiteId>& exec_sites =
      payload->exec_sites.empty() ? sub.participants : payload->exec_sites;
  O2PC_TRACE(kTermResolve, site(), message.txn, payload->commit ? 1 : 0,
             message.from);
  if (stats_ != nullptr) stats_->Incr("ctp_resolutions");
  NoteDecision(sub, payload->commit, payload->exposed, exec_sites);
  if (sub.local_id == kInvalidTxn) {
    // Stub runtime: nothing local to finalize; ack (a live coordinator
    // would count it, a dead one ignores it).
    SendDecisionAck(sub, /*compensated=*/false);
    return;
  }
  const TxnId gid = message.txn;
  const bool commit = payload->commit;
  const bool exposed = payload->exposed;
  const std::vector<SiteId> exec = exec_sites;
  const std::uint64_t epoch = db_->epoch();
  simulator_->Schedule(options_.protocol.decision_processing_delay,
                       [this, gid, commit, exposed, exec, epoch] {
                         if (db_->epoch() != epoch) return;
                         ApplyDecision(gid, commit, exposed, exec);
                       });
}

void Participant::AddUndoneMark(TxnId forward, bool exposed,
                                trace::MarkReason reason) {
  if (!MarkingActive()) return;
  O2PC_TRACE(kMarkInsert, site(), forward,
             static_cast<std::int64_t>(reason), exposed ? 1 : 0);
  O2PC_LOG(kDebug) << "site " << site() << " marks undone wrt T" << forward
                   << (exposed ? " (exposed)" : " (unexposed)") << " at "
                   << simulator_->Now();
  marks_.undone.insert(forward);
  if (exposed) {
    marks_.exposed_undone.insert(forward);
  } else {
    marks_.exposed_undone.erase(forward);
  }
  TryUnmark();
}

void Participant::Witness(const common::SmallSet<TxnId>& entry_undone) {
  if (!MarkingActive()) return;
  for (TxnId ti : entry_undone) {
    knowledge_->Add(WitnessFact{ti, site()});
  }
  TryUnmark();
}

void Participant::WitnessLocal(const common::SmallSet<TxnId>& entry_undone) {
  Witness(entry_undone);
}

std::vector<TxnId> Participant::RemovableWithSelfWitness() const {
  std::vector<TxnId> removable;
  for (TxnId ti : marks_.undone) {
    const std::vector<SiteId>* exec = knowledge_->ExecSitesOf(ti);
    if (exec == nullptr) {
      auto it = marks_.exec_sites.find(ti);
      if (it == marks_.exec_sites.end()) continue;
      exec = &it->second;
    }
    if (exec->empty()) continue;
    bool covered = true;
    for (SiteId s : *exec) {
      if (s == site()) continue;  // this access is the witness here
      if (!knowledge_->Covers(ti, {s})) {
        covered = false;
        break;
      }
    }
    if (covered) removable.push_back(ti);
  }
  return removable;
}

void Participant::RetireMark(TxnId ti, bool self_witness) {
  if (self_witness) knowledge_->Add(WitnessFact{ti, site()});
  Tombstone tombstone;
  tombstone.retire_time = simulator_->Now();
  tombstone.exposed = marks_.exposed_undone.contains(ti);
  if (const std::vector<SiteId>* exec = knowledge_->ExecSitesOf(ti)) {
    tombstone.exec_sites = *exec;
  } else if (auto it = marks_.exec_sites.find(ti);
             it != marks_.exec_sites.end()) {
    tombstone.exec_sites = it->second;
  }
  marks_.undone.erase(ti);
  marks_.exposed_undone.erase(ti);
  marks_.exec_sites.erase(ti);
  // Journaled after the (possible) self-witness Add, so the checker's
  // witness-before-retire replay sees the UDUM1 evidence first.
  O2PC_TRACE(kMarkRetire, site(), ti, self_witness ? 1 : 0);
  O2PC_LOG(kDebug) << "site " << site() << " retires mark T" << ti << " at "
                   << simulator_->Now();
  if (retired_marks_.emplace(ti, std::move(tombstone)).second) {
    // A new snapshot: transmarks admitted earlier keep the old one.
    auto keys = std::make_shared<TombstoneKeys>();
    if (marks_.retired != nullptr) *keys = *marks_.retired;
    keys->insert(ti);
    marks_.retired = std::move(keys);
  }
  if (stats_ != nullptr) stats_->Incr("udum_unmarks");
}

void Participant::TryUnmark() {
  if (!MarkingActive()) return;
  std::vector<TxnId> unmarked;
  for (TxnId ti : marks_.undone) {
    const std::vector<SiteId>* exec = knowledge_->ExecSitesOf(ti);
    if (exec == nullptr) {
      auto it = marks_.exec_sites.find(ti);
      if (it == marks_.exec_sites.end()) continue;
      exec = &it->second;
    }
    if (knowledge_->Covers(ti, *exec)) unmarked.push_back(ti);
  }
  for (TxnId ti : unmarked) RetireMark(ti, /*self_witness=*/false);
}

bool Participant::HasExposedPending(TxnId ti) const {
  auto it = subtxns_.find(ti);
  if (it == subtxns_.end() || it->second.local_id == kInvalidTxn) {
    return false;
  }
  if (!db_->HasTxn(it->second.local_id)) return false;
  return db_->TxnState(it->second.local_id) ==
         local::LocalTxnState::kLocallyCommitted;
}

Participant::MarkCheck Participant::EvaluateMarkCheck(const TransMarks& tm,
                                                      SimTime txn_start,
                                                      SimTime fence_since) {
  MarkCheck result;
  const GovernancePolicy policy = options_.protocol.governance;

  // Rule R3, executed as part of the accessing transaction: this access is
  // itself the final witness for marks whose other execution sites are
  // already witnessed.
  for (TxnId ti : RemovableWithSelfWitness()) {
    RetireMark(ti, /*self_witness=*/true);
  }

  // Locally-committed-mark logic (the literal P2 rule; also the LC half of
  // the strengthened P2).
  if (policy == GovernancePolicy::kP2 ||
      policy == GovernancePolicy::kP2Literal) {
    if (!Compatible(GovernancePolicy::kP2Literal, tm, marks_)) {
      result.ok = false;
      result.reason = "LC marks incompatible";
      return result;
    }
  }
  if (policy == GovernancePolicy::kSimple &&
      !marks_.locally_committed.empty()) {
    result.ok = false;
    result.reason = "site is locally-committed w.r.t. some transaction";
    return result;
  }
  if (policy == GovernancePolicy::kNone ||
      policy == GovernancePolicy::kP2Literal) {
    return result;  // no undone-mark restrictions
  }

  // ---- Undone-mark logic: P1, the strengthened P2, and Simple. ----

  // (a) Tombstones. A mark retired by rule R3 is globally quiescent (the
  // UDUM1 witnesses imply every rollback/compensation of T_i completed),
  // so accesses here from now on can only *follow* CT_i — safe. The one
  // exception is a transaction that straddles the retirement: it may have
  // conflict-preceded T_i — or a reader of T_i's exposed updates, which is
  // just as dangerous transitively — at a site it visited before the mark
  // existed there. The *retirement fence* admits a straddler only if it
  // observed the mark at every site it visited (then all its accesses sit
  // after CT_i and the stale transmark entry no longer counts, here or
  // later); anything else restarts as a fresh incarnation.
  for (const auto& [ti, tombstone] : retired_marks_) {
    if (txn_start >= tombstone.retire_time ||
        tombstone.retire_time <= fence_since) {
      continue;
    }
    for (SiteId visited : tm.visited_sites) {
      // An unexposed transaction's dependencies cannot leave its
      // execution sites; an exposed one's can (readers carry them
      // anywhere), so every visited site needs coverage.
      if (!tombstone.exposed &&
          std::find(tombstone.exec_sites.begin(), tombstone.exec_sites.end(),
                    visited) == tombstone.exec_sites.end()) {
        continue;
      }
      if (!ObservedAt(tm, ti, visited)) {
        result.ok = false;
        result.fatal = true;
        result.reason =
            StrCat("retirement fence: T", ti, " retired mid-flight");
        return result;
      }
    }
  }

  if (policy == GovernancePolicy::kSimple) {
    // The crude closing-remark protocol of §6.2: exact undone-set
    // equality, no refinements.
    if (!Compatible(GovernancePolicy::kSimple, tm, marks_)) {
      result.ok = false;
      result.reason = "undone sets differ";
    }
    return result;
  }

  // (b) Forward direction: the transaction saw T_i undone somewhere, and
  // this site carries no mark for T_i. That is dangerous only while T_i is
  // exposed-but-uncompensated *here* (the transaction could then read
  // T_i's doomed updates and later precede CT_i here). If T_i is absent,
  // still active (its held locks force any conflict to order after the
  // rollback), or long finished here, admission is safe.
  for (const auto& [ti, seen] : tm.undone_seen) {
    if (seen.empty() || marks_.Retired(ti) || marks_.undone.contains(ti)) {
      continue;
    }
    if (HasExposedPending(ti)) {
      result.ok = false;
      result.reason =
          StrCat("T", ti, " exposed here, compensation pending");
      return result;
    }
  }

  // (c) Backward direction: this site is undone w.r.t. T_i, so the
  // transaction must have seen the mark (or T_i's quiescence) at every
  // visited site that matters. For an *exposed* T_i that is every site —
  // readers of the exposed updates can carry the dependency anywhere, so
  // no site-precise relaxation is sound. For an unexposed T_i the
  // dependency cannot leave its execution sites, and only visits to those
  // need coverage. A transaction that missed a required observation can
  // never repair it in place — restart as a fresh incarnation.
  for (TxnId ti : marks_.undone) {
    const bool stale = marks_.Retired(ti);  // re-marked after retiring
    if ((stale ? 0 : tm.UndoneCount(ti)) == tm.visited()) {
      continue;  // saw it everywhere: the paper's uniform case
    }
    const bool ti_exposed = marks_.exposed_undone.contains(ti);
    const std::vector<SiteId>* exec = knowledge_->ExecSitesOf(ti);
    if (exec == nullptr) {
      auto exec_it = marks_.exec_sites.find(ti);
      exec = exec_it == marks_.exec_sites.end() ? nullptr : &exec_it->second;
    }
    if (!ti_exposed && exec == nullptr) {
      // Unexposed mark whose DECISION has not yet delivered the execution
      // sites: retry shortly.
      result.ok = false;
      result.reason = StrCat("T", ti, " undone here, exec sites unknown");
      return result;
    }
    for (SiteId visited : tm.visited_sites) {
      if (!ti_exposed &&
          std::find(exec->begin(), exec->end(), visited) == exec->end()) {
        continue;  // unexposed: this visit cannot carry the dependency
      }
      if (!ObservedAt(tm, ti, visited, stale)) {
        result.ok = false;
        result.fatal = true;
        result.reason = StrCat("undone w.r.t. T", ti,
                               " here; visited site ", visited,
                               " without observing it");
        return result;
      }
    }
  }
  return result;
}

}  // namespace o2pc::core
