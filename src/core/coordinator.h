#ifndef O2PC_CORE_COORDINATOR_H_
#define O2PC_CORE_COORDINATOR_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/retry_policy.h"
#include "common/rng.h"
#include "common/types.h"
#include "core/global_txn.h"
#include "core/marking.h"
#include "core/messages.h"
#include "core/protocol.h"
#include "core/step_hook.h"
#include "metrics/stats.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "storage/wal.h"

/// \file
/// The 2PC coordinator of one global transaction. The message pattern is
/// the standard one — invoke subtransactions, VOTE-REQ, collect votes,
/// log the decision, broadcast DECISION, collect acks — and is *identical*
/// for 2PC and O2PC (the difference is entirely participant-side lock
/// handling), which is the paper's compatibility claim (§7).
///
/// Subtransactions are invoked serially so that transmarks.j accumulates
/// site marks in invocation order, exactly as rule R1 prescribes.
///
/// Failure injection: with `coordinator_crash_probability` the coordinator
/// crashes right after force-logging its decision and recovers after
/// `coordinator_recovery_delay`, re-reading the decision from its log and
/// resending it — the window in which 2PC participants sit blocked in the
/// prepared state while O2PC participants have already released their
/// locks.

namespace o2pc::core {

class Coordinator {
 public:
  struct Options {
    ProtocolConfig protocol;
    SiteId home = 0;
    /// Optional step-indexed instrumentation (fault injection); announced
    /// at kCoordinatorDecide, right after the decision is force-logged.
    const StepHook* step_hook = nullptr;
  };

  Coordinator(sim::Simulator* simulator, net::Network* network,
              WitnessKnowledge* knowledge, metrics::StatsCollector* stats,
              Rng rng, Options options);
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Begins executing `spec` as global transaction `id`. `done` fires
  /// exactly once when the protocol fully drains (all decision acks in,
  /// compensations included).
  void Start(TxnId id, GlobalTxnSpec spec, GlobalDoneCallback done);

  /// Network entry point for SUBTXN-ACK / VOTE / DECISION-ACK /
  /// DECISION-REQ.
  void OnMessage(const net::Message& message);

  TxnId id() const { return id_; }
  bool finished() const { return phase_ == Phase::kDone; }

  /// Decision log (a kDecision record is force-written before broadcast).
  const storage::Wal& log() const { return log_; }

  /// Deterministic crash injection: the next decision broadcast crashes
  /// the coordinator instead (after its decision is force-logged, before
  /// any DECISION message leaves), and recovery re-reads the log and
  /// resends — the same window the probabilistic
  /// `coordinator_crash_probability` models, but pinned to an exact
  /// protocol step. `outage` = 0 recovers after the configured
  /// `coordinator_recovery_delay`; > 0 overrides that delay; < 0 means the
  /// coordinator never recovers — participants must then terminate via
  /// DECISION-REQ (the home site's recovery agent still answers from the
  /// decision log) or cooperative termination. Typically called from a
  /// StepHook at kCoordinatorDecide (see
  /// DistributedSystem::InjectCoordinatorCrash).
  void RequestCrash(Duration outage = 0) {
    crash_requested_ = true;
    requested_outage_ = outage;
  }

 private:
  enum class Phase {
    kIdle,
    kInvoking,
    kVoting,
    kCrashed,
    kBroadcasting,
    kDone,
  };

  /// Announces kCoordinatorDecide to the installed StepHook (if any).
  void AnnounceDecide();

  void InvokeCurrent();
  void OnSubtxnAck(const net::Message& message);
  /// Invoking failed terminally: decide abort without a voting phase.
  void AbortEarly(const Status& status, bool restartable);
  void StartVoting();
  void OnVote(const net::Message& message);
  /// True iff some participant exposed updates (an O2PC commit vote).
  bool Exposed() const;
  void Decide();
  void BroadcastDecision();
  void OnDecisionAck(const net::Message& message);
  /// DECISION-REQ from a blocked participant: the home site's recovery
  /// agent answers from the force-written decision log — even while the
  /// coordinator process is crashed (the *site* hosting the log is up).
  void OnDecisionRequest(const net::Message& message);
  /// Enters Phase::kCrashed; schedules recovery unless `outage` < 0.
  void CrashBeforeBroadcast(Duration outage, bool injected);
  void Finish();

  void Send(SiteId to, net::MessageType type,
            std::shared_ptr<const net::Payload> payload);
  /// Periodic retransmission of whatever the current phase is waiting for.
  void ResendTick();
  void ArmResendTimer();

  sim::Simulator* simulator_;       // not owned
  net::Network* network_;           // not owned
  WitnessKnowledge* knowledge_;     // not owned
  metrics::StatsCollector* stats_;  // not owned
  Rng rng_;
  Options options_;

  Phase phase_ = Phase::kIdle;
  TxnId id_ = kInvalidTxn;
  GlobalTxnSpec spec_;
  GlobalDoneCallback done_;
  storage::Wal log_;

  // Invocation state.
  std::size_t invoke_index_ = 0;
  int invoke_attempt_ = 0;
  int invoke_retries_ = 0;
  std::set<SiteId> invoked_sites_;
  std::set<SiteId> executed_sites_;
  /// transmarks.j as the last admitting site returned it; shared with the
  /// invokes (and their resends) that carry it.
  std::shared_ptr<const TransMarks> transmarks_;

  // Voting / broadcast state.
  std::map<SiteId, bool> votes_;
  bool recovery_abort_seen_ = false;
  bool crash_requested_ = false;
  bool decision_commit_ = false;
  Status abort_status_;
  bool restartable_ = false;
  std::set<SiteId> decision_acks_;
  int compensations_ = 0;
  int rejections_ = 0;

  SimTime submit_time_ = 0;
  SimTime decide_time_ = 0;

  sim::EventId resend_event_ = sim::kInvalidEvent;
  /// Backoff schedule for the per-phase retransmissions; reset at each
  /// phase transition (invoke -> voting -> broadcasting).
  common::RetryPolicy resend_policy_;
  /// Outage requested with the injected crash (see RequestCrash).
  Duration requested_outage_ = 0;
};

}  // namespace o2pc::core

#endif  // O2PC_CORE_COORDINATOR_H_
