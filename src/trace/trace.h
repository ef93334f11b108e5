#ifndef O2PC_TRACE_TRACE_H_
#define O2PC_TRACE_TRACE_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "sim/simulator.h"

/// \file
/// Protocol event tracing. A `TraceRecorder` captures typed, timestamped
/// protocol events — transaction lifecycle, every message send/receive,
/// lock acquire/wait/release, local commits, compensations, and the §6
/// marking transitions (R1 rejections, R2 mark inserts, R3 unmarks) — so a
/// run's *ordering* claims (the heart of the paper) become inspectable and
/// post-hoc checkable (see trace/checker.h) instead of only aggregated.
///
/// Emit points throughout the protocol layers use the `O2PC_TRACE` macro,
/// which costs a single global-pointer load and branch when no recorder is
/// installed, and compiles away entirely under `O2PC_TRACE_DISABLED`
/// (CMake option `O2PC_DISABLE_TRACING`). Installation is scoped:
///
///     trace::TraceRecorder recorder;
///     core::DistributedSystem system(options);
///     {
///       trace::ScopedTrace scope(&recorder, &system.simulator());
///       system.Run();
///     }
///     trace::ExportChromeTrace(recorder.events(), out);
///
/// Each simulation run is single-threaded, and the active-recorder slot is
/// thread-local — parallel runs (src/exec/) each install their own recorder
/// on their own worker thread with no synchronization; events are stamped
/// with the bound simulator's Now().

namespace o2pc::trace {

/// The protocol event taxonomy. `a` / `b` in TraceEvent carry the
/// per-type arguments documented next to each enumerator.
enum class EventType : std::uint8_t {
  // --- Global transaction lifecycle (coordinator / system). ---
  kTxnSubmit = 0,   ///< coordinator Start. site=home.
  kTxnRestart,      ///< restartable failure relaunched. a=new incarnation id.
  kTxnFinish,       ///< protocol drained. a=committed(0/1), b=exposed(0/1).

  // --- Message plane (network). ---
  kMsgSend,  ///< a=net::MessageType, b=destination site. site=sender.
  kMsgRecv,  ///< a=net::MessageType, b=sender site. site=receiver.
  kMsgDrop,  ///< a=net::MessageType, b=destination site. site=sender.

  // --- Lock plane (per-site lock manager; txn = *local* txn id). ---
  kLockWait,     ///< request queued. a=key, b=mode (lock::LockMode).
  kLockAcquire,  ///< lock granted (immediately or after a wait). a=key, b=mode.
  kLockRelease,  ///< lock released. a=key, b=mode held.

  // --- Subtransaction execution (participant; txn = global id). ---
  kSubtxnAdmit,  ///< R1 admitted the subtransaction. a=attempt.
  kR1Reject,     ///< rule R1 rejected it. a=attempt, b=fatal(0/1).
  kSubtxnFail,   ///< execution failed (deadlock / semantic); rolled back.

  // --- Commit plane (local DB verbs; txn = global id, a = local id). ---
  kLocalCommit,  ///< O2PC early local commit: all locks released now.
  kPrepare,      ///< 2PC prepared: exclusive locks held until DECISION.
  kFinalCommit,  ///< DECISION=commit applied at the site.
  kRollback,     ///< lock-holding rollback (abort vote / 2PC abort).

  // --- Votes and decisions. ---
  kVote,    ///< participant votes. a=commit(0/1), b=recovery_abort(0/1).
  kDecide,  ///< coordinator force-logs its decision. a=commit(0/1),
            ///< b=1 when decided early (before the voting phase).

  // --- Compensation (rules of §3.2; txn = forward global id). ---
  kCompensationBegin,  ///< CT initiated. a=plan length.
  kCompensationRetry,  ///< CT attempt lost a deadlock; retrying. a=attempt.
  kCompensationEnd,    ///< CT committed (exactly once per initiation).

  // --- Marking (§6; txn = T_i the mark refers to). ---
  kMarkInsert,  ///< site marked undone w.r.t. T_i. a=MarkReason,
                ///< b=exposed(0/1).
  kMarkRetire,  ///< rule R3 retired the mark (UDUM1 held). a=self_witness.
  kWitness,     ///< UDUM1 witness fact registered. site=witnessing site.

  // --- Failure injection. ---
  kCoordinatorCrash,    ///< crash after logging, before broadcasting.
                        ///< b=1 when the outage is permanent (no recovery).
  kCoordinatorRecover,  ///< recovery re-read the decision. a=commit(0/1).
  kSiteCrash,           ///< site lost volatile state. a=#rolled-back locals.
  kSiteRecover,         ///< site reachable again.

  // --- Termination protocol (blocking resolution). ---
  kDecisionTimeout,  ///< participant termination timer fired. a=round
                     ///< (0 = the pre-vote timeout), b=1 when the round
                     ///< escalated to cooperative termination.
  kTermResolve,      ///< decision learned via TERM-RESP, not a DECISION.
                     ///< a=commit(0/1), b=answering site.

  // --- Site recovery phase (crash restart). ---
  kRecoveryBegin,  ///< outage over; WAL analysis + marking catch-up start.
                   ///< a=#in-doubt subtxns found by the analysis pass.
  kRecoveryEnd,    ///< recovery barrier passed; the site accepts work
                   ///< again. a=#in-doubt found, b=#still unresolved
                   ///< (handed to the termination protocol).
};
inline constexpr int kNumEventTypes =
    static_cast<int>(EventType::kRecoveryEnd) + 1;

/// Stable machine-readable name ("lock_release", "mark_insert", ...); "?"
/// for a value outside the enumeration. constexpr so the JSONL fingerprint
/// tables (trace/export.cc) are built from these names at compile time.
constexpr const char* EventTypeName(EventType type) {
  switch (type) {
    case EventType::kTxnSubmit:
      return "txn_submit";
    case EventType::kTxnRestart:
      return "txn_restart";
    case EventType::kTxnFinish:
      return "txn_finish";
    case EventType::kMsgSend:
      return "msg_send";
    case EventType::kMsgRecv:
      return "msg_recv";
    case EventType::kMsgDrop:
      return "msg_drop";
    case EventType::kLockWait:
      return "lock_wait";
    case EventType::kLockAcquire:
      return "lock_acquire";
    case EventType::kLockRelease:
      return "lock_release";
    case EventType::kSubtxnAdmit:
      return "subtxn_admit";
    case EventType::kR1Reject:
      return "r1_reject";
    case EventType::kSubtxnFail:
      return "subtxn_fail";
    case EventType::kLocalCommit:
      return "local_commit";
    case EventType::kPrepare:
      return "prepare";
    case EventType::kFinalCommit:
      return "final_commit";
    case EventType::kRollback:
      return "rollback";
    case EventType::kVote:
      return "vote";
    case EventType::kDecide:
      return "decide";
    case EventType::kCompensationBegin:
      return "compensation_begin";
    case EventType::kCompensationRetry:
      return "compensation_retry";
    case EventType::kCompensationEnd:
      return "compensation_end";
    case EventType::kMarkInsert:
      return "mark_insert";
    case EventType::kMarkRetire:
      return "mark_retire";
    case EventType::kWitness:
      return "witness";
    case EventType::kCoordinatorCrash:
      return "coordinator_crash";
    case EventType::kCoordinatorRecover:
      return "coordinator_recover";
    case EventType::kSiteCrash:
      return "site_crash";
    case EventType::kSiteRecover:
      return "site_recover";
    case EventType::kDecisionTimeout:
      return "decision_timeout";
    case EventType::kTermResolve:
      return "term_resolve";
    case EventType::kRecoveryBegin:
      return "recovery_begin";
    case EventType::kRecoveryEnd:
      return "recovery_end";
  }
  return "?";
}

/// Why an undone mark was inserted (the `a` argument of kMarkInsert).
enum class MarkReason : std::uint8_t {
  kRollback = 0,      ///< pre-vote failure rollback (invisible undo)
  kVoteAbort = 1,     ///< unilateral abort at vote time
  kCompensation = 2,  ///< rule R2: the CT's completion marked the site
  kDecisionRollback = 3,  ///< DECISION=abort rollback with locks held
  kCrashRecovery = 4,     ///< crash recovery rolled the subtxn back
};
inline constexpr int kNumMarkReasons =
    static_cast<int>(MarkReason::kCrashRecovery) + 1;

/// Stable name of a MarkReason; "?" outside the enumeration.
constexpr const char* MarkReasonName(MarkReason reason) {
  switch (reason) {
    case MarkReason::kRollback:
      return "rollback";
    case MarkReason::kVoteAbort:
      return "vote_abort";
    case MarkReason::kCompensation:
      return "compensation";
    case MarkReason::kDecisionRollback:
      return "decision_rollback";
    case MarkReason::kCrashRecovery:
      return "crash_recovery";
  }
  return "?";
}

/// One recorded protocol event. `a` and `b` are per-type arguments (see
/// EventType); keeping them as plain integers keeps recording allocation-
/// free on the hot path.
struct TraceEvent {
  SimTime time = 0;
  EventType type = EventType::kTxnSubmit;
  SiteId site = kInvalidSite;
  TxnId txn = kInvalidTxn;
  std::int64_t a = 0;
  std::int64_t b = 0;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// An append-only journal of TraceEvents, stamped with the bound
/// simulator's clock. Install via ScopedTrace; emit via O2PC_TRACE.
class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Binds the clock used to stamp events (done by ScopedTrace).
  void BindSimulator(const sim::Simulator* simulator) {
    simulator_ = simulator;
  }

  void Record(EventType type, SiteId site, TxnId txn, std::int64_t a = 0,
              std::int64_t b = 0);

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  void Clear() { events_.clear(); }

  /// World-reuse reset contract (DESIGN §16): drop every recorded event,
  /// retaining the journal buffer's capacity, and unbind the clock (the
  /// next run's ScopedTrace rebinds its own simulator).
  void ResetForRun() {
    events_.clear();
    simulator_ = nullptr;
  }

  /// Events of one type, in order (convenience for tests/checkers).
  std::vector<TraceEvent> EventsOfType(EventType type) const;

 private:
  const sim::Simulator* simulator_ = nullptr;  // not owned
  std::vector<TraceEvent> events_;
};

/// The calling thread's active recorder, or nullptr (tracing off). The
/// slot is thread-local: concurrent runs on different threads trace into
/// different recorders without synchronization.
TraceRecorder* ActiveRecorder();

/// RAII installer: binds `recorder` to `simulator` and makes it the active
/// recorder for its scope *on the installing thread*. Nesting replaces
/// (and restores) the previous recorder.
class ScopedTrace {
 public:
  ScopedTrace(TraceRecorder* recorder, const sim::Simulator* simulator);
  ~ScopedTrace();
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  TraceRecorder* previous_;
};

}  // namespace o2pc::trace

/// Emit hook. Arguments: (EventType enumerator name, site, txn[, a[, b]]).
/// Zero-cost when no recorder is installed; removed entirely when
/// O2PC_TRACE_DISABLED is defined.
#ifndef O2PC_TRACE_DISABLED
#define O2PC_TRACE(type, ...)                                         \
  do {                                                                \
    if (::o2pc::trace::TraceRecorder* o2pc_trace_rec =                \
            ::o2pc::trace::ActiveRecorder()) {                        \
      o2pc_trace_rec->Record(::o2pc::trace::EventType::type,          \
                             __VA_ARGS__);                            \
    }                                                                 \
  } while (0)
#else
#define O2PC_TRACE(type, ...) \
  do {                        \
  } while (0)
#endif

#endif  // O2PC_TRACE_TRACE_H_
