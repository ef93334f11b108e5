#ifndef O2PC_CORE_MESSAGES_H_
#define O2PC_CORE_MESSAGES_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/marking.h"
#include "local/local_txn.h"
#include "net/message.h"

/// \file
/// Concrete payloads of the commit-layer messages. These are exactly the
/// standard 2PC message vocabulary; everything the marking protocols need
/// (transmarks, witness gossip, execution-site lists) rides piggyback, per
/// the paper's "no extra messages" design goal (§6, §7).

namespace o2pc::core {

/// Coordinator -> site: run subtransaction T_jk.
struct SubtxnInvokePayload : net::Payload {
  std::vector<local::Operation> ops;
  /// The coordinator's accumulated transmarks.j, input to rule R1 (null
  /// before the first admitted hop and whenever marking is off).
  std::shared_ptr<const TransMarks> transmarks;
  bool force_abort_vote = false;
  /// Execution-attempt number; lets the participant tell a network resend
  /// (same attempt: re-ack) from an R1-rejection retry (new attempt:
  /// re-execute).
  int attempt = 0;
  /// Start time of this global-transaction incarnation. Used by the
  /// *retirement fence*: a transaction older than a mark's UDUM
  /// retirement may have conflict-preceded the aborted transaction before
  /// its marks even existed, so it may pass a site that retired the mark
  /// only if it observed the mark uniformly everywhere else.
  SimTime txn_start = 0;
  MarkingGossip gossip;
};

/// Site -> coordinator: subtransaction finished / was rejected / failed.
struct SubtxnAckPayload : net::Payload {
  /// OK: executed; kRejected: R1 incompatibility (retriable); other codes:
  /// the subtransaction failed and was rolled back (e.g. kDeadlock).
  Status status;
  /// Updated transmarks.j (entry marks merged in) when status is OK.
  std::shared_ptr<const TransMarks> transmarks;
  /// Mirrors the invoke's attempt number.
  int attempt = 0;
  /// With kRejected: retrying this incarnation in place cannot succeed
  /// (e.g. it tripped a retirement fence); the coordinator should abort and
  /// let the system restart the work as a fresh incarnation.
  bool fatal = false;
  MarkingGossip gossip;
};

/// Coordinator -> site: VOTE-REQ.
struct VoteRequestPayload : net::Payload {
  /// Every participant site of this transaction. A blocked participant
  /// uses this list for the cooperative termination protocol: when the
  /// coordinator stops answering DECISION-REQs, peers are asked instead.
  std::vector<SiteId> participants;
  MarkingGossip gossip;
};

/// Site -> coordinator: VOTE.
struct VotePayload : net::Payload {
  bool commit = false;
  /// True when an abort vote comes from crash recovery (the site lost the
  /// subtransaction and its WAL vouches for nothing) rather than from
  /// business logic — retrying the transaction afresh makes sense.
  bool recovery_abort = false;
  MarkingGossip gossip;
};

/// Coordinator -> site: DECISION.
struct DecisionPayload : net::Payload {
  bool commit = false;
  /// True iff some participant locally committed (exposed updates) before
  /// this abort — i.e. at least one O2PC commit vote was received. A
  /// transaction that aborted before any exposure needs *no* undone marks:
  /// under strict 2PL its rollback is invisible, so no regular cycle can
  /// pass through it (marks would only cause spurious R1 rejections).
  bool exposed = false;
  /// Sites at which the transaction executed — the UDUM1 bookkeeping the
  /// abort case needs; the coordinator knows this anyway, so shipping it
  /// costs no extra message.
  std::vector<SiteId> exec_sites;
  MarkingGossip gossip;
};

/// Site -> coordinator: decision processed (including any compensation).
struct DecisionAckPayload : net::Payload {
  /// True if a compensating subtransaction ran at this site.
  bool compensated = false;
  MarkingGossip gossip;
};

/// Site -> coordinator home: DECISION-REQ. A participant blocked past its
/// decision timeout asks for the outcome; the home site's recovery agent
/// answers from the coordinator's force-written decision log even while
/// the coordinator itself is down (participant-driven decision recovery).
struct DecisionRequestPayload : net::Payload {
  MarkingGossip gossip;
};

/// Site -> peer site: TERM-REQ, the cooperative termination query. The
/// asker learned its peers from the VOTE-REQ participant list.
struct TermRequestPayload : net::Payload {
  MarkingGossip gossip;
};

/// Peer -> asker: TERM-RESP. `known` = the peer can name the outcome —
/// either it saw the DECISION, or its own state rules commit out (it voted
/// abort, or it had not voted and unilaterally aborted, renouncing the
/// commit vote the coordinator would need). `known == false` means the
/// peer is as uncertain as the asker (voted commit, no decision).
struct TermResponsePayload : net::Payload {
  bool known = false;
  bool commit = false;
  /// Mirrors DecisionPayload: whether the transaction exposed updates and
  /// where it executed (empty when the answering peer cannot say — the
  /// asker falls back to its own VOTE-REQ participant list).
  bool exposed = false;
  std::vector<SiteId> exec_sites;
  MarkingGossip gossip;
};

}  // namespace o2pc::core

#endif  // O2PC_CORE_MESSAGES_H_
