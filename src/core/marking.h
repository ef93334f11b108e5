#ifndef O2PC_CORE_MARKING_H_
#define O2PC_CORE_MARKING_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_hash.h"
#include "common/types.h"
#include "core/protocol.h"

/// \file
/// The marking machinery of §6: per-site mark sets (`sitemarks`), the
/// per-transaction accumulated view (`transmarks`), the `compatible()`
/// check of rule R1 for protocols P1 / P2 / Simple, and the UDUM1 witness
/// bookkeeping behind rule R3 (undone -> unmarked transitions).
///
/// Mark lifecycle (paper Figure 2), per (site, T_i) pair:
///
///     unmarked --vote commit--> locally-committed --decision commit-->
///     unmarked; locally-committed --decision abort--> undone (via CT_ik,
///     rule R2); unmarked --vote abort--> undone; undone --UDUM--> unmarked.
///
/// P1 only needs the `undone` marks (the paper drops the locally-committed
/// marking as redundant for P1); P2 needs both kinds.
///
/// These structures ride on every gossip-bearing message, so nothing that
/// is only read is ever copied: transmarks travel as shared immutable
/// snapshots (one new one per admitted hop), a site's tombstone keys as one
/// shared snapshot per retirement, and witness gossip as a prefix of the
/// sender's append-only knowledge log.

namespace o2pc::core {

/// One (T_i, witnessing site) UDUM1 fact: "some transaction executed at
/// `site` while `site` was undone w.r.t. `ti`".
struct WitnessFact {
  TxnId ti = kInvalidTxn;
  SiteId site = kInvalidSite;

  friend auto operator<=>(const WitnessFact&, const WitnessFact&) = default;
};

/// Everything one WitnessKnowledge learned, in learning order. Append-only,
/// so a prefix taken earlier never changes.
struct WitnessLog {
  std::vector<WitnessFact> facts;
  /// Execution-site lists of aborted transactions (learned from abort
  /// DECISIONs); lets any site evaluate UDUM1 for any transaction.
  std::vector<std::pair<TxnId, std::vector<SiteId>>> exec_sites;
};

/// Witness facts and related marking intelligence piggybacked on the
/// standard 2PC messages (the protocol adds no messages of its own): a
/// prefix of the sender's WitnessLog. Copying one bumps a reference count.
struct MarkingGossip {
  /// Null while the sender has learned nothing.
  std::shared_ptr<const WitnessLog> log;
  /// Lengths of the prefixes of `log->facts` and `log->exec_sites`.
  std::size_t facts = 0;
  std::size_t exec_sites = 0;
};

/// Keys of the undone marks one site retired by rule R3 (its tombstones).
/// A site's set only grows, so a later snapshot contains every earlier one.
using TombstoneKeys = common::SmallSet<TxnId>;

/// The marks of one site.
struct SiteMarks {
  /// sitemarks.k of the paper: T_i in `undone` iff this site is undone
  /// w.r.t. T_i.
  common::SmallSet<TxnId> undone;
  /// Subset of `undone`: T_i exposed updates somewhere before aborting
  /// (some participant locally committed). Exposure lets the dependency
  /// escape T_i's execution sites through readers, so checks on exposed
  /// marks must be strict over *all* visited sites; unexposed marks only
  /// constrain visits to T_i's execution sites. Vote-abort marks are
  /// conservatively exposed until the DECISION clarifies.
  common::SmallSet<TxnId> exposed_undone;
  /// Sites this is locally-committed w.r.t. (maintained for P2).
  common::SmallSet<TxnId> locally_committed;
  /// Execution-site lists of aborted transactions (piggybacked on the
  /// abort DECISION), needed to evaluate UDUM1.
  common::SmallMap<TxnId, std::vector<SiteId>> exec_sites;
  /// This site's tombstones, rebuilt when a mark retires and shared by the
  /// transmarks admitted in between (null while nothing retired). Their
  /// observations no longer constrain admission: the retirement fence does.
  std::shared_ptr<const TombstoneKeys> retired;

  bool Unmarked(TxnId ti) const {
    return !undone.contains(ti) && !locally_committed.contains(ti);
  }
  bool Retired(TxnId ti) const {
    return retired != nullptr && retired->contains(ti);
  }
};

/// transmarks.j of the paper, generalized so one structure serves P1, P2
/// and Simple: the sites visited so far (in order) and, for each observed
/// T_i, at exactly which of those sites its mark was seen. P1's invariant
/// is then "undone_seen[T_i] is empty or equals the visited set".
struct TransMarks {
  std::vector<SiteId> visited_sites;
  common::SmallMap<TxnId, common::SmallSet<SiteId>> undone_seen;
  common::SmallMap<TxnId, common::SmallSet<SiteId>> lc_seen;
  /// Per visited site, its tombstone keys when it last admitted this
  /// transaction (absent when it had none). A visit made while T_i was
  /// already retired there provably follows every rollback/compensation
  /// of T_i, so the retirement fence accepts it in place of a mark
  /// observation.
  common::SmallMap<SiteId, std::shared_ptr<const TombstoneKeys>> retired_at;

  int visited() const { return static_cast<int>(visited_sites.size()); }
  int UndoneCount(TxnId ti) const;
  int LcCount(TxnId ti) const;
  /// True iff `site` admitted this transaction after retiring T_i's mark.
  bool SawRetired(TxnId ti, SiteId site) const;

  std::string ToString() const;
};

/// Rule R1's compatibility check. Returns true if a subtransaction of a
/// global transaction with accumulated view `tm` may execute at a site
/// whose current marks are `site`. Undone observations of marks `site`
/// retired are ignored.
bool Compatible(GovernancePolicy policy, const TransMarks& tm,
                const SiteMarks& site);

/// Folds `site_marks` (the marks of site `site`) into `tm` after a
/// subtransaction was admitted there, dropping the undone observations of
/// marks the site retired and keeping its tombstone snapshot.
void MergeMarks(const SiteMarks& site_marks, SiteId site, TransMarks& tm);

/// UDUM1 witness knowledge of one vantage point (a site, or the shared
/// oracle). Answers "have all execution sites of T_i been witnessed?".
///
/// What it learns is appended to its WitnessLog, so Export() is O(1): a
/// prefix of the log. Merge — called for every message's gossip — reads
/// only the part of the source's log past a per-source watermark. That is
/// exact because knowledge never shrinks and logs are append-only: a
/// prefix already read was already learned. Not copyable: snapshots share
/// the log.
class WitnessKnowledge {
 public:
  WitnessKnowledge() = default;
  WitnessKnowledge(const WitnessKnowledge&) = delete;
  WitnessKnowledge& operator=(const WitnessKnowledge&) = delete;

  /// Registers a first-hand witness observation (gossiped facts arrive
  /// via Merge and are not re-journaled).
  void Add(const WitnessFact& fact);
  /// Learns the facts and execution-site lists of `gossip` not read from
  /// its log before. An exec-site list already known stays (first wins).
  void Merge(const MarkingGossip& gossip);

  /// Records where an aborted transaction executed (from the DECISION).
  void SetExecSites(TxnId ti, std::vector<SiteId> sites);
  /// Known execution sites of `ti`, or nullptr.
  const std::vector<SiteId>* ExecSitesOf(TxnId ti) const;

  /// Exports everything known, for piggybacking.
  MarkingGossip Export() const {
    if (log_ == nullptr) return {};
    return {log_, log_->facts.size(), log_->exec_sites.size()};
  }

  /// True iff a witness is known for every site in `exec_sites`
  /// (UDUM1 for T_i; `exec_sites` empty means not yet known -> false).
  bool Covers(TxnId ti, const std::vector<SiteId>& exec_sites) const;

  /// True iff T_i's execution sites are known and all witnessed — UDUM1
  /// holds globally and every site may treat T_i's marks as retired.
  bool Retired(TxnId ti) const;

  std::size_t size() const { return facts_.size(); }

 private:
  /// How far one source's log has been read.
  struct Watermark {
    std::shared_ptr<const WitnessLog> source;
    std::size_t facts = 0;
    std::size_t exec_sites = 0;
  };

  /// Learns one fact (index + log) unless already known.
  void Learn(const WitnessFact& fact);
  WitnessLog& log();

  /// Sorted ascending, unique: the lookup index over log_->facts.
  std::vector<WitnessFact> facts_;
  /// T_i -> index of its exec-site list in log_->exec_sites.
  common::SmallMap<TxnId, std::size_t> exec_sites_;
  /// Created on the first thing learned (2PC runs never learn anything).
  std::shared_ptr<WitnessLog> log_;
  std::vector<Watermark> read_;
};

}  // namespace o2pc::core

#endif  // O2PC_CORE_MARKING_H_
