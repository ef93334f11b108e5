#include "core/marking.h"

#include <algorithm>
#include <iterator>

#include "common/string_util.h"
#include "trace/trace.h"

namespace o2pc::core {

int TransMarks::UndoneCount(TxnId ti) const {
  auto it = undone_seen.find(ti);
  return it == undone_seen.end() ? 0 : static_cast<int>(it->second.size());
}

int TransMarks::LcCount(TxnId ti) const {
  auto it = lc_seen.find(ti);
  return it == lc_seen.end() ? 0 : static_cast<int>(it->second.size());
}

bool TransMarks::SawRetired(TxnId ti, SiteId site) const {
  auto it = retired_at.find(site);
  return it != retired_at.end() && it->second->contains(ti);
}

std::string TransMarks::ToString() const {
  std::vector<std::string> parts;
  parts.push_back(StrCat("visited=", visited()));
  for (const auto& [ti, sites] : undone_seen) {
    if (!sites.empty()) {
      parts.push_back(StrCat("ud(T", ti, ")=", sites.size()));
    }
  }
  for (const auto& [ti, sites] : lc_seen) {
    if (!sites.empty()) {
      parts.push_back(StrCat("lc(T", ti, ")=", sites.size()));
    }
  }
  return Join(parts, " ");
}

namespace {

/// P1 invariant: for every T_i, the visited sites are either *all* undone
/// w.r.t. T_i or *none* of them is. (The paper's one-way `transmarks
/// subset-of sitemarks` check is the forward half; the second loop is the
/// backward half that rejects "unmarked site first, undone site later" —
/// the case §6.2 singles out as resolvable only by aborting.)
bool CompatibleP1(const TransMarks& tm, const SiteMarks& site) {
  for (const auto& [ti, seen] : tm.undone_seen) {
    if (!seen.empty() && !site.undone.contains(ti) && !site.Retired(ti)) {
      return false;
    }
  }
  for (TxnId ti : site.undone) {
    if ((site.Retired(ti) ? 0 : tm.UndoneCount(ti)) < tm.visited()) {
      return false;
    }
  }
  return true;
}

/// The paper's P2 rule exactly as stated: locally-committed marks must be
/// all-or-nothing; undone and unmarked sites may mix freely. Unsound on
/// its own (see protocol.h, kP2Literal).
bool CompatibleP2Literal(const TransMarks& tm, const SiteMarks& site) {
  for (const auto& [ti, seen] : tm.lc_seen) {
    if (!seen.empty() && !site.locally_committed.contains(ti)) return false;
  }
  for (TxnId ti : site.locally_committed) {
    if (tm.LcCount(ti) < tm.visited()) return false;
  }
  return true;
}

/// The §6.2 "very simple protocol": all sites undone w.r.t. the same
/// transactions and locally-committed w.r.t. none.
bool CompatibleSimple(const TransMarks& tm, const SiteMarks& site) {
  if (!site.locally_committed.empty()) return false;
  for (const auto& [ti, seen] : tm.undone_seen) {
    if (!seen.empty() && !site.undone.contains(ti) && !site.Retired(ti)) {
      return false;
    }
  }
  for (TxnId ti : site.undone) {
    if (tm.visited() > 0 &&
        (site.Retired(ti) ? 0 : tm.UndoneCount(ti)) != tm.visited()) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool Compatible(GovernancePolicy policy, const TransMarks& tm,
                const SiteMarks& site) {
  switch (policy) {
    case GovernancePolicy::kNone:
      return true;
    case GovernancePolicy::kP1:
      return CompatibleP1(tm, site);
    case GovernancePolicy::kP2:
      // Strengthened P2: the literal dual plus P1's undone-uniformity.
      return CompatibleP2Literal(tm, site) && CompatibleP1(tm, site);
    case GovernancePolicy::kP2Literal:
      return CompatibleP2Literal(tm, site);
    case GovernancePolicy::kSimple:
      return CompatibleSimple(tm, site);
  }
  return true;
}

void MergeMarks(const SiteMarks& site_marks, SiteId site, TransMarks& tm) {
  if (site_marks.retired != nullptr) {
    // Observations of marks retired here no longer constrain this or any
    // later site.
    for (auto it = tm.undone_seen.begin(); it != tm.undone_seen.end();) {
      it = site_marks.Retired(it->first) ? tm.undone_seen.erase(it)
                                         : std::next(it);
    }
    tm.retired_at[site] = site_marks.retired;
  }
  tm.visited_sites.push_back(site);
  for (TxnId ti : site_marks.undone) tm.undone_seen[ti].insert(site);
  for (TxnId ti : site_marks.locally_committed) tm.lc_seen[ti].insert(site);
}

WitnessLog& WitnessKnowledge::log() {
  if (log_ == nullptr) log_ = std::make_shared<WitnessLog>();
  return *log_;
}

void WitnessKnowledge::Learn(const WitnessFact& fact) {
  auto it = std::lower_bound(facts_.begin(), facts_.end(), fact);
  if (it != facts_.end() && *it == fact) return;
  facts_.insert(it, fact);
  log().facts.push_back(fact);
}

void WitnessKnowledge::Add(const WitnessFact& fact) {
  // Journaled only on first-hand registration; gossiped copies (Merge)
  // trace back to an earlier Add at the witnessing vantage point.
  O2PC_TRACE(kWitness, fact.site, fact.ti);
  Learn(fact);
}

void WitnessKnowledge::Merge(const MarkingGossip& gossip) {
  const WitnessLog* source = gossip.log.get();
  // Nothing learned yet, or our own log (oracle mode merges the shared
  // directory into itself on every message).
  if (source == nullptr || source == log_.get()) return;
  auto mark = std::find_if(
      read_.begin(), read_.end(),
      [source](const Watermark& w) { return w.source.get() == source; });
  if (mark == read_.end()) mark = read_.insert(read_.end(), {gossip.log});
  // A stale or repeated snapshot ends at or before the watermark: no-op.
  for (; mark->facts < gossip.facts; ++mark->facts) {
    Learn(source->facts[mark->facts]);
  }
  for (; mark->exec_sites < gossip.exec_sites; ++mark->exec_sites) {
    const auto& [ti, sites] = source->exec_sites[mark->exec_sites];
    SetExecSites(ti, sites);
  }
}

void WitnessKnowledge::SetExecSites(TxnId ti, std::vector<SiteId> sites) {
  const std::size_t next = log_ == nullptr ? 0 : log_->exec_sites.size();
  if (exec_sites_.emplace(ti, next).second) {
    log().exec_sites.emplace_back(ti, std::move(sites));
  }
}

const std::vector<SiteId>* WitnessKnowledge::ExecSitesOf(TxnId ti) const {
  auto it = exec_sites_.find(ti);
  return it == exec_sites_.end() ? nullptr
                                 : &log_->exec_sites[it->second].second;
}

bool WitnessKnowledge::Covers(TxnId ti,
                              const std::vector<SiteId>& exec_sites) const {
  if (exec_sites.empty()) return false;
  for (SiteId site : exec_sites) {
    if (!std::binary_search(facts_.begin(), facts_.end(),
                            WitnessFact{ti, site})) {
      return false;
    }
  }
  return true;
}

bool WitnessKnowledge::Retired(TxnId ti) const {
  const std::vector<SiteId>* exec = ExecSitesOf(ti);
  return exec != nullptr && Covers(ti, *exec);
}

}  // namespace o2pc::core
