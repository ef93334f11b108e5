// Unit tests for the §6 marking machinery: the compatible() check of rule
// R1 under P1 / P2 / P2-literal / Simple, transmark accumulation, UDUM1
// witness knowledge, and the Figure-2 mark transitions as driven by the
// real protocol.

#include "core/marking.h"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>

#include "common/rng.h"
#include "core/messages.h"
#include "core/system.h"
#include "workload/scenarios.h"

namespace o2pc::core {
namespace {

SiteMarks UndoneWrt(std::initializer_list<TxnId> ids) {
  SiteMarks marks;
  marks.undone.insert(ids.begin(), ids.end());
  return marks;
}

SiteMarks LcWrt(std::initializer_list<TxnId> ids) {
  SiteMarks marks;
  marks.locally_committed.insert(ids.begin(), ids.end());
  return marks;
}

/// transmarks of a transaction that visited sites 100, 101, ... (n sites).
TransMarks Visited(int n) {
  TransMarks tm;
  for (int i = 0; i < n; ++i) {
    tm.visited_sites.push_back(static_cast<SiteId>(100 + i));
  }
  return tm;
}

/// Records that `ti` was seen undone at the first `count` visited sites.
void SeenUndone(TransMarks& tm, TxnId ti, int count) {
  for (int i = 0; i < count; ++i) tm.undone_seen[ti].insert(tm.visited_sites[i]);
}

/// Records that `ti` was seen locally-committed at the first `count` sites.
void SeenLc(TransMarks& tm, TxnId ti, int count) {
  for (int i = 0; i < count; ++i) tm.lc_seen[ti].insert(tm.visited_sites[i]);
}

// --- P1 -------------------------------------------------------------------

TEST(CompatibleP1Test, FirstSiteAlwaysCompatible) {
  EXPECT_TRUE(Compatible(GovernancePolicy::kP1, TransMarks{}, SiteMarks{}));
  EXPECT_TRUE(
      Compatible(GovernancePolicy::kP1, TransMarks{}, UndoneWrt({1, 2})));
}

TEST(CompatibleP1Test, SeenUndoneRequiresUndoneHere) {
  TransMarks tm = Visited(1);
  SeenUndone(tm, 1, 1);
  EXPECT_TRUE(Compatible(GovernancePolicy::kP1, tm, UndoneWrt({1})));
  // The forward half of R1: transmarks must be a subset of sitemarks.
  EXPECT_FALSE(Compatible(GovernancePolicy::kP1, tm, SiteMarks{}));
}

TEST(CompatibleP1Test, UnmarkedFirstThenUndoneRejected) {
  // The backward half (the §6.2 example resolvable only by aborting):
  // visited one site that was NOT undone w.r.t. T1; a site undone w.r.t.
  // T1 is now incompatible.
  TransMarks tm = Visited(1);
  EXPECT_FALSE(Compatible(GovernancePolicy::kP1, tm, UndoneWrt({1})));
}

TEST(CompatibleP1Test, UniformUndoneAcrossManySites) {
  TransMarks tm = Visited(3);
  SeenUndone(tm, 1, 3);
  EXPECT_TRUE(Compatible(GovernancePolicy::kP1, tm, UndoneWrt({1})));
  EXPECT_FALSE(Compatible(GovernancePolicy::kP1, tm, UndoneWrt({2})));
}

TEST(CompatibleP1Test, LcMarksIrrelevantToP1) {
  // The paper drops the locally-committed marking for P1 entirely.
  TransMarks tm = Visited(1);
  EXPECT_TRUE(Compatible(GovernancePolicy::kP1, tm, LcWrt({3})));
}

// --- P2 literal and strengthened -------------------------------------------

TEST(CompatibleP2Test, LiteralAllowsUndoneUnmarkedMix) {
  TransMarks tm = Visited(1);  // previous site unmarked w.r.t. everything
  EXPECT_TRUE(
      Compatible(GovernancePolicy::kP2Literal, tm, UndoneWrt({1})));
  // The strengthened P2 inherits P1's rejection of this mix.
  EXPECT_FALSE(Compatible(GovernancePolicy::kP2, tm, UndoneWrt({1})));
}

TEST(CompatibleP2Test, SeenLcRequiresLcHere) {
  TransMarks tm = Visited(1);
  SeenLc(tm, 1, 1);
  EXPECT_TRUE(Compatible(GovernancePolicy::kP2Literal, tm, LcWrt({1})));
  EXPECT_FALSE(Compatible(GovernancePolicy::kP2Literal, tm, SiteMarks{}));
}

TEST(CompatibleP2Test, LcHereRequiresLcEverywhereBefore) {
  TransMarks tm = Visited(2);
  SeenLc(tm, 1, 1);  // only one of two previous sites was LC w.r.t. T1
  EXPECT_FALSE(Compatible(GovernancePolicy::kP2Literal, tm, LcWrt({1})));
  SeenLc(tm, 1, 2);
  EXPECT_TRUE(Compatible(GovernancePolicy::kP2Literal, tm, LcWrt({1})));
}

TEST(CompatibleP2Test, FirstSiteVacuouslyCompatible) {
  EXPECT_TRUE(
      Compatible(GovernancePolicy::kP2Literal, TransMarks{}, LcWrt({5})));
}

// --- Simple -----------------------------------------------------------------

TEST(CompatibleSimpleTest, RejectsAnyLcMark) {
  EXPECT_FALSE(
      Compatible(GovernancePolicy::kSimple, TransMarks{}, LcWrt({1})));
}

TEST(CompatibleSimpleTest, RequiresIdenticalUndoneSets) {
  TransMarks tm = Visited(1);
  SeenUndone(tm, 1, 1);
  EXPECT_TRUE(Compatible(GovernancePolicy::kSimple, tm, UndoneWrt({1})));
  // Extra mark at the new site breaks set equality.
  EXPECT_FALSE(
      Compatible(GovernancePolicy::kSimple, tm, UndoneWrt({1, 2})));
  // Missing mark does too.
  EXPECT_FALSE(Compatible(GovernancePolicy::kSimple, tm, SiteMarks{}));
}

TEST(CompatibleSimpleTest, NoneGovernanceAllowsEverything) {
  TransMarks tm = Visited(5);
  SeenUndone(tm, 1, 2);
  EXPECT_TRUE(Compatible(GovernancePolicy::kNone, tm, UndoneWrt({9})));
}

// --- MergeMarks --------------------------------------------------------------

TEST(MergeMarksTest, AccumulatesSeenSitesAndVisits) {
  TransMarks tm;
  MergeMarks(UndoneWrt({1, 2}), /*site=*/4, tm);
  SiteMarks second = UndoneWrt({1});
  second.locally_committed.insert(7);
  MergeMarks(second, /*site=*/5, tm);
  EXPECT_EQ(tm.visited(), 2);
  EXPECT_EQ(tm.UndoneCount(1), 2);
  EXPECT_EQ(tm.UndoneCount(2), 1);
  EXPECT_EQ(tm.LcCount(7), 1);
  EXPECT_TRUE(tm.undone_seen[1].contains(4));
  EXPECT_TRUE(tm.undone_seen[1].contains(5));
  EXPECT_NE(tm.ToString().find("visited=2"), std::string::npos);
}

// --- Tombstone snapshots ------------------------------------------------------

std::shared_ptr<const TombstoneKeys> Tombstones(
    std::initializer_list<TxnId> ids) {
  return std::make_shared<TombstoneKeys>(ids);
}

TEST(TombstoneSnapshotTest, AnswersMatchThePerTxnSiteSets) {
  // Reference: per-T_i site sets, filled at every admission with the
  // admitting site for each tombstone it held.
  std::map<TxnId, std::set<SiteId>> reference;
  TransMarks tm;
  auto admit = [&](SiteId site, const SiteMarks& marks) {
    MergeMarks(marks, site, tm);
    if (marks.retired == nullptr) return;
    for (TxnId ti : *marks.retired) reference[ti].insert(site);
  };
  SiteMarks site4;
  site4.retired = Tombstones({1});
  admit(4, site4);
  admit(5, SiteMarks{});  // nothing retired there
  site4.retired = Tombstones({1, 2});  // T2 retires between the visits
  admit(4, site4);
  admit(7, SiteMarks{});
  for (TxnId ti : {1, 2, 3}) {
    for (SiteId site : {4, 5, 6, 7}) {  // 6 was never visited
      EXPECT_EQ(tm.SawRetired(ti, site), reference[ti].contains(site))
          << "T" << ti << " at site " << site;
    }
  }
  EXPECT_TRUE(tm.SawRetired(2, 4));
  EXPECT_FALSE(tm.SawRetired(1, 5));
  EXPECT_FALSE(tm.SawRetired(1, 6));
  EXPECT_EQ(tm.visited(), 4);
}

TEST(TombstoneSnapshotTest, RetiredMarkObservationsNoLongerConstrain) {
  TransMarks tm = Visited(1);
  SeenUndone(tm, 1, 1);  // T1 seen undone at site 100
  SiteMarks retired_here;  // T1's mark already retired at the next site
  retired_here.retired = Tombstones({1});
  EXPECT_FALSE(Compatible(GovernancePolicy::kP1, tm, SiteMarks{}));
  EXPECT_TRUE(Compatible(GovernancePolicy::kP1, tm, retired_here));
  EXPECT_TRUE(Compatible(GovernancePolicy::kSimple, tm, retired_here));
  MergeMarks(retired_here, 101, tm);
  EXPECT_EQ(tm.UndoneCount(1), 0);  // the stale observation is dropped
  EXPECT_TRUE(tm.SawRetired(1, 101));
  EXPECT_FALSE(tm.SawRetired(1, 100));
}

// --- Shared transmarks on the wire ---------------------------------------------

/// Every SUBTXN-INVOKE and OK SUBTXN-ACK of a run, with the transmarks
/// object each carried.
struct MarksOnWire {
  struct Hop {
    SiteId site = kInvalidSite;
    int attempt = 0;
    const TransMarks* marks = nullptr;
    std::shared_ptr<const net::Payload> keep_alive;
  };
  std::vector<Hop> invokes;
  std::vector<Hop> acks;
};

TEST(SharedTransMarksTest, HopsShareOneTransMarksPerAdmission) {
  for (const CommitProtocol protocol :
       {CommitProtocol::kOptimistic, CommitProtocol::kTwoPhaseCommit}) {
    SystemOptions options;
    options.num_sites = 3;
    options.keys_per_site = 16;
    options.seed = 5;
    options.protocol.protocol = protocol;
    DistributedSystem system(options);
    MarksOnWire wire;
    bool dropped = false;
    system.network().SetFaultHook([&](const net::Message& message) {
      net::FaultDecision decision;
      if (message.type == net::MessageType::kSubtxnInvoke) {
        const auto& invoke =
            static_cast<const SubtxnInvokePayload&>(*message.payload);
        wire.invokes.push_back({message.to, invoke.attempt,
                                invoke.transmarks.get(), message.payload});
      } else if (message.type == net::MessageType::kSubtxnAck) {
        const auto& ack =
            static_cast<const SubtxnAckPayload&>(*message.payload);
        if (!ack.status.ok()) return decision;
        wire.acks.push_back({message.from, ack.attempt, ack.transmarks.get(),
                             message.payload});
        // Lose site 1's first ack: the coordinator resends the invoke.
        if (message.from == 1 && !dropped) decision.drop = dropped = true;
      }
      return decision;
    });
    GlobalTxnSpec spec = workload::MakeTransfer(0, 1, 1, 2, 10);
    SubtxnSpec third;
    third.site = 2;
    third.ops.push_back(local::Operation{local::OpType::kIncrement, 3, 1});
    spec.subtxns.push_back(third);
    system.SubmitGlobal(spec);
    system.Run();

    ASSERT_EQ(wire.acks.size(), 4u);  // site 1 acked twice
    ASSERT_GE(wire.invokes.size(), 4u);
    std::map<SiteId, const TransMarks*> acked;
    for (const MarksOnWire::Hop& ack : wire.acks) {
      const auto it = acked.emplace(ack.site, ack.marks).first;
      EXPECT_EQ(it->second, ack.marks) << "re-ack rebuilt the transmarks";
    }
    for (const MarksOnWire::Hop& invoke : wire.invokes) {
      // Each invoke, resends included, carries exactly the transmarks the
      // previous site acked; the first hop carries none.
      const TransMarks* expected =
          invoke.site == 0 ? nullptr : acked.at(invoke.site - 1);
      EXPECT_EQ(invoke.marks, expected) << "invoke to site " << invoke.site;
    }
    EXPECT_GT(std::count_if(wire.invokes.begin(), wire.invokes.end(),
                            [](const MarksOnWire::Hop& hop) {
                              return hop.site == 1;
                            }),
              1);
    if (protocol == CommitProtocol::kTwoPhaseCommit) {
      // Marking is off: no hop builds transmarks at all.
      for (const auto& [site, marks] : acked) EXPECT_EQ(marks, nullptr);
      continue;
    }
    // One new TransMarks per admitted hop (after the end-of-subtransaction
    // revalidation, which only reads it), each one visit longer.
    for (SiteId site = 0; site < 3; ++site) {
      ASSERT_NE(acked.at(site), nullptr);
      EXPECT_EQ(acked.at(site)->visited(), static_cast<int>(site) + 1);
      if (site > 0) {
        EXPECT_NE(acked.at(site), acked.at(site - 1));
      }
    }
  }
}

// --- WitnessKnowledge / UDUM1 -----------------------------------------------

TEST(WitnessKnowledgeTest, CoversRequiresAllExecutionSites) {
  WitnessKnowledge knowledge;
  knowledge.Add(WitnessFact{5, 0});
  EXPECT_FALSE(knowledge.Covers(5, {0, 1}));
  knowledge.Add(WitnessFact{5, 1});
  EXPECT_TRUE(knowledge.Covers(5, {0, 1}));
  EXPECT_FALSE(knowledge.Covers(5, {}));  // unknown exec sites: never
  EXPECT_FALSE(knowledge.Covers(6, {0}));
}

TEST(WitnessKnowledgeTest, RetiredNeedsExecSitesAndFullCoverage) {
  WitnessKnowledge knowledge;
  knowledge.Add(WitnessFact{5, 0});
  knowledge.Add(WitnessFact{5, 1});
  EXPECT_FALSE(knowledge.Retired(5));  // exec sites unknown
  knowledge.SetExecSites(5, {0, 1});
  EXPECT_TRUE(knowledge.Retired(5));
  knowledge.SetExecSites(6, {0, 2});
  EXPECT_FALSE(knowledge.Retired(6));  // site 2 unwitnessed
  // Exec-site lists and witness facts survive a gossip round trip.
  WitnessKnowledge other;
  other.Merge(knowledge.Export());
  EXPECT_TRUE(other.Retired(5));
  ASSERT_NE(other.ExecSitesOf(6), nullptr);
  EXPECT_EQ(other.ExecSitesOf(6)->size(), 2u);
}

TEST(WitnessKnowledgeTest, GossipRoundTrip) {
  WitnessKnowledge a;
  a.Add(WitnessFact{1, 0});
  a.Add(WitnessFact{1, 1});
  WitnessKnowledge b;
  b.Merge(a.Export());
  EXPECT_TRUE(b.Covers(1, {0, 1}));
  EXPECT_EQ(b.size(), 2u);
}

/// Two exports are the same snapshot iff they name the same log prefix.
bool SameSnapshot(const MarkingGossip& a, const MarkingGossip& b) {
  return a.log == b.log && a.facts == b.facts && a.exec_sites == b.exec_sites;
}

TEST(WitnessKnowledgeTest, ExportCacheInvalidatedByEveryMutation) {
  WitnessKnowledge a;
  a.Add(WitnessFact{1, 0});
  // Consecutive exports without a mutation share one snapshot.
  auto snapshot = a.Export();
  EXPECT_TRUE(SameSnapshot(a.Export(), snapshot));
  // Each mutation kind must produce a fresh snapshot carrying the news.
  a.Add(WitnessFact{2, 0});
  auto after_add = a.Export();
  EXPECT_FALSE(SameSnapshot(after_add, snapshot));
  EXPECT_EQ(after_add.facts, 2u);
  a.SetExecSites(2, {0});
  auto after_exec = a.Export();
  EXPECT_FALSE(SameSnapshot(after_exec, after_add));
  ASSERT_EQ(after_exec.exec_sites, 1u);
  // A repeated fact or exec-site list is no news.
  a.Add(WitnessFact{2, 0});
  a.SetExecSites(2, {0, 1});
  EXPECT_TRUE(SameSnapshot(a.Export(), after_exec));
  // The log is append-only: older snapshots still read as they were.
  EXPECT_EQ(snapshot.facts, 1u);
  EXPECT_EQ(snapshot.log, after_exec.log);
  // A merge that brings new facts invalidates too...
  WitnessKnowledge b;
  b.Add(WitnessFact{3, 1});
  auto b_snapshot = b.Export();
  b.Merge(a.Export());
  EXPECT_FALSE(SameSnapshot(b.Export(), b_snapshot));
  EXPECT_EQ(b.size(), 3u);
  // ...but a stale merge (nothing new) keeps the snapshot, and a receiver
  // that already merged a snapshot still learns facts exported after the
  // source mutates again.
  auto b_current = b.Export();
  b.Merge(a.Export());
  b.Merge(snapshot);  // older than what b already read
  EXPECT_TRUE(SameSnapshot(b.Export(), b_current));
  a.Add(WitnessFact{9, 3});
  b.Merge(a.Export());
  EXPECT_TRUE(b.Covers(9, {3}));
}

/// Reference gossip semantics: a snapshot is the whole fact set and every
/// exec-site list; a merge unions the facts and adds exec-site lists in
/// ascending T_i order, first list wins.
struct WholeSetKnowledge {
  std::set<WitnessFact> facts;
  std::map<TxnId, std::vector<SiteId>> exec_sites;

  void Merge(const WholeSetKnowledge& gossip) {
    facts.insert(gossip.facts.begin(), gossip.facts.end());
    for (const auto& [ti, sites] : gossip.exec_sites) {
      exec_sites.emplace(ti, sites);
    }
  }
  bool Covers(TxnId ti, const std::vector<SiteId>& sites) const {
    if (sites.empty()) return false;
    for (SiteId site : sites) {
      if (!facts.contains(WitnessFact{ti, site})) return false;
    }
    return true;
  }
};

TEST(WitnessKnowledgeTest, GossipLogMatchesWholeSetUnion) {
  constexpr int kNodes = 4;
  constexpr TxnId kTxns = 10;
  constexpr SiteId kSites = 5;
  std::array<WitnessKnowledge, kNodes> nodes;
  std::array<WholeSetKnowledge, kNodes> model;
  // Every exported snapshot stays deliverable forever, to anyone, any
  // number of times: stale, reordered, duplicated and self deliveries.
  std::vector<std::pair<MarkingGossip, WholeSetKnowledge>> wire;
  Rng rng(2024);
  auto random_sites = [&rng] {
    std::vector<SiteId> sites;
    const auto n = rng.Uniform(1, 3);
    for (int i = 0; i < n; ++i) {
      sites.push_back(static_cast<SiteId>(rng.Uniform(0, kSites - 1)));
    }
    return sites;
  };
  int learned = 0;
  for (int step = 0; step < 5000; ++step) {
    const int n = static_cast<int>(rng.Uniform(0, kNodes - 1));
    const auto op = rng.Uniform(0, 9);
    const auto ti = static_cast<TxnId>(rng.Uniform(1, kTxns));
    if (op < 2) {
      const WitnessFact fact{ti,
                             static_cast<SiteId>(rng.Uniform(0, kSites - 1))};
      nodes[n].Add(fact);
      model[n].facts.insert(fact);
    } else if (op < 3) {
      const std::vector<SiteId> sites = random_sites();
      nodes[n].SetExecSites(ti, sites);
      model[n].exec_sites.emplace(ti, sites);
    } else if (op < 5) {
      wire.emplace_back(nodes[n].Export(), model[n]);
    } else if (op < 6) {
      nodes[n].Merge(nodes[n].Export());  // self delivery
    } else if (!wire.empty()) {
      const auto& [gossip, reference] = wire[static_cast<std::size_t>(
          rng.Uniform(0, static_cast<std::int64_t>(wire.size()) - 1))];
      const std::size_t before = nodes[n].size();
      nodes[n].Merge(gossip);
      model[n].Merge(reference);
      if (nodes[n].size() > before) ++learned;
    }
    for (int k = 0; k < kNodes; ++k) {
      ASSERT_EQ(nodes[k].size(), model[k].facts.size())
          << "node " << k << " step " << step;
      for (TxnId t = 1; t <= kTxns; ++t) {
        const std::vector<SiteId>* exec = nodes[k].ExecSitesOf(t);
        auto it = model[k].exec_sites.find(t);
        ASSERT_EQ(exec != nullptr, it != model[k].exec_sites.end());
        if (exec != nullptr) {
          ASSERT_EQ(*exec, it->second) << "node " << k << " T" << t;
        }
        ASSERT_EQ(nodes[k].Retired(t),
                  it != model[k].exec_sites.end() &&
                      model[k].Covers(t, it->second));
        for (SiteId site = 0; site < kSites; ++site) {
          ASSERT_EQ(nodes[k].Covers(t, {site}), model[k].Covers(t, {site}));
        }
        ASSERT_EQ(nodes[k].Covers(t, {0, 2, 4}), model[k].Covers(t, {0, 2, 4}));
      }
    }
  }
  EXPECT_GT(learned, 50);  // merges really carried news
}

// --- Figure 2: mark transitions driven by the real protocol -------------------

class MarkTransitionTest : public ::testing::Test {
 protected:
  static SystemOptions Options(GovernancePolicy policy) {
    SystemOptions options;
    options.num_sites = 2;
    options.keys_per_site = 16;
    options.seed = 3;
    options.protocol.governance = policy;
    return options;
  }
};

TEST_F(MarkTransitionTest, VoteCommitThenDecisionCommitLeavesUnmarked) {
  DistributedSystem system(Options(GovernancePolicy::kP2));
  const TxnId id =
      system.SubmitGlobal(workload::MakeTransfer(0, 1, 1, 2, 10));
  system.Run();
  // Figure 2: unmarked -> locally-committed -> (decision commit) ->
  // unmarked.
  EXPECT_TRUE(system.participant(0).marks().Unmarked(id));
  EXPECT_TRUE(system.participant(1).marks().Unmarked(id));
}

TEST_F(MarkTransitionTest, DecisionAbortLeavesUndoneAtBothKindsOfSites) {
  DistributedSystem system(Options(GovernancePolicy::kP1));
  GlobalTxnSpec spec = workload::MakeTransfer(0, 1, 1, 2, 10);
  spec.subtxns[1].force_abort_vote = true;
  const TxnId id = system.SubmitGlobal(spec);
  system.Run();
  // Site 0 locally committed and was compensated (R2: undone at CT end);
  // site 1 voted abort and rolled back (vote-abort -> undone).
  EXPECT_TRUE(system.participant(0).marks().undone.contains(id));
  EXPECT_TRUE(system.participant(1).marks().undone.contains(id));
}

TEST_F(MarkTransitionTest, UdumWitnessesEventuallyUnmark) {
  SystemOptions options = Options(GovernancePolicy::kP1);
  options.protocol.directory = DirectoryMode::kOracle;
  DistributedSystem system(options);
  GlobalTxnSpec spec = workload::MakeTransfer(0, 1, 1, 2, 10);
  spec.subtxns[1].force_abort_vote = true;
  const TxnId id = system.SubmitGlobal(spec);
  system.Run();
  ASSERT_TRUE(system.participant(0).marks().undone.contains(id));
  // A witness transaction at each execution site satisfies UDUM1; with the
  // oracle directory both sites unmark as soon as the facts exist.
  system.SubmitLocal(0, {local::Operation{local::OpType::kIncrement, 1, 1},
                         local::Operation{local::OpType::kIncrement, 2, -1}});
  system.SubmitLocal(1, {local::Operation{local::OpType::kIncrement, 1, 1},
                         local::Operation{local::OpType::kIncrement, 2, -1}});
  system.Run();
  // One more access evaluates R3 at each site.
  system.SubmitLocal(0, {local::Operation{local::OpType::kRead, 1, 0}});
  system.SubmitLocal(1, {local::Operation{local::OpType::kRead, 1, 0}});
  system.Run();
  EXPECT_FALSE(system.participant(0).marks().undone.contains(id));
  EXPECT_FALSE(system.participant(1).marks().undone.contains(id));
  EXPECT_GE(system.stats().Count("udum_unmarks"), 2u);
}

TEST_F(MarkTransitionTest, TwoPcNeverMarks) {
  SystemOptions options = Options(GovernancePolicy::kP1);
  options.protocol.protocol = CommitProtocol::kTwoPhaseCommit;
  DistributedSystem system(options);
  GlobalTxnSpec spec = workload::MakeTransfer(0, 1, 1, 2, 10);
  spec.subtxns[1].force_abort_vote = true;
  const TxnId id = system.SubmitGlobal(spec);
  system.Run();
  EXPECT_TRUE(system.participant(0).marks().Unmarked(id));
  EXPECT_TRUE(system.participant(1).marks().Unmarked(id));
}

}  // namespace
}  // namespace o2pc::core
