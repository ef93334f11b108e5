// Idempotence-under-duplication property tests (PR 7 acceptance gate).
//
// The protocol's at-least-once contract: every handler must absorb a
// redelivered message — duplicate VOTE-REQ after the vote, a DECISION
// re-delivered after its ack, a TERM-REQ from a ghost round — by
// re-answering from recorded state, never by re-executing the transition.
// These tests enforce the contract at the net layer: for every
// MessageType, a seeded campaign sweep is replayed with that type (and
// then with all types) delivered twice, and the oracle verdicts must
// match the duplicate-free baseline — no double-commit, no
// double-compensation, conservation clean, every transaction still
// terminating. tools/o2pc_campaign --duplicate-all runs the same gate at
// 10k-run volume in CI.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/runner.h"
#include "core/messages.h"
#include "core/system.h"
#include "net/message.h"
#include "net/network.h"
#include "net/payload_pool.h"
#include "trace/trace.h"
#include "workload/scenarios.h"

namespace o2pc::campaign {
namespace {

CampaignRunConfig BaseConfig(core::CommitProtocol protocol, std::uint64_t seed,
                             const char* template_name) {
  CampaignRunConfig config;
  config.protocol = protocol;
  config.seed = seed;
  config.num_sites = 3;
  config.keys_per_site = 16;
  config.num_globals = 12;
  config.num_locals = 6;
  config.vote_abort_probability = 0.15;
  config.template_name = template_name;
  config.plan = GeneratePlan(template_name, seed, config.num_sites);
  return config;
}

/// Runs `config` duplicate-free and with `1 + copies` deliveries of every
/// message matching `filter`, and asserts the duplicated run passes the
/// oracle battery exactly like the baseline. Duplication shifts message
/// timing (each copy draws its own latency), so journals legitimately
/// differ — the contract is on verdicts and conservation, not on bytes.
void ExpectIdempotentUnderDuplication(CampaignRunConfig config, int filter,
                                      int copies,
                                      const std::string& label) {
  const CampaignRunResult baseline = RunOne(config);
  ASSERT_TRUE(baseline.ok()) << label << ": baseline run failed the "
                             << "oracles: " << baseline.oracle.Summary();

  config.duplicate_copies = copies;
  config.duplicate_filter = filter;
  config.render_journal = true;
  const CampaignRunResult duplicated = RunOne(config);
  EXPECT_TRUE(duplicated.ok())
      << label << ": idempotence violation under duplication: "
      << duplicated.oracle.Summary();
  // Every transaction still reaches exactly one outcome — redelivery must
  // not manufacture or lose terminations.
  EXPECT_EQ(duplicated.committed + duplicated.aborted,
            baseline.committed + baseline.aborted)
      << label;

  // And the duplicated run is itself seed-deterministic.
  const CampaignRunResult again = RunOne(config);
  EXPECT_EQ(duplicated.fingerprint, again.fingerprint) << label;
  EXPECT_EQ(duplicated.journal, again.journal) << label;
}

TEST(IdempotenceTest, EveryMessageTypeSurvivesDoubleDelivery) {
  // Per-type sweep: each MessageType in turn is delivered twice for every
  // occurrence, across seeds and both protocols, over a fault-free plan.
  for (int type = 0; type < net::kNumMessageTypes; ++type) {
    for (const core::CommitProtocol protocol :
         {core::CommitProtocol::kOptimistic,
          core::CommitProtocol::kTwoPhaseCommit}) {
      for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
        ExpectIdempotentUnderDuplication(
            BaseConfig(protocol, seed, "none"), type, /*copies=*/1,
            std::string("type ") +
                net::MessageTypeName(static_cast<net::MessageType>(type)));
      }
    }
  }
}

TEST(IdempotenceTest, BlanketDuplicationSurvivesEveryFaultTemplate) {
  // All message types duplicated at once, on top of every fault template:
  // duplicates race crashes, partitions, gray-slow peers, and the
  // retransmission machinery itself.
  for (const std::string& name : DefaultTemplateNames()) {
    for (const core::CommitProtocol protocol :
         {core::CommitProtocol::kOptimistic,
          core::CommitProtocol::kTwoPhaseCommit}) {
      ExpectIdempotentUnderDuplication(BaseConfig(protocol, 61, name.c_str()),
                                       /*filter=*/-1, /*copies=*/1,
                                       "template " + name);
    }
  }
}

TEST(IdempotenceTest, TripleDeliveryOfDecisionPathMessages) {
  // The decision path (DECISION, DECISION-ACK, DECISION-REQ) is where
  // double-apply would corrupt money: triple-deliver each under both
  // protocols with the adversarial mix active.
  for (const net::MessageType type :
       {net::MessageType::kDecision, net::MessageType::kDecisionAck,
        net::MessageType::kDecisionReq}) {
    for (const core::CommitProtocol protocol :
         {core::CommitProtocol::kOptimistic,
          core::CommitProtocol::kTwoPhaseCommit}) {
      ExpectIdempotentUnderDuplication(
          BaseConfig(protocol, 71, "mixed_adversarial"),
          static_cast<int>(type), /*copies=*/2,
          std::string("decision-path ") + net::MessageTypeName(type));
    }
  }
}

TEST(IdempotenceTest, GhostRoundInvokeReAnswersFromRecordedState) {
  // Regression pin for the ghost-round redelivery bug: a duplicated
  // SUBTXN-INVOKE carrying a *higher* attempt number used to reinitialize
  // a subtransaction that had already voted (or decided), wiping the
  // recorded vote and letting a cooperative-termination peer resolve a
  // different outcome than the one the participant had bound itself to.
  // The handler now re-answers from recorded state. Duplicating INVOKE and
  // TERM-REQ together across retry-heavy templates exercises exactly that
  // window: a retransmitted round's INVOKE landing after the vote.
  for (const char* name : {"drops", "coordinator_outage", "gray"}) {
    for (const std::uint64_t seed : {5ull, 17ull, 29ull}) {
      CampaignRunConfig config =
          BaseConfig(core::CommitProtocol::kOptimistic, seed, name);
      ExpectIdempotentUnderDuplication(
          config, static_cast<int>(net::MessageType::kSubtxnInvoke),
          /*copies=*/2, std::string("ghost-invoke ") + name);
      ExpectIdempotentUnderDuplication(
          config, static_cast<int>(net::MessageType::kTermReq),
          /*copies=*/2, std::string("ghost-termreq ") + name);
    }
  }
}

TEST(IdempotenceTest, GhostInvokeAfterTermRenouncementDoesNotReadmit) {
  // Directed regression for the ghost-round bug the duplication sweep
  // predicts. Site 2's SUBTXN-INVOKE is lost, so when a cooperative-
  // termination probe asks it about the transaction, site 2 — knowing
  // nothing and with a WAL that vouches for nothing — records a
  // renouncement stub (attempt -1): a *binding* promise that it will
  // never vote commit, which lets the asker resolve abort. A duplicated /
  // reordered copy of the original INVOKE (attempt > -1) then finally
  // lands. The old handler fell through the stale-attempt check,
  // reinitialized the stub, executed the settled subtransaction, and
  // voted commit — diverging from the abort the CTP peer already acted
  // on. The handler must instead re-answer from the recorded binding
  // state: zero SUBTXN-ADMITs at site 2, ever, and never a commit vote.
  core::SystemOptions options;
  options.num_sites = 3;
  options.keys_per_site = 16;
  options.seed = 13;
  options.protocol.protocol = core::CommitProtocol::kOptimistic;
  options.protocol.decision_timeout = Millis(20);
  options.protocol.decision_req_attempts = 2;
  options.protocol.termination_budget = 12;
  core::DistributedSystem system(options);
  const Value initial_total = system.TotalValue();
  trace::TraceRecorder recorder;
  trace::ScopedTrace scope(&recorder, &system.simulator());

  // Lose every SUBTXN-INVOKE to site 2 for the first 60ms (capturing the
  // first for redelivery) — site 2 must stay ignorant until renouncing.
  auto captured = std::make_shared<net::Message>();
  auto have_captured = std::make_shared<bool>(false);
  system.network().SetFaultHook(
      [&system, captured, have_captured](const net::Message& m) {
        net::FaultDecision decision;
        if (m.type == net::MessageType::kSubtxnInvoke && m.to == 2 &&
            system.simulator().Now() < Millis(60)) {
          if (!*have_captured) {
            *captured = m;
            *have_captured = true;
          }
          decision.drop = true;
        }
        return decision;
      });

  const TxnId id =
      system.SubmitGlobal(workload::MakeTransfer(1, 1, 2, 2, 10));
  // t=40ms: a termination probe from an uncertain peer reaches site 2,
  // which has never heard of the transaction and renounces.
  system.simulator().Schedule(Millis(40), [&] {
    auto payload = net::MakePayload<core::TermRequestPayload>();
    net::Message probe;
    probe.from = 0;
    probe.to = 2;
    probe.type = net::MessageType::kTermReq;
    probe.txn = id;
    probe.payload = std::move(payload);
    system.network().Send(std::move(probe));
  });
  // t=60ms: the ghost INVOKE finally arrives.
  system.simulator().Schedule(Millis(60), [&] {
    ASSERT_TRUE(*have_captured);
    system.network().Send(*captured);
  });
  system.Run();

  // The renouncement is binding: the transaction aborted and the books
  // balance (any exposed sibling work was compensated).
  EXPECT_EQ(system.TotalValue(), initial_total);
#ifndef O2PC_TRACE_DISABLED
  int admits_site2 = 0;
  bool commit_vote_site2 = false;
  bool abort_vote_site2 = false;
  bool committed = false;
  for (const trace::TraceEvent& event : recorder.events()) {
    if (event.txn != id) continue;
    if (event.type == trace::EventType::kTxnFinish && event.a == 1) {
      committed = true;
    }
    if (event.site != 2) continue;
    if (event.type == trace::EventType::kSubtxnAdmit) ++admits_site2;
    if (event.type == trace::EventType::kVote) {
      (event.a == 1 ? commit_vote_site2 : abort_vote_site2) = true;
    }
  }
  // The ghost INVOKE was absorbed by the stub, never re-admitted or
  // executed, and site 2 re-answered its binding abort instead of
  // contradicting the renouncement with a commit vote.
  EXPECT_EQ(admits_site2, 0);
  EXPECT_FALSE(commit_vote_site2);
  EXPECT_TRUE(abort_vote_site2);
  EXPECT_FALSE(committed);
#endif
}

}  // namespace
}  // namespace o2pc::campaign
