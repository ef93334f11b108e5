#include "core/system.h"

#include "common/logging.h"
#include "trace/trace.h"

namespace o2pc::core {

DistributedSystem::SiteRuntime::SiteRuntime(
    sim::Simulator* simulator, net::Network* network, TxnIdAllocator* ids,
    WitnessKnowledge* shared_knowledge, metrics::StatsCollector* stats,
    SiteId site, const SystemOptions& options, const StepHook* step_hook)
    : db(simulator,
         local::LocalDb::Options{site, options.op_cost,
                                 options.lock_wait_timeout,
                                 options.seed ^ 0x10ca1dbULL,
                                 options.lock_options}),
      participant(
          simulator, network, &db, ids,
          shared_knowledge != nullptr ? shared_knowledge : &own_knowledge,
          stats,
          Participant::Options{options.protocol, kMarksKey, step_hook,
                               options.seed ^
                                   (site * 0x9e3779b97f4a7c15ULL) ^
                                   0x7465726dULL}) {}

DistributedSystem::DistributedSystem(SystemOptions options)
    : options_(options),
      simulator_(),
      network_(&simulator_, options.network, options.seed ^ 0x6e657477ULL),
      rng_(options.seed) {
  O2PC_CHECK(options_.num_sites > 0);
  WitnessKnowledge* shared =
      options_.protocol.directory == DirectoryMode::kOracle
          ? &oracle_knowledge_
          : nullptr;
  sites_.reserve(options_.num_sites);
  for (int i = 0; i < options_.num_sites; ++i) {
    const SiteId site = static_cast<SiteId>(i);
    sites_.push_back(std::make_unique<SiteRuntime>(
        &simulator_, &network_, &ids_, shared, &stats_, site, options_,
        &step_hook_));
    network_.RegisterNode(site, [this, site](const net::Message& message) {
      Dispatch(site, message);
    });
    // Preload data keys and the marking-set key.
    for (DataKey key = 0; key < options_.keys_per_site; ++key) {
      sites_.back()->db.Preload(key, options_.initial_value);
    }
    sites_.back()->db.Preload(kMarksKey, 0);
    if (options_.checkpoint_interval > 0) ScheduleCheckpoint(site);
  }
}

void DistributedSystem::ScheduleCheckpoint(SiteId site) {
  NoteIdleTimerScheduled();
  simulator_.Schedule(options_.checkpoint_interval, [this, site] {
    NoteIdleTimerFired();
    sites_.at(site)->db.Checkpoint();
    stats_.Incr("checkpoints");
    // Keep checkpointing only while *other* work remains — checkpoint
    // timers must not keep the simulation (or each other) alive.
    if (HasLiveWork()) {
      ScheduleCheckpoint(site);
    }
  });
}

void DistributedSystem::RecomposeStepHook() {
  if (!step_observer_) {
    step_hook_ = user_step_hook_;
    return;
  }
  if (!user_step_hook_) {
    step_hook_ = step_observer_;
    return;
  }
  step_hook_ = [this](const StepContext& context) {
    step_observer_(context);
    user_step_hook_(context);
  };
}

void DistributedSystem::Dispatch(SiteId site, const net::Message& message) {
  switch (message.type) {
    case net::MessageType::kSubtxnInvoke:
    case net::MessageType::kVoteRequest:
    case net::MessageType::kDecision:
    case net::MessageType::kTermReq:
    case net::MessageType::kTermResp:
      sites_.at(site)->participant.OnMessage(message);
      return;
    case net::MessageType::kSubtxnAck:
    case net::MessageType::kVote:
    case net::MessageType::kDecisionAck:
    case net::MessageType::kDecisionReq: {
      auto it = coordinators_.find(message.txn);
      if (it == coordinators_.end()) {
        O2PC_LOG(kWarn) << "no coordinator for T" << message.txn;
        return;
      }
      it->second->OnMessage(message);
      return;
    }
    case net::MessageType::kUser:
      return;  // tests register their own nodes for user messages
  }
}

TxnId DistributedSystem::SubmitGlobal(GlobalTxnSpec spec,
                                      GlobalDoneCallback done) {
  O2PC_CHECK(spec.Valid()) << "invalid global transaction spec";
  ++globals_submitted_;
  auto pending = std::make_shared<PendingGlobal>();
  pending->spec = std::move(spec);
  pending->done = std::move(done);
  pending->first_submit = simulator_.Now();
  const TxnId id = ids_.Next();
  LaunchGlobal(std::move(pending), id);
  return id;
}

void DistributedSystem::LaunchGlobal(std::shared_ptr<PendingGlobal> pending,
                                     TxnId id) {
  const SiteId home = pending->spec.subtxns.front().site;
  Coordinator::Options coordinator_options{options_.protocol, home,
                                           &step_hook_};
  auto coordinator = std::make_unique<Coordinator>(
      &simulator_, &network_,
      // The coordinator shares its home site's witness knowledge — it is a
      // process at that site, not an extra network node.
      options_.protocol.directory == DirectoryMode::kOracle
          ? &oracle_knowledge_
          : &sites_.at(home)->own_knowledge,
      &stats_, rng_.Fork(id), coordinator_options);
  Coordinator* raw = coordinator.get();
  coordinators_[id] = std::move(coordinator);
  raw->Start(id, pending->spec,
             [this, pending](const GlobalResult& result) {
               OnGlobalDone(pending, result);
             });
}

void DistributedSystem::OnGlobalDone(std::shared_ptr<PendingGlobal> pending,
                                     const GlobalResult& result) {
  pending->total_rejections += result.r1_rejections;
  pending->total_compensations += result.compensations;
  if (!result.committed && !result.exposed) {
    unexposed_aborted_.insert(result.id);
  }
  if (!result.committed && result.restartable &&
      pending->restarts < options_.max_global_restarts) {
    ++pending->restarts;
    stats_.Incr("global_restarts");
    // Randomized backoff: deterministic per seed, but desynchronizes
    // transactions that would otherwise deadlock in lockstep forever.
    const Duration backoff =
        options_.restart_backoff * pending->restarts +
        rng_.Uniform(0, options_.restart_backoff);
    simulator_.Schedule(backoff, [this, pending] {
      const TxnId id = ids_.Next();
      O2PC_TRACE(kTxnRestart, pending->spec.subtxns.front().site, id, id);
      LaunchGlobal(pending, id);
    });
    return;
  }

  ++globals_finished_;
  stats_.Incr(result.committed ? "globals_committed" : "globals_aborted");
  metrics::GlobalTxnRecord record;
  record.id = result.id;
  record.submit_time = pending->first_submit;
  record.decide_time = result.decide_time;
  record.finish_time = result.finish_time;
  record.committed = result.committed;
  record.num_sites = result.num_sites;
  record.compensations = pending->total_compensations;
  record.r1_rejections = pending->total_rejections;
  record.restarts = pending->restarts;
  stats_.AddGlobalTxn(record);
  if (pending->done) pending->done(result);
}

void DistributedSystem::SubmitLocal(SiteId site,
                                    std::vector<local::Operation> ops,
                                    std::function<void(bool)> done) {
  auto pending = std::make_shared<PendingLocal>();
  pending->site = site;
  pending->ops = std::move(ops);
  pending->done = std::move(done);
  stats_.Incr("locals_submitted");
  AttemptLocal(std::move(pending));
}

void DistributedSystem::AttemptLocal(std::shared_ptr<PendingLocal> pending) {
  SiteRuntime& runtime = *sites_.at(pending->site);
  if (network_.NodeDown(pending->site)) {
    // The site is down (or mid-recovery): recovery must finish its marking
    // catch-up before any new work is admitted — a local transaction
    // started now could read exposed updates whose compensation is still
    // being replayed.
    RescheduleLocal(std::move(pending), "local_crash_retries");
    return;
  }
  const TxnId id = ids_.Next();
  runtime.db.Begin(id, TxnKind::kLocal);
  auto entry_undone = std::make_shared<common::SmallSet<TxnId>>(
      runtime.participant.SnapshotUndone());
  RunLocalOp(std::move(pending), id, std::move(entry_undone),
             runtime.db.epoch(), 0);
}

void DistributedSystem::RescheduleLocal(std::shared_ptr<PendingLocal> pending,
                                        const char* counter) {
  ++pending->attempts;
  stats_.Incr(counter);
  if (pending->attempts > options_.max_local_retries) {
    stats_.Incr("locals_failed");
    if (pending->done) pending->done(false);
    return;
  }
  simulator_.Schedule(options_.local_retry_backoff * pending->attempts,
                      [this, pending] { AttemptLocal(std::move(pending)); });
}

void DistributedSystem::RunLocalOp(
    std::shared_ptr<PendingLocal> pending, TxnId id,
    std::shared_ptr<common::SmallSet<TxnId>> entry_undone, std::uint64_t epoch,
    std::size_t index) {
  SiteRuntime& runtime = *sites_.at(pending->site);
  if (runtime.db.epoch() != epoch) {
    // The site crashed while this transaction was in flight; recovery
    // already rolled it back. Retry as a fresh transaction.
    RescheduleLocal(std::move(pending), "local_crash_retries");
    return;
  }
  if (index >= pending->ops.size()) {
    runtime.db.CommitLocal(id);
    runtime.participant.WitnessLocal(*entry_undone);
    stats_.Incr("locals_committed");
    if (pending->done) pending->done(true);
    return;
  }
  runtime.db.Execute(
      id, pending->ops[index],
      [this, pending, id, entry_undone, epoch, index](Result<Value> result) {
        if (sites_.at(pending->site)->db.epoch() != epoch) {
          RescheduleLocal(pending, "local_crash_retries");
          return;
        }
        if (result.ok() || result.status().IsNotFound() ||
            result.status().IsConflict()) {
          // Semantic misses (another transaction erased/inserted the key)
          // do not abort background traffic.
          RunLocalOp(pending, id, entry_undone, epoch, index + 1);
          return;
        }
        // Deadlock victim: retry as a fresh transaction.
        sites_.at(pending->site)->db.AbortLocal(id);
        RescheduleLocal(pending, "local_deadlock_retries");
      });
}

void DistributedSystem::CrashSite(SiteId site, Duration outage,
                                  Duration recovery_window,
                                  Duration recrash_delay) {
  SiteRuntime& runtime = *sites_.at(site);
  const std::uint64_t seq = ++runtime.crash_seq;
  network_.SetNodeDown(site, true);
  const std::vector<TxnId> losers = runtime.db.Crash();
  std::vector<TxnId> loser_globals;
  for (TxnId local_id : losers) {
    if (runtime.db.KindOf(local_id) == TxnKind::kGlobal) {
      loser_globals.push_back(runtime.db.GlobalIdOf(local_id));
    }
  }
  O2PC_TRACE(kSiteCrash, site, kInvalidTxn,
             static_cast<std::int64_t>(loser_globals.size()));
  runtime.participant.OnCrash(loser_globals);
  stats_.Incr("site_crashes");
  if (outage > 0) {
    simulator_.Schedule(outage, [this, site, seq, recovery_window] {
      BeginSiteRecovery(site, seq, recovery_window);
    });
    if (recrash_delay >= 0) {
      // Crash-during-recovery: a second crash lands `recrash_delay` after
      // the recovery phase begins. The second incarnation keeps the same
      // outage and recovery window but never re-crashes again.
      simulator_.Schedule(outage + recrash_delay,
                          [this, site, seq, outage, recovery_window] {
        if (sites_.at(site)->crash_seq != seq) return;  // superseded
        CrashSite(site, outage, recovery_window, /*recrash_delay=*/-1);
      });
    }
  }
}

void DistributedSystem::BeginSiteRecovery(SiteId site, std::uint64_t seq,
                                          Duration recovery_window) {
  SiteRuntime& runtime = *sites_.at(site);
  if (runtime.crash_seq != seq) return;  // a newer crash superseded this one
  // Marking catch-up input: the witness-gossip snapshots of every peer
  // still reachable right now. A peer that ran (or even just learned of)
  // CT_i during the outage carries T_i's execution-site set, which is
  // exactly the verdict the recovering site must replay before admitting
  // new work.
  std::vector<MarkingGossip> snapshots;
  for (std::size_t peer = 0; peer < sites_.size(); ++peer) {
    const SiteId peer_site = static_cast<SiteId>(peer);
    if (peer_site == site || network_.NodeDown(peer_site)) continue;
    snapshots.push_back(sites_[peer]->participant.ExportKnowledge());
  }
  O2PC_TRACE(kRecoveryBegin, site, kInvalidTxn,
             runtime.participant.InDoubtCount());
  stats_.Incr("site_recoveries_started");
  auto join = std::make_shared<RecoveryJoin>();
  join->stats = runtime.participant.BeginRecovery(
      snapshots, [this, site, seq, join] {
        join->catchup_done = true;
        TryFinishRecovery(site, seq, join);
      });
  if (recovery_window > 0) {
    simulator_.Schedule(recovery_window, [this, site, seq, join] {
      join->window_done = true;
      TryFinishRecovery(site, seq, join);
    });
  } else {
    join->window_done = true;
  }
  TryFinishRecovery(site, seq, join);
}

void DistributedSystem::TryFinishRecovery(SiteId site, std::uint64_t seq,
                                          std::shared_ptr<RecoveryJoin> join) {
  SiteRuntime& runtime = *sites_.at(site);
  if (runtime.crash_seq != seq) return;  // superseded mid-recovery
  if (!join->window_done || !join->catchup_done || join->finished) return;
  join->finished = true;
  const int unresolved = runtime.participant.FinishRecovery();
  O2PC_TRACE(kRecoveryEnd, site, kInvalidTxn, join->stats.in_doubt,
             unresolved);
  O2PC_TRACE(kSiteRecover, site, kInvalidTxn);
  network_.SetNodeDown(site, false);
  stats_.Incr("site_recoveries_completed");
}

void DistributedSystem::InjectCoordinatorCrash(TxnId txn, Duration outage) {
  auto it = coordinators_.find(txn);
  if (it == coordinators_.end()) {
    O2PC_LOG(kWarn) << "no coordinator for T" << txn
                    << "; injected crash ignored";
    return;
  }
  it->second->RequestCrash(outage);
}

sg::CorrectnessReport DistributedSystem::Analyze() const {
  std::vector<const sg::ConflictTracker*> trackers;
  trackers.reserve(sites_.size());
  for (const auto& site : sites_) trackers.push_back(&site->db.tracker());
  return sg::AnalyzeHistory(trackers, unexposed_aborted_);
}

Value DistributedSystem::TotalValue() const {
  Value total = 0;
  for (const auto& site : sites_) total += site->db.table().SumValues();
  return total;
}

}  // namespace o2pc::core
