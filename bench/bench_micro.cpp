// E7 — microbenchmarks of the building blocks (google-benchmark):
// event kernel, lock manager, conflict tracking + regular-cycle detection,
// marking-set checks.

#include <benchmark/benchmark.h>

#include <functional>
#include <map>
#include <memory>
#include <set>

#include "common/flat_hash.h"
#include "common/rng.h"
#include "core/marking.h"
#include "lock/lock_manager.h"
#include "net/message.h"
#include "core/messages.h"
#include "net/payload_pool.h"
#include "sg/conflict_tracker.h"
#include "sg/regular_cycle.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace o2pc {
namespace {

void BM_SimulatorScheduleRun(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < n; ++i) {
      sim.Schedule(i % 97, [] {});
    }
    benchmark::DoNotOptimize(sim.Run());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1024)->Arg(16384);

// The event-churn pattern of a protocol run (push/pop with a ~40-byte
// capture), comparing the small-buffer sim::Callback the queue actually
// stores against a std::function baseline carrying the same state.
void BM_EventQueueCallbackChurn(benchmark::State& state) {
  struct FakeDelivery {  // mirrors network delivery: this + Message
    void* self;
    net::Message message;
  };
  sim::EventQueue queue;
  for (auto _ : state) {
    FakeDelivery capture{&queue, {}};
    for (int i = 0; i < 64; ++i) {
      queue.Push(i, [capture] { benchmark::DoNotOptimize(capture.self); });
    }
    while (!queue.empty()) {
      sim::Event event = queue.Pop();
      event.fn();
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueCallbackChurn);

void BM_StdFunctionChurnBaseline(benchmark::State& state) {
  struct FakeDelivery {
    void* self;
    net::Message message;
  };
  std::vector<std::function<void()>> events;
  events.reserve(64);
  for (auto _ : state) {
    FakeDelivery capture{&events, {}};
    for (int i = 0; i < 64; ++i) {
      events.emplace_back(
          [capture] { benchmark::DoNotOptimize(capture.self); });
    }
    for (auto& fn : events) fn();
    events.clear();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_StdFunctionChurnBaseline);

// Calendar-vs-heap A/B at the protocol's timer shape (same mix the
// cross-implementation property test in tests/sim_test.cc drives): mostly
// op costs and network hops within 200µs, a band of retransmit spikes at
// 1–20ms, and a long tail of recovery windows at 50–500ms. The classic
// hold model — pop one, push one at now+delay — measures the steady-state
// transit cost at a fixed queue population.
SimTime ProtocolDelay(Rng& rng) {
  const std::uint64_t draw = rng.Uniform(0, 9);
  if (draw < 6) return static_cast<SimTime>(rng.Uniform(0, 200));
  if (draw < 8) return static_cast<SimTime>(rng.Uniform(1000, 20000));
  return static_cast<SimTime>(rng.Uniform(50000, 500000));
}

void EventQueueHoldKernel(benchmark::State& state, bool calendar) {
  const int hold = static_cast<int>(state.range(0));
  sim::EventQueue queue;
  queue.ForceImplementation(calendar);
  Rng rng(17);
  SimTime now = 0;
  for (int i = 0; i < hold; ++i) {
    queue.Push(ProtocolDelay(rng), [] {});
  }
  for (auto _ : state) {
    sim::Event event = queue.Pop();
    now = event.time;
    benchmark::DoNotOptimize(queue.Push(now + ProtocolDelay(rng), [] {}));
  }
  state.SetItemsProcessed(state.iterations());
}
void BM_EventQueueHoldCalendar(benchmark::State& state) {
  EventQueueHoldKernel(state, true);
}
BENCHMARK(BM_EventQueueHoldCalendar)->Arg(64)->Arg(1024)->Arg(16384);
void BM_EventQueueHoldHeapBaseline(benchmark::State& state) {
  EventQueueHoldKernel(state, false);
}
BENCHMARK(BM_EventQueueHoldHeapBaseline)->Arg(64)->Arg(1024)->Arg(16384);

// The retransmit lifecycle: arm a 1–20ms retransmit timer plus the op that
// will moot it, pop the op, cancel the timer (the ack nearly always beats
// the spike). Cancelled keys linger in the ordering structure until they
// surface, so this kernel prices both the O(1) cancel and the lazy reap.
void EventQueueCancelKernel(benchmark::State& state, bool calendar) {
  sim::EventQueue queue;
  queue.ForceImplementation(calendar);
  Rng rng(23);
  SimTime now = 0;
  for (auto _ : state) {
    const sim::EventId retransmit = queue.Push(
        now + 1000 + static_cast<SimTime>(rng.Uniform(0, 19000)), [] {});
    queue.Push(now + static_cast<SimTime>(rng.Uniform(0, 200)), [] {});
    sim::Event event = queue.Pop();
    now = event.time;
    benchmark::DoNotOptimize(queue.Cancel(retransmit));
  }
  state.SetItemsProcessed(state.iterations());
}
void BM_EventQueueRetransmitCancelCalendar(benchmark::State& state) {
  EventQueueCancelKernel(state, true);
}
BENCHMARK(BM_EventQueueRetransmitCancelCalendar);
void BM_EventQueueRetransmitCancelHeapBaseline(benchmark::State& state) {
  EventQueueCancelKernel(state, false);
}
BENCHMARK(BM_EventQueueRetransmitCancelHeapBaseline);

// Payload allocation: the thread-local freelist pool vs plain make_shared.
void BM_PayloadPoolAllocate(benchmark::State& state) {
  for (auto _ : state) {
    auto payload = net::MakePayload<core::VotePayload>();
    benchmark::DoNotOptimize(payload.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PayloadPoolAllocate);

void BM_PayloadMakeSharedBaseline(benchmark::State& state) {
  for (auto _ : state) {
    auto payload = std::make_shared<core::VotePayload>();
    benchmark::DoNotOptimize(payload.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PayloadMakeSharedBaseline);

void BM_LockAcquireRelease(benchmark::State& state) {
  sim::Simulator sim;
  lock::LockManager locks(&sim, {});
  TxnId txn = 1;
  for (auto _ : state) {
    locks.Acquire(txn, 7, lock::LockMode::kExclusive, [](const Status&) {});
    sim.Run();
    locks.ReleaseAll(txn);
    ++txn;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockAcquireRelease);

void BM_LockContendedQueue(benchmark::State& state) {
  const int waiters = static_cast<int>(state.range(0));
  TxnId next = 1;
  for (auto _ : state) {
    sim::Simulator sim;
    lock::LockManager locks(&sim, {});
    const TxnId holder = next++;
    locks.Acquire(holder, 7, lock::LockMode::kExclusive, [](const Status&) {});
    sim.Run();
    for (int i = 0; i < waiters; ++i) {
      locks.Acquire(next++, 7, lock::LockMode::kExclusive,
                    [](const Status&) {});
    }
    sim.Run();
    locks.ReleaseAll(holder);  // grants cascade
    sim.Run();
    benchmark::DoNotOptimize(locks.stats().acquires);
  }
  state.SetItemsProcessed(state.iterations() * waiters);
}
BENCHMARK(BM_LockContendedQueue)->Arg(16)->Arg(128);

void BM_ConflictTrackerBuildGraph(benchmark::State& state) {
  const int accesses = static_cast<int>(state.range(0));
  Rng rng(5);
  sg::ConflictTracker tracker(0);
  for (int i = 0; i < accesses; ++i) {
    tracker.RecordAccess(
        sg::GlobalNode(static_cast<TxnId>(rng.Uniform(1, 200))),
        static_cast<DataKey>(rng.Uniform(0, 63)), rng.Bernoulli(0.5));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.BuildGraph().edge_count());
  }
  state.SetItemsProcessed(state.iterations() * accesses);
}
BENCHMARK(BM_ConflictTrackerBuildGraph)->Arg(1000)->Arg(10000);

sg::SerializationGraph RandomGlobalSg(int txns, int sites,
                                      std::uint64_t seed) {
  Rng rng(seed);
  sg::SerializationGraph graph;
  for (int i = 0; i < txns * 3; ++i) {
    const TxnId a = static_cast<TxnId>(rng.Uniform(1, txns));
    const TxnId b = static_cast<TxnId>(rng.Uniform(1, txns));
    const SiteId site = static_cast<SiteId>(rng.Uniform(0, sites - 1));
    const bool a_ct = rng.Bernoulli(0.2);
    const bool b_ct = rng.Bernoulli(0.2);
    graph.AddEdge(a_ct ? sg::CompNode(a) : sg::GlobalNode(a),
                  b_ct ? sg::CompNode(b) : sg::GlobalNode(b), site);
  }
  return graph;
}

void BM_RegularCycleDetection(benchmark::State& state) {
  const int txns = static_cast<int>(state.range(0));
  sg::SerializationGraph graph = RandomGlobalSg(txns, 4, 9);
  for (auto _ : state) {
    sg::RegularCycleDetector detector(graph);
    benchmark::DoNotOptimize(detector.HasRegularCycle());
  }
  state.SetItemsProcessed(state.iterations() * txns);
}
BENCHMARK(BM_RegularCycleDetection)->Arg(100)->Arg(500);

void BM_CompatibleCheckP1(benchmark::State& state) {
  core::TransMarks tm;
  core::SiteMarks site;
  for (TxnId ti = 1; ti <= 32; ++ti) {
    site.undone.insert(ti);
    tm.visited_sites = {0, 1, 2};
    tm.undone_seen[ti] = {0, 1, 2};
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::Compatible(core::GovernancePolicy::kP1, tm, site));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompatibleCheckP1);

// Lock-table churn: the queues_/held_ access pattern of a protocol run —
// lookup-or-insert on acquire, lookup on release, erase when the last lock
// goes. FlatMap (what LockManager uses) vs the std::map it replaced.
template <typename Map>
void MapChurnKernel(benchmark::State& state) {
  const int keys = static_cast<int>(state.range(0));
  Rng rng(11);
  std::vector<DataKey> sequence;
  sequence.reserve(4096);
  for (int i = 0; i < 4096; ++i) {
    sequence.push_back(static_cast<DataKey>(rng.Uniform(0, keys - 1)));
  }
  for (auto _ : state) {
    Map map;
    std::uint64_t sum = 0;
    for (DataKey key : sequence) {
      ++map[key];
      auto it = map.find(key);
      sum += it->second;
      if ((it->second & 7) == 0) map.erase(key);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
void BM_FlatMapChurn(benchmark::State& state) {
  MapChurnKernel<common::FlatMap<DataKey, std::uint64_t>>(state);
}
BENCHMARK(BM_FlatMapChurn)->Arg(64)->Arg(1024);
void BM_StdMapChurnBaseline(benchmark::State& state) {
  MapChurnKernel<std::map<DataKey, std::uint64_t>>(state);
}
BENCHMARK(BM_StdMapChurnBaseline)->Arg(64)->Arg(1024);

// The R1 admission pattern: a small undone-mark set probed by contains()
// on every access. SmallSet (what SiteMarks uses) vs the std::set it
// replaced.
template <typename Set>
void SetProbeKernel(benchmark::State& state) {
  const int marks = static_cast<int>(state.range(0));
  Set undone;
  for (TxnId ti = 1; ti <= static_cast<TxnId>(marks); ++ti) {
    undone.insert(ti * 7);
  }
  for (auto _ : state) {
    int hits = 0;
    for (TxnId probe = 1; probe <= 256; ++probe) {
      hits += undone.contains(probe) ? 1 : 0;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
void BM_SmallSetMarkProbe(benchmark::State& state) {
  SetProbeKernel<common::SmallSet<TxnId>>(state);
}
BENCHMARK(BM_SmallSetMarkProbe)->Arg(8)->Arg(64);
void BM_StdSetMarkProbeBaseline(benchmark::State& state) {
  SetProbeKernel<std::set<TxnId>>(state);
}
BENCHMARK(BM_StdSetMarkProbeBaseline)->Arg(8)->Arg(64);

// First contact: a receiver reads a whole 800-fact log.
void BM_WitnessGossipMerge(benchmark::State& state) {
  core::WitnessKnowledge source;
  for (TxnId ti = 1; ti <= 200; ++ti) {
    for (SiteId s = 0; s < 4; ++s) {
      source.Add(core::WitnessFact{ti, s});
    }
  }
  const core::MarkingGossip gossip = source.Export();
  for (auto _ : state) {
    core::WitnessKnowledge sink;
    sink.Merge(gossip);
    benchmark::DoNotOptimize(sink.size());
  }
  state.SetItemsProcessed(state.iterations() * 800);
}
BENCHMARK(BM_WitnessGossipMerge);

// The dominant call of a campaign run: gossip whose log prefix the
// receiver has already read. The per-source watermark makes it O(1)
// whatever the log length.
void BM_WitnessGossipMergeStale(benchmark::State& state) {
  core::WitnessKnowledge source;
  core::WitnessKnowledge sink;
  for (TxnId ti = 1; ti <= 200; ++ti) {
    for (SiteId s = 0; s < 4; ++s) {
      source.Add(core::WitnessFact{ti, s});
    }
  }
  const core::MarkingGossip gossip = source.Export();
  sink.Merge(gossip);
  for (auto _ : state) {
    sink.Merge(gossip);
    benchmark::DoNotOptimize(sink.size());
  }
  state.SetItemsProcessed(state.iterations() * 800);
}
BENCHMARK(BM_WitnessGossipMergeStale);

}  // namespace
}  // namespace o2pc

BENCHMARK_MAIN();
