#include "trace/trace.h"

#include "common/logging.h"

namespace o2pc::trace {

namespace {
/// The active recorder of the *current thread*. Each simulation run is
/// confined to one thread, but the run executor (src/exec/) drives many
/// isolated runs on different threads concurrently — so the slot is
/// thread-local, never shared.
thread_local TraceRecorder* g_active = nullptr;
}  // namespace

void TraceRecorder::Record(EventType type, SiteId site, TxnId txn,
                           std::int64_t a, std::int64_t b) {
  TraceEvent event;
  event.time = simulator_ != nullptr ? simulator_->Now() : 0;
  event.type = type;
  event.site = site;
  event.txn = txn;
  event.a = a;
  event.b = b;
  events_.push_back(event);
  // Debug mirror: at kTrace verbosity every recorded event also hits the
  // log, giving a live interleaved view without a separate export step.
  O2PC_LOG(kTrace) << "trace " << EventTypeName(type) << " t=" << event.time
                   << " site="
                   << (site == kInvalidSite ? std::int64_t{-1}
                                            : static_cast<std::int64_t>(site))
                   << " txn=" << txn << " a=" << a << " b=" << b;
}

std::vector<TraceEvent> TraceRecorder::EventsOfType(EventType type) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent& event : events_) {
    if (event.type == type) out.push_back(event);
  }
  return out;
}

TraceRecorder* ActiveRecorder() { return g_active; }

ScopedTrace::ScopedTrace(TraceRecorder* recorder,
                         const sim::Simulator* simulator)
    : previous_(g_active) {
  O2PC_CHECK(recorder != nullptr);
  recorder->BindSimulator(simulator);
  g_active = recorder;
}

ScopedTrace::~ScopedTrace() { g_active = previous_; }

}  // namespace o2pc::trace
