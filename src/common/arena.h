#ifndef O2PC_COMMON_ARENA_H_
#define O2PC_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>

/// \file
/// Monotonic run arena: the allocator behind world reuse (DESIGN §16).
///
/// A campaign run performs ~150k heap allocations (~19 MB): trace events,
/// WAL records, rb-tree nodes in the post-run oracles, payload control
/// blocks, journal strings. Measured on the standard workload, the
/// malloc/free round trips — not world *construction*, which costs ~6 µs —
/// dominate the per-run engine tax, and under `--jobs N` they all contend
/// on the process allocator.
///
/// The arena turns that churn into pointer bumps. Each run-executor worker
/// leases one `MonotonicArena` for its lifetime (`exec::WorldPool`); while
/// a run is **armed** (`ScopedRunArena`), every `operator new` in the
/// process is served by bumping the worker's arena, and every matching
/// `operator delete` of arena-owned memory is a no-op. Between runs the
/// worker *rewinds* its arena — the whole previous world vanishes in O(1)
/// and the next run recycles the same cache-warm pages.
///
/// Ownership discipline (the reset contract):
///  * Everything allocated while armed dies, at the latest, when the owning
///    worker next rewinds. Run results may be *read* until then; anything
///    that must outlive the worker's next run (every campaign result, which
///    waits for the in-order fold) is deep-copied while disarmed.
///  * State that genuinely persists across runs on a worker thread — the
///    payload pool's freelists, the arena lease itself — must bypass the
///    arena (raw malloc), or it would dangle after a rewind.
///  * Function-local statics must not be first-constructed while armed.
///    `WarmProcessStatics()` pre-touches the known lazily-initialized
///    process state before the first arming.
///
/// All arenas carve their reservation out of one contiguous virtual-memory
/// super-region, so the `operator delete` ownership test is two compares —
/// from any thread, at any time (including after rewind: ownership is by
/// reservation, not by live offset). Under AddressSanitizer the global
/// override is compiled out entirely (keeping redzones and quarantine);
/// `O2PC_RUN_ARENA=off` disables arming at runtime. With the arena
/// disabled, `ScopedRunArena` is inert and runs allocate from the real
/// heap — byte-identical behavior, just slower.

#if defined(__SANITIZE_ADDRESS__)
#define O2PC_ARENA_GLOBAL_NEW 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define O2PC_ARENA_GLOBAL_NEW 0
#endif
#endif
#ifndef O2PC_ARENA_GLOBAL_NEW
#define O2PC_ARENA_GLOBAL_NEW 1
#endif

namespace o2pc::common {

/// Bump allocator over a contiguous reservation. Not thread-safe: each
/// arena is owned by exactly one thread at a time (the pool hands leases
/// across threads with proper synchronization).
class MonotonicArena {
 public:
  /// Bytes this arena can serve before falling back to the heap.
  std::size_t capacity() const { return capacity_; }
  /// Bytes bumped since the last Rewind().
  std::size_t bytes_used() const { return offset_; }
  /// Max bytes_used() ever observed at Rewind() — the steady-state
  /// footprint of one run.
  std::size_t high_water() const { return high_water_; }

  /// Bump-allocates `bytes` aligned to `align`; nullptr when full (the
  /// caller falls back to the heap — correctness never depends on fit).
  void* TryAllocate(std::size_t bytes, std::size_t align);

  /// O(1) reset: the next run reuses the same pages. With
  /// O2PC_ARENA_POISON=1 the used range is scribbled (0xCD) first, so any
  /// cross-run dangling pointer turns into loud nondeterminism instead of
  /// silent luck.
  void Rewind();

  /// True if `p` points into this arena's reservation (live or rewound).
  bool Owns(const void* p) const {
    const char* c = static_cast<const char*>(p);
    return c >= base_ && c < base_ + capacity_;
  }

  /// Pool-internal: points this arena at its slice of the super-region.
  void AdoptReservation(char* base, std::size_t capacity) {
    base_ = base;
    capacity_ = capacity;
  }

 private:
  char* base_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t offset_ = 0;
  std::size_t high_water_ = 0;
};

/// True when the global-new arena path is compiled in, the super-region
/// reservation succeeded, and O2PC_RUN_ARENA is not "off"/"0". First call
/// also pre-touches process statics (WarmProcessStatics).
bool RunArenaEnabled();

/// Pre-constructs the known lazily-initialized process-wide state (logger,
/// locale plumbing) so nothing static is first-allocated inside an armed
/// run. Idempotent; RunArenaEnabled() calls it.
void WarmProcessStatics();

/// The calling thread's pooled arena lease (acquired on first use, rewound
/// on re-acquisition, returned to the pool at thread exit). Nullptr when
/// the arena machinery is disabled or the pool is exhausted.
MonotonicArena* ThreadRunArena();

/// Arms `arena` as the calling thread's run arena for the scope's
/// lifetime: every global allocation on this thread bumps it. Passing
/// nullptr (or a disabled build) makes the scope inert.
class ScopedRunArena {
 public:
  explicit ScopedRunArena(MonotonicArena* arena);
  ~ScopedRunArena();
  ScopedRunArena(const ScopedRunArena&) = delete;
  ScopedRunArena& operator=(const ScopedRunArena&) = delete;

  bool armed() const { return arena_ != nullptr; }

 private:
  MonotonicArena* arena_ = nullptr;
  MonotonicArena* previous_ = nullptr;
};

/// This thread's count of operator-new calls served by the *system heap*
/// (malloc) — armed misses plus every unarmed allocation. The steady-state
/// allocation gate pins the delta of this counter across a recycled run
/// at zero. Only meaningful in builds with the global override
/// (HeapAllocCountingEnabled()).
std::uint64_t ThreadHeapAllocs();

/// This thread's count of allocations served by an armed arena.
std::uint64_t ThreadArenaAllocs();

/// True when operator new/delete are the counting/arena-aware overrides
/// (false under AddressSanitizer builds).
bool HeapAllocCountingEnabled();

/// Arena-bypassing system-heap allocation, counted in ThreadHeapAllocs().
/// For caches that must survive across run rewinds on a worker thread
/// (e.g. the payload pool's freelists): memory from here is never
/// reclaimed by a rewind, and a steady-state refill still shows up in the
/// allocation gate.
void* BypassMalloc(std::size_t bytes);
void BypassFree(void* p) noexcept;

}  // namespace o2pc::common

#endif  // O2PC_COMMON_ARENA_H_
