/**
 * @file
 * The discrete-event simulation kernel.
 *
 * A single EventQueue orders closures by (tick, sequence). All simulated
 * components in one Machine (and across Machines in one experiment)
 * share one queue so that cross-machine interactions (network packets)
 * are globally ordered.
 *
 * Implementation: a hierarchical timing wheel (Varghese & Lauck)
 * with a small overflow heap.
 *
 * Wheel — kLevels levels of buckets, every bucket an intrusive FIFO
 * list of slots plus one bit in an occupancy bitmap. Level 0 has
 * 4096 one-tick buckets (the low 12 bits of the tick); each level
 * above indexes the next 8 bits with 256 buckets, so a level-l
 * bucket (l >= 1) spans 2^(12 + 8(l-1)) ticks and the five levels
 * span 2^44 ticks (4.9 h at 1 ns). The wheel is positioned at a base
 * tick (<= every entry it holds). An entry for tick T sits at the
 * level of the highest digit in which T and the base differ, in the
 * bucket named by T's digit at that level. Scheduling is one XOR,
 * one count-leading-zeros and a list append — no comparisons
 * against other entries. When the base enters a level-l bucket's
 * block (l >= 1), the bucket cascades: its entries are re-appended,
 * in list order, one or more levels down. Finding the next event is
 * a find-first-set through a two-level bitmap per level (one summary
 * bit per bitmap word), cascading the first occupied higher-level
 * bucket until a level-0 bucket is hit.
 *
 * FIFO invariant: a level-l bucket's entries for block B were all
 * posted while the base was outside B, and every entry posted
 * directly below level l for B was posted after the base entered B —
 * i.e. after the bucket cascaded. A cascade always lands in buckets
 * that are empty for that block, so re-appending in list order keeps
 * each level-0 bucket in scheduling order: append order IS
 * (tick, seq) order, exactly, with no sequence numbers in the wheel.
 *
 * Why this geometry: BMcast's mediators poll rather than trap, so
 * poll re-arms dominate. A distance histogram of every post over the
 * four perfbench workloads (seed 1) puts 51-75% of them in the
 * 65-131 us bin (the VMM's 100 us poll), only 0.5-3.5% within 4096
 * ticks (the reach of a flat wheel of 4096 one-tick buckets) and
 * 0.07-0.9% at 4.3 s or more (mostly 8.6-17 s timers, which a
 * 2^32-tick wheel would overflow). Here the
 * 100 us poll enters at level 1 and reaches its tick after one O(1)
 * cascade; short delays (completion chains, bursts) mostly land in
 * level 0 directly.
 *
 * Overflow — an indexed 4-ary min-heap over (tick, seq) holds the
 * rest: events whose tick lies outside the wheel's 2^44-tick block
 * (counted in KernelCounters::overflowPosted), and events posted
 * behind the base, which can only happen after run(limit) stopped
 * short with the base already moved past the last executed event. A
 * heap entry for tick T is always FIFO-older than any wheel entry
 * for T (posting it to the heap required the base to lie in an
 * earlier 2^44 block, or past T, and the base never moves backwards),
 * so cross-band ordering is "heap first", with no seq exchanged
 * between bands.
 *
 * Event records (the closures) live in a chunked slot pool recycled
 * through a free list; the chunks never move, so callbacks execute
 * in place (no per-dispatch closure copies) even when they schedule
 * further events. cancel() is O(1) in either band: a wheel entry is
 * unlinked from its doubly-linked bucket list (the wheel is always
 * filed against the current base, so the bucket follows from the
 * tick) and its slot freed at once; a heap entry stays behind as a
 * tombstone, reclaimed (and counted) when its tick is drained or —
 * once tombstones outnumber live entries — in one O(n) compaction.
 * Closures are stored in sim::InlineCallback, so the common small
 * captures never touch the heap.
 *
 * API contract (relied upon across src/ and asserted by the property
 * test against a reference model):
 *  - events scheduled for the same tick run in scheduling order
 *    (stable FIFO; seq is the tiebreaker);
 *  - an EventId stays valid() after its event runs — valid() means
 *    "this handle ever referred to a scheduled event", not "is still
 *    pending";
 *  - cancel() returns true exactly once, and only if the event had
 *    not yet run: double-cancel and cancel-after-run return false by
 *    construction even after the internal slot has been reused,
 *    because handles carry a generation stamp that is bumped on every
 *    slot recycle.
 */

#ifndef SIMCORE_EVENT_QUEUE_HH
#define SIMCORE_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "simcore/inline_callback.hh"
#include "simcore/stats.hh"
#include "simcore/types.hh"

namespace sim {

/**
 * Handle for a scheduled event, usable to cancel it. Default-constructed
 * handles are inert. Handles are generation-stamped: they remain safe
 * to cancel() (returning false) after the event ran, was cancelled, or
 * its storage was recycled for another event.
 */
class EventId
{
  public:
    EventId() = default;

    /** True if this handle ever referred to a scheduled event. The
     *  flag persists after the event runs; use cancel()'s return
     *  value to learn whether the event was still pending. */
    bool valid() const { return gen != 0; }

  private:
    friend class EventQueue;

    EventId(std::uint32_t s, std::uint32_t g) : slot(s), gen(g) {}

    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
};

/**
 * A priority queue of timestamped callbacks; the heart of the simulator.
 *
 * Events scheduled for the same tick run in scheduling order (stable).
 * Callbacks may schedule or cancel further events freely.
 */
class EventQueue
{
  public:
    using Callback = InlineCallback;

    /** Enables the zero-copy overloads for raw void() closures. */
    template <typename F>
    using EnableForClosure = std::enable_if_t<
        !std::is_same_v<std::decay_t<F>, Callback> &&
        std::is_invocable_r_v<void, std::decay_t<F> &>>;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    ~EventQueue();

    /** Current simulated time. */
    Tick now() const { return curTick; }

    /**
     * Schedule a callback @p delay ticks in the future.
     * @return a handle usable with cancel().
     */
    EventId schedule(Tick delay, Callback cb);

    /** Schedule a callback at an absolute tick (>= now). */
    EventId scheduleAt(Tick when, Callback cb);

    /**
     * Schedule a drift-free periodic callback: first firing at
     * now + @p interval, then every @p interval ticks after the
     * previous firing's timestamp. The closure is stored once and
     * reused, so a periodic event allocates nothing per firing.
     * The handle stays cancellable across firings; cancel() (also
     * from within the callback itself) stops the cycle.
     */
    EventId schedulePeriodic(Tick interval, Callback cb);

    /**
     * Zero-copy overloads: a raw closure is constructed directly in
     * the event's pooled slot — no intermediate Callback object, no
     * moves. Overload resolution prefers these for lambdas; the
     * Callback overloads above still serve pre-built callbacks.
     */
    template <typename F, typename = EnableForClosure<F>>
    EventId
    schedule(Tick delay, F &&f)
    {
        return scheduleAt(curTick + delay, std::forward<F>(f));
    }

    template <typename F, typename = EnableForClosure<F>>
    EventId
    scheduleAt(Tick when, F &&f)
    {
        std::uint32_t idx = beginPost(when, 0);
        slotRef(idx).cb.emplace(std::forward<F>(f));
        return finishPost(when, idx);
    }

    template <typename F, typename = EnableForClosure<F>>
    EventId
    schedulePeriodic(Tick interval, F &&f)
    {
        std::uint32_t idx = beginPeriodicPost(interval);
        slotRef(idx).cb.emplace(std::forward<F>(f));
        return finishPost(curTick + interval, idx);
    }

    /**
     * Cancel a previously scheduled event.
     * @retval true the event was pending and has been removed.
     * @retval false the event already ran, was cancelled, or is inert.
     */
    bool cancel(const EventId &id);

    /** True if no events are pending. */
    bool empty() const { return livePending == 0; }

    /** Number of pending events (tombstones excluded). */
    std::size_t pending() const { return livePending; }

    /**
     * Run events until the queue is empty or @p limit is reached.
     * Time stops at the last executed event (or at @p limit if given
     * and reached).
     * @return number of events executed.
     */
    std::uint64_t run(Tick limit = ~Tick(0));

    /**
     * Run all events with tick <= @p when, then set time to @p when.
     * @return number of events executed.
     */
    std::uint64_t runUntil(Tick when);

    /** Execute exactly one event if any is pending. */
    bool step();

    /** Total events executed over the queue's lifetime. */
    std::uint64_t executed() const { return counters_.executed; }

    /** Kernel performance counters (see sim::KernelCounters). */
    const KernelCounters &counters() const { return counters_; }

  private:
    /**
     * Overflow-heap element: 16-byte POD ordered by (when, seq); the
     * closure lives in the slot pool. seq is 32-bit to keep the entry
     * at two words (a 4-child sibling group spans one cache line);
     * the queue renumbers live seqs in one O(n log n) sweep before
     * the counter can wrap, so FIFO order is exact at any event
     * count. No generation stamp is needed here: a slot is freed
     * only when its (single) entry is reclaimed, so an entry's slot
     * can never have been recycled while the entry is still queued.
     */
    struct HeapEntry
    {
        Tick when;
        std::uint32_t seq;
        std::uint32_t slot;
    };

    enum class SlotState : std::uint8_t { Free, Pending, Cancelled };

    /** Pooled event record; recycled through a free list. */
    struct Slot
    {
        Callback cb;
        Tick when = 0;   //!< tick the pending entry is queued for
        Tick period = 0; //!< 0 = one-shot
        std::uint32_t gen = 1;
        /** Free-list link while Free; bucket-list link while queued
         *  in the wheel (a slot is never on both lists). */
        std::uint32_t next = kNoSlot;
        /** Bucket-list back link, for O(1) unlink on cancel(). */
        std::uint32_t prev = kNoSlot;
        SlotState state = SlotState::Free;
        /** A periodic callback is running right now: cancel() must
         *  not destroy the closure under its own feet (dispatch
         *  finishes the teardown). */
        bool executing = false;
        /** Queued in the wheel (vs the overflow heap); steers
         *  cancel() between unlink and tombstone. */
        bool inWheel = false;
    };

    /** Intrusive doubly-linked FIFO list of slots. */
    struct Bucket
    {
        std::uint32_t head = kNoSlot;
        std::uint32_t tail = kNoSlot;
    };

    static constexpr std::uint32_t kNoSlot = ~std::uint32_t(0);

    /** Wheel geometry: level 0 indexes the low kNearBits bits of the
     *  tick (one-tick buckets), each level above the next kLevelBits
     *  bits, so the wheel spans 2^kSpanBits ticks. */
    static constexpr unsigned kNearBits = 12;
    static constexpr unsigned kLevelBits = 8;
    static constexpr unsigned kLevels = 5;
    static constexpr unsigned kSpanBits =
        kNearBits + kLevelBits * (kLevels - 1);
    static constexpr std::size_t kNoBucket = ~std::size_t(0);

    /** Lowest tick bit of level @p level's digit (level kLevels: the
     *  span). */
    static constexpr unsigned
    shiftOf(unsigned level)
    {
        return level == 0 ? 0 : kNearBits + kLevelBits * (level - 1);
    }

    /** Digit width (bits) of level @p level. */
    static constexpr unsigned
    widthOf(unsigned level)
    {
        return level == 0 ? kNearBits : kLevelBits;
    }

    /** Index of level @p level's first bucket in the flat tables
     *  (level kLevels: the total). */
    static constexpr std::size_t
    firstBucket(unsigned level)
    {
        return level == 0 ? 0
                          : (std::size_t(1) << kNearBits) +
                                (std::size_t(level - 1) << kLevelBits);
    }

    /** Slots live in fixed chunks so growing the pool never moves a
     *  live Slot — the address a callback executes at stays stable
     *  even if the callback schedules new events. */
    static constexpr std::uint32_t kChunkShift = 8;
    static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
    static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

    /** Min-heap order on (when, seq): seq breaks ties so same-tick
     *  events keep scheduling (FIFO) order. Bitwise (non-short-
     *  circuit) form on purpose: heap keys are effectively random,
     *  so a branchy compare mispredicts on nearly every sift step —
     *  this form compiles to flag ops the sift loops can consume
     *  with conditional moves. */
    static bool
    before(const HeapEntry &a, const HeapEntry &b)
    {
        return (a.when < b.when) |
               ((a.when == b.when) & (a.seq < b.seq));
    }

    /** Level of the highest digit set in @p diff (a tick XOR the
     *  base); the `| 1` maps "same tick" to level 0. */
    static unsigned
    levelOfDiff(Tick diff)
    {
        const auto h =
            static_cast<unsigned>(63 - __builtin_clzll(diff | 1));
        return h < kNearBits ? 0 : (h - kNearBits) / kLevelBits + 1;
    }

    /** Wheel level of tick @p when (>= base, in the base's block):
     *  its highest digit that differs from the base's. */
    unsigned
    levelOf(Tick when) const
    {
        return levelOfDiff(when ^ wheelBase);
    }

    /** Digit of @p t that indexes level @p level. */
    static std::size_t
    digit(Tick t, unsigned level)
    {
        return static_cast<std::size_t>(t >> shiftOf(level)) &
               ((std::size_t(1) << widthOf(level)) - 1);
    }

    Slot &
    slotRef(std::uint32_t idx)
    {
        return chunks[idx >> kChunkShift][idx & kChunkMask];
    }

    /** Queue a pending slot for @p when: the wheel if @p when lies in
     *  the base's 2^kSpanBits block at or after the base, else the
     *  overflow heap. */
    void postEntry(Tick when, std::uint32_t slot);
    /** Append to the tail of bucket (@p level, @p d). */
    void bucketAppend(unsigned level, std::size_t d,
                      std::uint32_t slot);
    /** Unlink and return the head of level-0 bucket @p d (kNoSlot if
     *  empty), maintaining tail pointer and occupancy bit. */
    std::uint32_t popLevel0(std::size_t d);
    /** Unlink a pending slot from whichever bucket holds it. */
    void wheelUnlink(const Slot &s);
    /** Set / clear bucket (@p level, @p d)'s occupancy bits. */
    void markOccupied(unsigned level, std::size_t d);
    void markEmpty(unsigned level, std::size_t d);
    /** First occupied bucket of @p level at digit >= @p from, or
     *  kNoBucket if none. */
    std::size_t firstOccupied(unsigned level, std::size_t from) const;
    /** Move the base forward to @p nb (<= every wheel entry),
     *  cascading the one bucket whose block the base enters. */
    void advanceBase(Tick nb);
    /** Re-append bucket (@p level, @p d)'s entries below
     *  @p level. */
    void cascade(unsigned level, std::size_t d);
    /**
     * Earliest tick holding a wheel entry, cascading higher levels as
     * needed — but never moving the base past @p bound. False if the
     * wheel is empty or its next entry lies beyond @p bound.
     */
    bool wheelNext(Tick bound, Tick &out);

    EventId post(Tick when, Tick period, Callback cb);
    /** Validate @p when and allocate a slot primed with @p period. */
    std::uint32_t beginPost(Tick when, Tick period);
    /** beginPost for a periodic event (validates the interval). */
    std::uint32_t beginPeriodicPost(Tick interval);
    /** Queue the slot and update counters; returns the handle. */
    EventId finishPost(Tick when, std::uint32_t idx);
    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t idx);
    void push(Tick when, std::uint32_t slot);
    HeapEntry popTop();
    void siftUp(std::size_t i);
    void siftDown(std::size_t i);
    /** Re-assign dense seqs in heap order (runs before seq wrap). */
    void renumberSeqs();
    /** Drop tombstones from the heap top; true if a live entry
     *  remains. */
    bool settleTop();
    /** Remove and reclaim a tombstone that was just popped. */
    void reclaimTombstone(const HeapEntry &dead);
    /** One O(n) sweep dropping every tombstone, then re-heapify. */
    void compactHeap();
    /** Earliest live tick over both bands (heap first on ties),
     *  cascading the wheel no further than @p limit; false if none
     *  is due by @p limit. On success the base has been moved to the
     *  returned tick unless that tick lies behind it. */
    bool nextTick(Tick limit, Tick &out);
    /** Dispatch pending slot @p idx at its tick. */
    void dispatch(std::uint32_t idx);

    Tick curTick = 0;
    /** Wheel position: every wheel entry's tick is >= wheelBase.
     *  Never moves backwards. */
    Tick wheelBase = 0;
    std::uint32_t nextSeq = 1;
    std::size_t livePending = 0;

    /** Wheel bucket lists, level-major, and their occupancy bitmap
     *  (one bit per bucket) with a per-level summary (one bit per
     *  bitmap word) for O(1) find-first-set. */
    std::vector<Bucket> buckets =
        std::vector<Bucket>(firstBucket(kLevels));
    std::vector<std::uint64_t> wheelOcc =
        std::vector<std::uint64_t>(firstBucket(kLevels) / 64, 0);
    std::uint64_t occSummary[kLevels] = {};

    std::vector<HeapEntry> heap;
    std::vector<std::unique_ptr<Slot[]>> chunks;
    std::uint32_t slotCount = 0;
    std::uint32_t freeHead = kNoSlot;

    /** Estimate of tombstone entries still in the heap; drives
     *  compaction. Clamped at zero rather than trusted exactly. */
    std::size_t deadInHeap = 0;

    KernelCounters counters_;

    /** obs track cache for dispatch spans (plain ints so this header
     *  needs no obs include); revalidated against the armed tracer's
     *  epoch in dispatch(). */
    std::uint64_t obsEpoch_ = 0;
    std::uint32_t obsTrack_ = 0;
};

} // namespace sim

#endif // SIMCORE_EVENT_QUEUE_HH
