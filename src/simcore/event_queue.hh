/**
 * @file
 * The discrete-event simulation kernel.
 *
 * A single EventQueue orders closures by (tick, scheduling order). All
 * simulated components in one Machine (and across Machines in one
 * experiment) share one queue so that cross-machine interactions
 * (network packets) are globally ordered.
 *
 * Implementation: one hierarchical timing wheel (Varghese & Lauck)
 * that covers the whole 64-bit tick space — there is no second band.
 *
 * Wheel — kLevels = 8 levels of buckets, every bucket an intrusive
 * FIFO list of slots plus one bit in an occupancy bitmap. Level 0 has
 * 4096 one-tick buckets (the low 12 bits of the tick); each level
 * above indexes the next 8 bits with 256 buckets, so a level-l bucket
 * (l >= 1) spans 2^(12 + 8(l-1)) ticks and the eight levels reach
 * 12 + 7x8 = 68 >= 64 bits: every tick lies inside the wheel (the top
 * level uses 16 of its buckets). The wheel is positioned at a base
 * tick (<= every entry it holds). An entry for tick T sits at the
 * level of the highest digit in which T and the base differ, in the
 * bucket named by T's digit at that level. Scheduling is one XOR, one
 * count-leading-zeros and a list append — no comparisons against
 * other entries. When the base enters a level-l bucket's block
 * (l >= 1), the bucket cascades: its entries are re-appended, in list
 * order, one or more levels down. Finding the next event is a
 * find-first-set through a two-level bitmap per level (one summary
 * bit per bitmap word), cascading the first occupied higher-level
 * bucket until a level-0 bucket is hit.
 *
 * No post behind the base: the base never passes now(), except in
 * runUntil(), which moves the clock along with it. Every post is for
 * a tick >= now() (scheduleAt() rejects the past, and a periodic
 * re-arm that would wrap past 2^64-1 panics), so every post files at
 * or after the base and postEntry() has a single path. wheelNext()
 * keeps the base behind the clock: it cascades a higher-level bucket
 * only if that bucket holds an entry due by the caller's bound. Most
 * blocks lie wholly before or after the bound; when the bucket's
 * block straddles it, the bucket's list is walked for an entry due by
 * the bound first. So run(limit) stopping short leaves the base at or
 * behind the last executed event.
 *
 * FIFO invariant: a level-l bucket's entries for block B were all
 * posted while the base was outside B, and every entry posted
 * directly below level l for B was posted after the base entered B —
 * i.e. after the bucket cascaded. A cascade always lands in buckets
 * that are empty for that block, so re-appending in list order keeps
 * each level-0 bucket in scheduling order: append order IS FIFO
 * order, exactly, with no sequence numbers anywhere.
 *
 * Why this geometry: BMcast's mediators poll rather than trap, so
 * poll re-arms dominate. A distance histogram of every post over the
 * four perfbench workloads (seed 1) puts 51-75% of them in the
 * 65-131 us bin (the VMM's 100 us poll), only 0.5-3.5% within 4096
 * ticks (the reach of a flat wheel of 4096 one-tick buckets) and
 * 0.07-0.9% at 4.3 s or more (mostly 8.6-17 s timers). Here the
 * 100 us poll enters at level 1 and reaches its tick after one O(1)
 * cascade; short delays (completion chains, bursts) mostly land in
 * level 0 directly. Levels 5-7 (2^44 ticks, 4.9 h at 1 ns, and up)
 * cost 768 buckets (~6 KiB per queue) and see no traffic on any
 * perfbench workload; they exist so that no tick needs another
 * structure.
 *
 * Event records (the closures) live in a chunked slot pool recycled
 * through a free list; the chunks never move, so callbacks execute
 * in place (no per-dispatch closure copies) even when they schedule
 * further events. cancel() is O(1): the entry is unlinked from its
 * doubly-linked bucket list (the wheel is always filed against the
 * current base, so the bucket follows from the tick) and its slot
 * freed at once. Closures are stored in sim::InlineCallback, so the
 * common small captures never touch the heap.
 *
 * API contract (relied upon across src/ and asserted by the property
 * test against a reference model):
 *  - events scheduled for the same tick run in scheduling order
 *    (stable FIFO);
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
     * from within the callback itself) stops the cycle. A re-arm past
     * the last representable tick throws PanicError rather than
     * wrapping time around.
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

    /** Number of pending events. */
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
    enum class SlotState : std::uint8_t { Free, Pending, Cancelled };

    /** Pooled event record; recycled through a free list. */
    struct Slot
    {
        Callback cb;
        Tick when = 0;   //!< tick the pending entry is queued for
        Tick period = 0; //!< 0 = one-shot
        std::uint32_t gen = 1;
        /** Free-list link while Free; bucket-list link while queued
         *  (a slot is never on both lists). */
        std::uint32_t next = kNoSlot;
        /** Bucket-list back link, for O(1) unlink on cancel(). */
        std::uint32_t prev = kNoSlot;
        SlotState state = SlotState::Free;
        /** A periodic callback is running right now: cancel() must
         *  not destroy the closure under its own feet (dispatch
         *  finishes the teardown). */
        bool executing = false;
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
     *  bits; kLevels levels cover every bit of a Tick. */
    static constexpr unsigned kNearBits = 12;
    static constexpr unsigned kLevelBits = 8;
    static constexpr unsigned kLevels = 8;
    static_assert(kNearBits + kLevelBits * (kLevels - 1) >=
                      8 * sizeof(Tick),
                  "the wheel must cover every tick");
    static constexpr std::size_t kNoBucket = ~std::size_t(0);

    /** Lowest tick bit of level @p level's digit (level kLevels: the
     *  span, which may exceed 63 — never shift a Tick by it). */
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

    /** Level of the highest digit set in @p diff (a tick XOR the
     *  base); the `| 1` maps "same tick" to level 0. */
    static unsigned
    levelOfDiff(Tick diff)
    {
        const auto h =
            static_cast<unsigned>(63 - __builtin_clzll(diff | 1));
        return h < kNearBits ? 0 : (h - kNearBits) / kLevelBits + 1;
    }

    /** Wheel level of tick @p when (>= base): its highest digit that
     *  differs from the base's. */
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

    /** Queue a pending slot for @p when (>= the base). */
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
    /** True if bucket (@p level, @p d) holds an entry due by
     *  @p bound. */
    bool holdsDue(unsigned level, std::size_t d, Tick bound);
    /**
     * Earliest tick holding an entry, cascading higher levels as
     * needed — but only buckets holding an entry due by @p bound, so
     * the base never passes an event that is not going to run. False
     * if the wheel is empty or its next entry lies beyond @p bound
     * (the level-0 case may report a tick beyond @p bound).
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
    /** Earliest pending tick, if one is due by @p limit; on success
     *  the base has been moved to it. */
    bool nextTick(Tick limit, Tick &out);
    /** Dispatch pending slot @p idx at its tick. */
    void dispatch(std::uint32_t idx);

    Tick curTick = 0;
    /** Wheel position: every entry's tick is >= wheelBase, and
     *  wheelBase <= curTick. Never moves backwards. */
    Tick wheelBase = 0;
    std::size_t livePending = 0;

    /** Wheel bucket lists, level-major, and their occupancy bitmap
     *  (one bit per bucket) with a per-level summary (one bit per
     *  bitmap word) for O(1) find-first-set. */
    std::vector<Bucket> buckets =
        std::vector<Bucket>(firstBucket(kLevels));
    std::vector<std::uint64_t> wheelOcc =
        std::vector<std::uint64_t>(firstBucket(kLevels) / 64, 0);
    std::uint64_t occSummary[kLevels] = {};

    std::vector<std::unique_ptr<Slot[]>> chunks;
    std::uint32_t slotCount = 0;
    std::uint32_t freeHead = kNoSlot;

    KernelCounters counters_;

    /** obs track cache for dispatch spans (plain ints so this header
     *  needs no obs include); revalidated against the armed tracer's
     *  epoch in dispatch(). */
    std::uint64_t obsEpoch_ = 0;
    std::uint32_t obsTrack_ = 0;
};

} // namespace sim

#endif // SIMCORE_EVENT_QUEUE_HH
