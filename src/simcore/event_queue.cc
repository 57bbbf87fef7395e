#include "simcore/event_queue.hh"

#include <algorithm>
#include <chrono>

#include "obs/obs.hh"
#include "simcore/logging.hh"

namespace sim {

EventQueue::~EventQueue() = default;

EventId
EventQueue::schedule(Tick delay, Callback cb)
{
    return scheduleAt(curTick + delay, std::move(cb));
}

EventId
EventQueue::scheduleAt(Tick when, Callback cb)
{
    return post(when, 0, std::move(cb));
}

EventId
EventQueue::schedulePeriodic(Tick interval, Callback cb)
{
    panicIfNot(interval > 0, "periodic event with zero interval");
    return post(curTick + interval, interval, std::move(cb));
}

EventId
EventQueue::post(Tick when, Tick period, Callback cb)
{
    panicIfNot(static_cast<bool>(cb), "scheduling an empty callback");
    std::uint32_t idx = beginPost(when, period);
    slotRef(idx).cb = std::move(cb);
    return finishPost(when, idx);
}

std::uint32_t
EventQueue::beginPost(Tick when, Tick period)
{
    if (when < curTick)
        panic("scheduling into the past: ", when, " < ", curTick);
    std::uint32_t idx = allocSlot();
    Slot &s = slotRef(idx);
    s.state = SlotState::Pending;
    s.period = period;
    return idx;
}

std::uint32_t
EventQueue::beginPeriodicPost(Tick interval)
{
    panicIfNot(interval > 0, "periodic event with zero interval");
    return beginPost(curTick + interval, interval);
}

EventId
EventQueue::finishPost(Tick when, std::uint32_t idx)
{
    Slot &s = slotRef(idx);
    if (s.cb.spilled())
        ++counters_.spilledCallbacks;
    postEntry(when, idx);
    ++counters_.scheduled;
    ++livePending;
    counters_.peakPending =
        std::max<std::uint64_t>(counters_.peakPending, livePending);
    return EventId(idx, s.gen);
}

bool
EventQueue::cancel(const EventId &id)
{
    if (!id.valid() || id.slot >= slotCount)
        return false;
    Slot &s = slotRef(id.slot);
    // The generation stamp makes cancel-after-run and double-cancel
    // return false even after the slot was recycled for a new event.
    if (s.gen != id.gen || s.state != SlotState::Pending)
        return false;
    s.state = SlotState::Cancelled;
    --livePending;
    ++counters_.cancelled;
    if (s.executing) {
        // A periodic cancelling itself from inside its own callback:
        // the closure is running right now, so dispatch() finishes
        // the teardown after the invocation returns. No queue entry
        // exists for it at this moment (it was popped to fire).
        return true;
    }
    // O(1) unlink from the doubly-linked bucket list: cancelled
    // timers (the AoE retransmission pattern, armed ~80 ms out and
    // almost always cancelled) free their slot at once instead of
    // waiting for their bucket to cascade.
    wheelUnlink(s);
    ++counters_.tombstonesPopped;
    freeSlot(id.slot);
    return true;
}

std::uint32_t
EventQueue::allocSlot()
{
    if (freeHead != kNoSlot) {
        std::uint32_t idx = freeHead;
        Slot &s = slotRef(idx);
        freeHead = s.next;
        s.next = kNoSlot;
        return idx;
    }
    panicIfNot(slotCount < kNoSlot, "event slot pool exhausted");
    if (slotCount == chunks.size() * kChunkSize)
        chunks.push_back(std::make_unique<Slot[]>(kChunkSize));
    return slotCount++;
}

void
EventQueue::freeSlot(std::uint32_t idx)
{
    Slot &s = slotRef(idx);
    s.cb.reset();
    s.state = SlotState::Free;
    s.period = 0;
    if (++s.gen == 0) // skip 0: it marks inert handles
        s.gen = 1;
    s.next = freeHead;
    freeHead = idx;
}

void
EventQueue::postEntry(Tick when, std::uint32_t slot)
{
    // when >= now() >= base (see the file comment): every tick files
    // into the wheel.
    slotRef(slot).when = when;
    const unsigned level = levelOf(when);
    bucketAppend(level, digit(when, level), slot);
}

void
EventQueue::markOccupied(unsigned level, std::size_t d)
{
    const std::size_t g = firstBucket(level) + d;
    wheelOcc[g >> 6] |= std::uint64_t(1) << (g & 63);
    occSummary[level] |= std::uint64_t(1) << (d >> 6);
}

void
EventQueue::markEmpty(unsigned level, std::size_t d)
{
    const std::size_t g = firstBucket(level) + d;
    if ((wheelOcc[g >> 6] &= ~(std::uint64_t(1) << (g & 63))) == 0)
        occSummary[level] &= ~(std::uint64_t(1) << (d >> 6));
}

void
EventQueue::bucketAppend(unsigned level, std::size_t d,
                         std::uint32_t slot)
{
    Slot &s = slotRef(slot);
    Bucket &b = buckets[firstBucket(level) + d];
    s.next = kNoSlot;
    s.prev = b.tail;
    if (b.head == kNoSlot) {
        b.head = slot;
        markOccupied(level, d);
    } else {
        slotRef(b.tail).next = slot;
    }
    b.tail = slot;
}

std::uint32_t
EventQueue::popLevel0(std::size_t d)
{
    Bucket &b = buckets[d];
    const std::uint32_t idx = b.head;
    if (idx == kNoSlot)
        return kNoSlot;
    b.head = slotRef(idx).next;
    if (b.head == kNoSlot) {
        b.tail = kNoSlot;
        markEmpty(0, d);
    } else {
        slotRef(b.head).prev = kNoSlot;
    }
    return idx;
}

void
EventQueue::wheelUnlink(const Slot &s)
{
    // The wheel is always filed against the current base, so the
    // bucket follows from the tick alone.
    const unsigned level = levelOf(s.when);
    const std::size_t d = digit(s.when, level);
    Bucket &b = buckets[firstBucket(level) + d];
    if (s.prev == kNoSlot)
        b.head = s.next;
    else
        slotRef(s.prev).next = s.next;
    if (s.next == kNoSlot)
        b.tail = s.prev;
    else
        slotRef(s.next).prev = s.prev;
    if (b.head == kNoSlot)
        markEmpty(level, d);
}

std::size_t
EventQueue::firstOccupied(unsigned level, std::size_t from) const
{
    if (from >> widthOf(level))
        return kNoBucket;
    // Two-level bitmap: the word holding `from`, then the summary's
    // first non-empty word after it. O(1) at any level width.
    const std::uint64_t *occ = &wheelOcc[firstBucket(level) >> 6];
    std::size_t w = from >> 6;
    std::uint64_t bits = occ[w] & (~std::uint64_t(0) << (from & 63));
    if (bits == 0) {
        const std::uint64_t later =
            occSummary[level] & (~std::uint64_t(1) << w);
        if (later == 0)
            return kNoBucket;
        w = static_cast<std::size_t>(__builtin_ctzll(later));
        bits = occ[w];
    }
    return (w << 6) + static_cast<std::size_t>(__builtin_ctzll(bits));
}

void
EventQueue::advanceBase(Tick nb)
{
    const Tick diff = nb ^ wheelBase;
    wheelBase = nb;
    if ((diff >> kNearBits) == 0)
        return; // same level-0 block: nothing changes level
    // Every entry is >= nb, so buckets below the level of the highest
    // digit that changed are empty, and only the bucket whose block
    // nb entered needs re-filing.
    const unsigned level = levelOfDiff(diff);
    cascade(level, digit(nb, level));
}

void
EventQueue::cascade(unsigned level, std::size_t d)
{
    Bucket &b = buckets[firstBucket(level) + d];
    std::uint32_t idx = b.head;
    b = Bucket{};
    markEmpty(level, d);
    // List order is FIFO order, and every destination bucket is
    // empty for this block (see the file comment), so appending in
    // list order keeps it.
    while (idx != kNoSlot) {
        const Slot &s = slotRef(idx);
        const std::uint32_t next = s.next;
        const unsigned to = levelOf(s.when);
        bucketAppend(to, digit(s.when, to), idx);
        ++counters_.cascaded;
        idx = next;
    }
}

bool
EventQueue::holdsDue(unsigned level, std::size_t d, Tick bound)
{
    for (std::uint32_t idx = buckets[firstBucket(level) + d].head;
         idx != kNoSlot;) {
        const Slot &s = slotRef(idx);
        if (s.when <= bound)
            return true;
        idx = s.next;
    }
    return false;
}

bool
EventQueue::wheelNext(Tick bound, Tick &out)
{
    for (;;) {
        // Level-0 entries share the base's block and are >= base.
        std::size_t d = firstOccupied(0, digit(wheelBase, 0));
        if (d != kNoBucket) {
            out = (wheelBase >> kNearBits << kNearBits) | d;
            return true;
        }
        // Above level 0, an entry's digit is strictly greater than
        // the base's: the first occupied bucket, lowest level first,
        // holds the earliest entries.
        unsigned level = 1;
        for (; level < kLevels; ++level) {
            d = firstOccupied(level, digit(wheelBase, level) + 1);
            if (d != kNoBucket)
                break;
        }
        if (level == kLevels)
            return false;
        // The top level's `up` is past bit 63, where a shift is
        // undefined; its block prefix is empty.
        const unsigned up = shiftOf(level + 1);
        const Tick start = (up >= 64 ? 0 : wheelBase >> up << up) |
                           (Tick(d) << shiftOf(level));
        if (start > bound)
            return false;
        // A block straddling the bound cascades only if something in
        // it is due: the base must not pass an event that run(bound)
        // leaves pending, or a later post could land behind it.
        const Tick last = start + ((Tick(1) << shiftOf(level)) - 1);
        if (last > bound && !holdsDue(level, d, bound))
            return false;
        advanceBase(start); // cascades bucket (level, d)
    }
}

bool
EventQueue::nextTick(Tick limit, Tick &out)
{
    if (!wheelNext(limit, out) || out > limit)
        return false;
    // out lies in the base's level-0 block: nothing re-files.
    wheelBase = out;
    return true;
}

void
EventQueue::dispatch(std::uint32_t idx)
{
    // Slots never move (chunked pool), so the closure runs in place:
    // it may schedule events — growing the pool — without its own
    // storage shifting underneath it.
    Slot &s = slotRef(idx);
    const Tick when = s.when;
    curTick = when;
    ++counters_.executed;
    const bool traced = obs::armed();
    if (traced) {
        obs::Tracer &t = obs::tracer();
        if (obsEpoch_ != t.epoch()) {
            obsTrack_ = t.track("kernel");
            obsEpoch_ = t.epoch();
        }
        t.spanBegin(obsTrack_, "kernel",
                    s.period == 0 ? "event" : "periodic", when);
    }
    if (s.period == 0) {
        // One-shot: kill the handle *before* invoking, so cancel()
        // from within the callback (or any time later, even after
        // slot reuse) reports "already ran". The slot is not on the
        // free list yet, so nothing can recycle it mid-invocation.
        if (++s.gen == 0)
            s.gen = 1;
        s.state = SlotState::Free;
        --livePending;
        s.cb.consume();
        s.next = freeHead;
        freeHead = idx;
    } else {
        s.executing = true;
        s.cb();
        s.executing = false;
        if (s.state == SlotState::Pending) {
            // Still armed: re-post for a drift-free cadence, one
            // list append into the wheel (the base is at `when`).
            const Tick next = when + s.period;
            if (next < when) {
                // Time cannot wrap: retire the cycle, then report it
                // the way scheduleAt() reports a tick in the past.
                --livePending;
                freeSlot(idx);
                panic("periodic event re-armed past the last tick: ",
                      when, " + ", s.period);
            }
            postEntry(next, idx);
        } else {
            // The callback cancelled its own cycle.
            freeSlot(idx);
        }
    }
    // Re-check armed(): a callback may tear the tracer down (the
    // bench harness disarms from its destructor).
    if (traced && obs::armed())
        obs::tracer().spanEnd(obsTrack_, when);
}

bool
EventQueue::step()
{
    Tick t = 0;
    if (!nextTick(~Tick(0), t))
        return false;
    dispatch(popLevel0(digit(t, 0)));
    return true;
}

std::uint64_t
EventQueue::run(Tick limit)
{
    const auto wallStart = std::chrono::steady_clock::now();
    std::uint64_t n = 0;

    Tick t = 0;
    while (nextTick(limit, t)) {
        // Level-0 bucket t holds exactly tick t's events in append
        // (= FIFO) order; callbacks scheduling for the current tick
        // append behind the cursor and run in this same drain. The
        // base check stops the drain if a callback ran the queue
        // reentrantly and moved the wheel on.
        const std::size_t d = digit(t, 0);
        std::uint32_t u = kNoSlot;
        while (wheelBase == t && (u = popLevel0(d)) != kNoSlot) {
            dispatch(u);
            ++n;
        }
    }

    counters_.wallNs += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wallStart)
            .count());
    return n;
}

std::uint64_t
EventQueue::runUntil(Tick when)
{
    std::uint64_t n = run(when);
    if (when > curTick)
        curTick = when;
    // run(when) left every entry past `when`, so the base can follow
    // the clock: later schedules then file relative to now.
    if (when > wheelBase)
        advanceBase(when);
    return n;
}

} // namespace sim
