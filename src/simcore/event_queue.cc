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
    if (s.inWheel) {
        // O(1) unlink from the doubly-linked bucket list: cancelled
        // timers (the AoE retransmission pattern, armed ~80 ms out
        // and almost always cancelled) free their slot at once
        // instead of waiting for their bucket to cascade.
        wheelUnlink(s);
        ++counters_.tombstonesPopped;
        freeSlot(id.slot);
        return true;
    }
    // Heap: drop the closure now (it may own resources); the entry
    // stays behind as a tombstone and is reclaimed when its tick is
    // drained or the heap is compacted.
    s.cb.reset();
    ++deadInHeap;
    // Amortized-O(1) pressure valve: once tombstones outnumber live
    // entries, one sweep reclaims them all.
    if (deadInHeap > 64 && deadInHeap * 2 > heap.size())
        compactHeap();
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
    Slot &s = slotRef(slot);
    s.when = when;
    const Tick diff = when ^ wheelBase;
    if (when >= wheelBase && (diff >> kSpanBits) == 0) {
        const unsigned level = levelOf(when);
        s.inWheel = true;
        bucketAppend(level, digit(when, level), slot);
    } else {
        s.inWheel = false;
        ++counters_.overflowPosted;
        push(when, slot);
    }
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
    const unsigned level = levelOfDiff(diff);
    // Every wheel entry is >= nb, so buckets below `level` are empty
    // and only the bucket whose block nb entered needs re-filing.
    // Past the top level the base left its whole 2^kSpanBits block,
    // which every wheel entry lay in: the wheel is empty.
    if (level < kLevels)
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
        const unsigned up = shiftOf(level + 1);
        const Tick start =
            (wheelBase >> up << up) | (Tick(d) << shiftOf(level));
        if (start > bound)
            return false;
        advanceBase(start); // cascades bucket (level, d)
    }
}

void
EventQueue::push(Tick when, std::uint32_t slot)
{
    if (nextSeq == ~std::uint32_t(0))
        renumberSeqs();
    heap.push_back(HeapEntry{when, nextSeq++, slot});
    siftUp(heap.size() - 1);
}

void
EventQueue::renumberSeqs()
{
    // Dense re-assignment in (when, seq) order keeps the relative
    // FIFO order of every pending event; a sorted array is a valid
    // heap, so no re-heapify is needed. Runs at most once per 2^32
    // schedules — amortized free.
    std::sort(heap.begin(), heap.end(),
              [](const HeapEntry &a, const HeapEntry &b) {
                  return before(a, b);
              });
    std::uint32_t s = 0;
    for (HeapEntry &e : heap)
        e.seq = ++s;
    nextSeq = s + 1;
}

EventQueue::HeapEntry
EventQueue::popTop()
{
    HeapEntry top = heap.front();
    const std::size_t n = heap.size() - 1;
    if (n > 0) {
        const HeapEntry tail = heap[n];
        heap.pop_back();
        // Bottom-up pop: descend the min-child path to the bottom
        // without comparing against the displaced tail, then bubble
        // the tail up from the hole. The tail came from the deepest
        // layer, so the bubble-up almost always stops immediately —
        // this saves a comparison (and a mispredicting early-exit
        // branch) per level versus the classic sift-down.
        std::size_t hole = 0;
        for (;;) {
            std::size_t child = 4 * hole + 1;
            if (child >= n)
                break;
            const std::size_t end = std::min(child + 4, n);
            std::size_t best = child;
            // Ternary, not if: selects with cmov — see before().
            for (std::size_t c = child + 1; c < end; ++c)
                best = before(heap[c], heap[best]) ? c : best;
            heap[hole] = heap[best];
            hole = best;
        }
        while (hole > 0) {
            const std::size_t parent = (hole - 1) >> 2;
            if (!before(tail, heap[parent]))
                break;
            heap[hole] = heap[parent];
            hole = parent;
        }
        heap[hole] = tail;
    } else {
        heap.pop_back();
    }
    return top;
}

void
EventQueue::siftUp(std::size_t i)
{
    HeapEntry e = heap[i];
    while (i > 0) {
        std::size_t parent = (i - 1) >> 2;
        if (!before(e, heap[parent]))
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = e;
}

void
EventQueue::siftDown(std::size_t i)
{
    const std::size_t n = heap.size();
    HeapEntry e = heap[i];
    for (;;) {
        std::size_t child = 4 * i + 1;
        if (child >= n)
            break;
        const std::size_t end = std::min(child + 4, n);
        std::size_t best = child;
        for (std::size_t c = child + 1; c < end; ++c)
            best = before(heap[c], heap[best]) ? c : best;
        if (!before(heap[best], e))
            break;
        heap[i] = heap[best];
        i = best;
    }
    heap[i] = e;
}

void
EventQueue::reclaimTombstone(const HeapEntry &dead)
{
    // An entry can only go stale through cancel(): a slot is freed
    // exactly when its single heap entry is reclaimed, so the slot
    // still belongs to the cancelled event.
    panicIfNot(slotRef(dead.slot).state == SlotState::Cancelled,
               "tombstone points at a live slot");
    ++counters_.tombstonesPopped;
    if (deadInHeap > 0)
        --deadInHeap;
    freeSlot(dead.slot);
}

bool
EventQueue::settleTop()
{
    while (!heap.empty()) {
        if (slotRef(heap.front().slot).state == SlotState::Pending)
            return true;
        reclaimTombstone(popTop());
    }
    return false;
}

void
EventQueue::compactHeap()
{
    std::size_t kept = 0;
    for (const HeapEntry &e : heap) {
        if (slotRef(e.slot).state == SlotState::Pending) {
            heap[kept++] = e;
        } else {
            panicIfNot(slotRef(e.slot).state == SlotState::Cancelled,
                       "tombstone points at a live slot");
            ++counters_.tombstonesPopped;
            freeSlot(e.slot);
        }
    }
    heap.resize(kept);
    deadInHeap = 0;
    if (kept > 1) {
        for (std::size_t i = (kept - 2) / 4 + 1; i-- > 0;)
            siftDown(i);
    }
}

bool
EventQueue::nextTick(Tick limit, Tick &out)
{
    const bool haveHeap = settleTop();
    // Never cascade past the heap top: the heap cohort must be
    // dispatched with the base at (or before) its tick.
    const Tick bound =
        haveHeap ? std::min(limit, heap.front().when) : limit;
    Tick tw = 0;
    const bool haveWheel = wheelNext(bound, tw);
    Tick t;
    if (haveHeap && (!haveWheel || heap.front().when <= tw))
        t = heap.front().when;
    else if (haveWheel)
        t = tw;
    else
        return false;
    if (t > limit)
        return false;
    // Every wheel entry is >= t here. A heap tick behind the base
    // (posted after run(limit) stopped short) leaves the base alone.
    if (t > wheelBase)
        advanceBase(t);
    out = t;
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
            postEntry(when + s.period, idx);
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
    if (settleTop() && heap.front().when == t)
        dispatch(popTop().slot); // heap cohort first
    else
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
        // Overflow cohort first: a heap entry for tick t predates
        // every wheel entry for t. Its callbacks add tick-t events
        // to the wheel (the base is at t), or — behind the base — to
        // the heap with a larger seq, which this loop picks up.
        while (settleTop() && heap.front().when == t) {
            dispatch(popTop().slot);
            ++n;
        }

        // Wheel: level-0 bucket t holds exactly tick t's wheel
        // events in append (= FIFO) order; callbacks scheduling for
        // the current tick append behind the cursor and run in this
        // same drain. The base check stops the drain if a callback
        // ran the queue reentrantly and moved the wheel on.
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
    // run(when) left every wheel entry past `when`, so the base can
    // follow the clock: later schedules then file relative to now.
    if (when > wheelBase)
        advanceBase(when);
    return n;
}

} // namespace sim
