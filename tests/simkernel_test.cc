/**
 * @file
 * Tests for the fast simulation kernel: the timing-wheel EventQueue
 * is driven against a reference std::map model under 100k random
 * schedule/cancel/runUntil operations, and again with delays spanning
 * every wheel level up to 2^62 ticks, periodics, run(limit) and
 * step() (identical execution order, timestamps and counts
 * required), the ends of the tick range and posts after run(limit)
 * stops short are pinned as plain cases, InlineCallback's move
 * semantics /
 * capture-size limit / destruction counting are checked directly,
 * and the generation-stamped EventId cancellation contract
 * (cancel-after-run, double-cancel, slot reuse) is pinned down.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "simcore/event_queue.hh"
#include "simcore/inline_callback.hh"
#include "simcore/logging.hh"
#include "simcore/random.hh"

namespace {

// --- Reference model -------------------------------------------------

/** The old std::map-based kernel, kept as the executable spec. A
 *  periodic event re-enters the map with a fresh seq each time it
 *  fires, as the kernel re-posts it after its callback returns. */
class ModelQueue
{
  public:
    using Key = std::pair<sim::Tick, std::uint64_t>;
    using Log = std::vector<std::pair<sim::Tick, int>>;

    /** Schedule at an absolute tick; a periodic fires @p fires
     *  times, every @p period ticks. @return a handle for
     *  cancel(). */
    std::uint64_t
    scheduleAt(sim::Tick when, int payload, sim::Tick period = 0,
               int fires = 1)
    {
        std::uint64_t seq = nextSeq++;
        Key k{when, seq};
        events.emplace(k, Event{payload, period, fires, seq});
        live.emplace(seq, k);
        return seq;
    }

    std::uint64_t
    schedule(sim::Tick delay, int payload)
    {
        return scheduleAt(curTick + delay, payload);
    }

    bool
    cancel(std::uint64_t handle)
    {
        auto it = live.find(handle);
        if (it == live.end())
            return false;
        events.erase(it->second);
        live.erase(it);
        return true;
    }

    /** Run through @p when; append (tick, payload) to @p log. */
    void
    runUntil(sim::Tick when, Log &log)
    {
        runLimit(when, log);
        if (when > curTick)
            curTick = when;
    }

    /** Run events with tick <= @p limit; time stays at the last
     *  executed event. */
    void
    runLimit(sim::Tick limit, Log &log)
    {
        while (!events.empty() &&
               events.begin()->first.first <= limit)
            fireFront(log);
    }

    bool
    step(Log &log)
    {
        if (events.empty())
            return false;
        fireFront(log);
        return true;
    }

    sim::Tick now() const { return curTick; }
    std::size_t pending() const { return events.size(); }

  private:
    struct Event
    {
        int payload;
        sim::Tick period;
        int fires;
        std::uint64_t handle;
    };

    void
    fireFront(Log &log)
    {
        auto it = events.begin();
        curTick = it->first.first;
        Event ev = it->second;
        events.erase(it);
        log.emplace_back(curTick, ev.payload);
        if (ev.period != 0 && --ev.fires > 0) {
            Key k{curTick + ev.period, nextSeq++};
            events.emplace(k, ev);
            live[ev.handle] = k;
        } else {
            live.erase(ev.handle);
        }
    }

    sim::Tick curTick = 0;
    std::uint64_t nextSeq = 1;
    std::map<Key, Event> events;
    std::map<std::uint64_t, Key> live; //!< handle -> current key
};

/** Drive EventQueue and ModelQueue with the same op stream; assert
 *  identical traces. */
class KernelProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(KernelProperty, MatchesReferenceModel)
{
    sim::Rng rng(GetParam());
    sim::EventQueue eq;
    ModelQueue model;

    std::vector<std::pair<sim::Tick, int>> gotLog, wantLog;

    struct Live
    {
        sim::EventId id;
        std::uint64_t modelSeq = 0;
    };
    std::vector<Live> cancellable;
    int nextPayload = 0;

    constexpr int kOps = 100000;
    for (int op = 0; op < kOps; ++op) {
        double dice = rng.uniform();
        if (dice < 0.55) {
            // Schedule.
            sim::Tick delay = rng.uniformInt(0, 500);
            int payload = nextPayload++;
            Live lv;
            lv.id = eq.schedule(
                delay, [payload, &gotLog, &eq]() {
                    gotLog.emplace_back(eq.now(), payload);
                });
            lv.modelSeq = model.schedule(delay, payload);
            cancellable.push_back(lv);
        } else if (dice < 0.75 && !cancellable.empty()) {
            // Cancel a random still-tracked handle (it may have
            // run already — both sides must agree on the outcome).
            std::size_t pick =
                rng.uniformInt(0, cancellable.size() - 1);
            Live lv = cancellable[pick];
            bool got = eq.cancel(lv.id);
            bool want = model.cancel(lv.modelSeq);
            ASSERT_EQ(got, want) << "cancel mismatch at op " << op;
            cancellable.erase(cancellable.begin() + pick);
        } else {
            // Advance time.
            sim::Tick until = eq.now() + rng.uniformInt(0, 300);
            eq.runUntil(until);
            model.runUntil(until, wantLog);
            ASSERT_EQ(eq.now(), model.now());
            ASSERT_EQ(eq.pending(), model.pending())
                << "pending mismatch at op " << op;
        }
    }
    // Drain everything left.
    eq.run();
    model.runUntil(~sim::Tick(0) - 1000, wantLog);

    ASSERT_EQ(gotLog.size(), wantLog.size());
    for (std::size_t i = 0; i < gotLog.size(); ++i) {
        ASSERT_EQ(gotLog[i].first, wantLog[i].first)
            << "timestamp diverges at event " << i;
        ASSERT_EQ(gotLog[i].second, wantLog[i].second)
            << "order diverges at event " << i;
    }
    EXPECT_EQ(eq.executed(), gotLog.size());
    EXPECT_EQ(eq.counters().scheduled, static_cast<std::uint64_t>(
                                           nextPayload));
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelProperty,
                         ::testing::Range(1, 6));

/** Log-uniform-ish delay in [0, 2^maxBits): equal odds per bit
 *  length, so every wheel level sees traffic. */
sim::Tick
logUniform(sim::Rng &rng, unsigned maxBits)
{
    const auto bits = static_cast<unsigned>(rng.uniformInt(0, maxBits));
    return bits == 0 ? 0
                     : rng.uniformInt(0, (sim::Tick(1) << bits) - 1);
}

/** KernelProperty across every wheel level: delays drawn from the
 *  whole 63-bit range (capped so that every tick stays below about
 *  2^62 and no periodic can wrap), same-tick cohorts posted from different
 *  bases, self-terminating periodics, and all three ways of advancing
 *  time — including run(limit) stopping short inside a block that
 *  holds nothing due, after which posts must still file correctly. */
class KernelPropertyWide : public ::testing::TestWithParam<int>
{
};

TEST_P(KernelPropertyWide, MatchesReferenceModelAcrossBands)
{
    constexpr unsigned kMaxBits = 63;
    /** Draws shrink to a sixteenth of the distance left to kTop (0
     *  past it), so 8 periodic firings never reach 2^64. */
    constexpr sim::Tick kTop = sim::Tick(1) << 62;
    /** At least this far out, an event files at level 5 or above
     *  wherever the base is. */
    constexpr sim::Tick kFar = sim::Tick(1) << 44;
    sim::Rng rng(GetParam());
    sim::EventQueue eq;
    ModelQueue model;
    ModelQueue::Log gotLog, wantLog;

    struct Live
    {
        sim::EventId id;
        sim::Tick when = 0; //!< first firing
        std::uint64_t modelHandle = 0;
    };
    std::vector<Live> cancellable;
    /** Periodic kernel-side state: the callback cancels its own
     *  cycle after `left` firings. Boxed so addresses stay put. */
    struct Periodic
    {
        sim::EventId id;
        int left = 0;
    };
    std::vector<std::unique_ptr<Periodic>> periodics;
    std::vector<sim::Tick> farTicks;
    int nextPayload = 0;

    auto draw = [&]() {
        const sim::Tick cap =
            eq.now() >= kTop ? 0 : (kTop - eq.now()) / 16;
        return std::min(logUniform(rng, kMaxBits), cap);
    };
    auto scheduleOneShot = [&](sim::Tick when) {
        const int payload = nextPayload++;
        Live lv;
        lv.when = when;
        lv.id = eq.scheduleAt(when, [payload, &gotLog, &eq]() {
            gotLog.emplace_back(eq.now(), payload);
        });
        lv.modelHandle = model.scheduleAt(when, payload);
        cancellable.push_back(lv);
    };

    constexpr int kOps = 100000;
    for (int op = 0; op < kOps; ++op) {
        const double dice = rng.uniform();
        if (dice < 0.40) {
            const sim::Tick delay = draw();
            if (delay >= kFar)
                farTicks.push_back(eq.now() + delay);
            scheduleOneShot(eq.now() + delay);
        } else if (dice < 0.50 && !cancellable.empty()) {
            // Join an existing tick's cohort from today's base. Half
            // the joins target a tick first scheduled at least 2^44
            // out, so entries posted from distant bases share ticks.
            const sim::Tick target =
                !farTicks.empty() && rng.uniform() < 0.5
                    ? farTicks[rng.uniformInt(0, farTicks.size() - 1)]
                    : cancellable[rng.uniformInt(
                                      0, cancellable.size() - 1)]
                          .when;
            scheduleOneShot(std::max(target, eq.now()));
        } else if (dice < 0.55) {
            const sim::Tick period = 1 + draw();
            const int fires =
                static_cast<int>(rng.uniformInt(1, 8));
            const int payload = nextPayload++;
            auto p = std::make_unique<Periodic>();
            Periodic *raw = p.get();
            raw->left = fires;
            raw->id = eq.schedulePeriodic(
                period, [raw, payload, &gotLog, &eq]() {
                    gotLog.emplace_back(eq.now(), payload);
                    if (--raw->left == 0)
                        eq.cancel(raw->id);
                });
            periodics.push_back(std::move(p));
            Live lv;
            lv.when = eq.now() + period;
            lv.id = raw->id;
            lv.modelHandle = model.scheduleAt(eq.now() + period,
                                              payload, period, fires);
            cancellable.push_back(lv);
        } else if (dice < 0.75 && !cancellable.empty()) {
            const std::size_t pick =
                rng.uniformInt(0, cancellable.size() - 1);
            const bool got = eq.cancel(cancellable[pick].id);
            const bool want = model.cancel(cancellable[pick].modelHandle);
            ASSERT_EQ(got, want) << "cancel mismatch at op " << op;
            cancellable.erase(cancellable.begin() +
                              static_cast<std::ptrdiff_t>(pick));
        } else if (dice < 0.87) {
            const sim::Tick until = eq.now() + draw();
            eq.runUntil(until);
            model.runUntil(until, wantLog);
        } else if (dice < 0.97) {
            const sim::Tick limit = eq.now() + draw();
            eq.run(limit);
            model.runLimit(limit, wantLog);
        } else {
            ASSERT_EQ(eq.step(), model.step(wantLog))
                << "step mismatch at op " << op;
        }
        ASSERT_EQ(eq.now(), model.now()) << "time mismatch at op " << op;
        ASSERT_EQ(eq.pending(), model.pending())
            << "pending mismatch at op " << op;
    }
    // Periodics stop themselves, so both sides drain completely.
    eq.run();
    model.runLimit(~sim::Tick(0), wantLog);
    EXPECT_EQ(eq.now(), model.now());
    EXPECT_TRUE(eq.empty());

    ASSERT_EQ(gotLog.size(), wantLog.size());
    for (std::size_t i = 0; i < gotLog.size(); ++i) {
        ASSERT_EQ(gotLog[i].first, wantLog[i].first)
            << "timestamp diverges at event " << i;
        ASSERT_EQ(gotLog[i].second, wantLog[i].second)
            << "order diverges at event " << i;
    }
    // The op mix must actually reach the far levels and cascade.
    EXPECT_FALSE(farTicks.empty());
    EXPECT_GT(eq.counters().cascaded, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelPropertyWide,
                         ::testing::Range(1, 6));

// --- Plain cases at the edges of the wheel ---------------------------

TEST(KernelEdges, PostAfterRunLimitStopsShortKeepsOrder)
{
    // run(9000) finds A's level-1 block (8192-12287) straddling the
    // limit with nothing due by it: time, and every post after it,
    // must stay where they were.
    sim::EventQueue eq;
    std::vector<char> order;
    eq.scheduleAt(10000, [&]() { order.push_back('A'); });
    EXPECT_EQ(eq.run(9000), 0u);
    EXPECT_EQ(eq.now(), 0u);
    eq.scheduleAt(100, [&]() { order.push_back('B'); });
    eq.scheduleAt(10000, [&]() { order.push_back('C'); });
    EXPECT_EQ(eq.run(), 3u);
    EXPECT_EQ(order, (std::vector<char>{'B', 'A', 'C'}));
    EXPECT_EQ(eq.now(), 10000u);
}

TEST(KernelEdges, TicksAcrossTheWholeRangeKeepOrder)
{
    constexpr sim::Tick kEnd = ~sim::Tick(0);
    const sim::Tick t44 = sim::Tick(1) << 44;
    const sim::Tick t60 = sim::Tick(1) << 60;
    const sim::Tick t63 = sim::Tick(1) << 63;
    sim::EventQueue eq;
    std::vector<std::pair<sim::Tick, int>> log;
    auto at = [&](sim::Tick when, int payload) {
        return eq.scheduleAt(when, [&log, &eq, payload]() {
            log.emplace_back(eq.now(), payload);
        });
    };
    at(kEnd, 1);
    at(t63, 2);
    at(t60, 3);
    at(t44, 4);
    EXPECT_TRUE(eq.cancel(at(t63 + 1, 99)));
    // Join the 2^63 and last-tick cohorts from a second base, past
    // 2^44 and just short of 2^60.
    eq.runUntil(t60 - 5);
    EXPECT_EQ(eq.now(), t60 - 5);
    at(t63, 5);
    at(kEnd, 6);
    EXPECT_EQ(log, (std::vector<std::pair<sim::Tick, int>>{{t44, 4}}));
    EXPECT_EQ(eq.pending(), 5u);
    EXPECT_EQ(eq.run(), 5u);
    EXPECT_EQ(eq.now(), kEnd);
    EXPECT_TRUE(eq.empty());
    using Log = std::vector<std::pair<sim::Tick, int>>;
    EXPECT_EQ(log, (Log{{t44, 4},
                        {t60, 3},
                        {t63, 2},
                        {t63, 5},
                        {kEnd, 1},
                        {kEnd, 6}}));
}

// --- EventId / cancellation contract ---------------------------------

TEST(EventIdSemantics, DefaultHandleIsInert)
{
    sim::EventQueue eq;
    sim::EventId id;
    EXPECT_FALSE(id.valid());
    EXPECT_FALSE(eq.cancel(id));
}

TEST(EventIdSemantics, HandleStaysValidAfterExecution)
{
    sim::EventQueue eq;
    auto id = eq.schedule(5, []() {});
    EXPECT_TRUE(id.valid());
    eq.run();
    // valid() documents "ever referred to an event", not "pending".
    EXPECT_TRUE(id.valid());
    EXPECT_FALSE(eq.cancel(id)); // already ran
}

TEST(EventIdSemantics, CancelAfterRunFalseEvenAfterSlotReuse)
{
    sim::EventQueue eq;
    auto id = eq.schedule(1, []() {});
    eq.run();
    // Recycle the slot many times: the generation stamp must keep
    // the stale handle dead.
    for (int i = 0; i < 64; ++i) {
        auto id2 = eq.schedule(1, []() {});
        EXPECT_FALSE(eq.cancel(id));
        EXPECT_TRUE(eq.cancel(id2));
        eq.schedule(1, []() {});
        eq.run();
        EXPECT_FALSE(eq.cancel(id));
    }
}

TEST(EventIdSemantics, DoubleCancelSafe)
{
    sim::EventQueue eq;
    bool ran = false;
    auto id = eq.schedule(10, [&]() { ran = true; });
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(id));
    eq.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(eq.counters().cancelled, 1u);
    EXPECT_EQ(eq.counters().tombstonesPopped, 1u);
}

TEST(EventIdSemantics, CancelSelfFromCallbackReportsAlreadyRan)
{
    sim::EventQueue eq;
    auto id = std::make_shared<sim::EventId>();
    bool selfCancel = true;
    *id = eq.schedule(3, [&eq, id, &selfCancel]() {
        selfCancel = eq.cancel(*id);
    });
    eq.run();
    EXPECT_FALSE(selfCancel);
}

// --- Periodic events -------------------------------------------------

TEST(PeriodicEvents, DriftFreeCadence)
{
    sim::EventQueue eq;
    std::vector<sim::Tick> fires;
    auto id = eq.schedulePeriodic(10, [&]() {
        fires.push_back(eq.now());
    });
    eq.runUntil(55);
    EXPECT_EQ(fires, (std::vector<sim::Tick>{10, 20, 30, 40, 50}));
    EXPECT_TRUE(eq.cancel(id));
    eq.runUntil(200);
    EXPECT_EQ(fires.size(), 5u);
    EXPECT_TRUE(eq.empty());
}

TEST(PeriodicEvents, CancelFromWithinOwnCallback)
{
    sim::EventQueue eq;
    int fired = 0;
    auto id = std::make_shared<sim::EventId>();
    *id = eq.schedulePeriodic(7, [&fired, &eq, id]() {
        if (++fired == 3) {
            EXPECT_TRUE(eq.cancel(*id));
        }
    });
    eq.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 21u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(PeriodicEvents, StableOrderAgainstOneShots)
{
    sim::EventQueue eq;
    std::vector<int> order;
    eq.schedulePeriodic(10, [&]() { order.push_back(1); });
    eq.schedule(10, [&]() { order.push_back(2); });
    eq.schedule(20, [&]() { order.push_back(3); });
    eq.runUntil(20);
    // Re-arming happens at firing time, exactly like a hand-rolled
    // self-rescheduling loop: the second periodic firing (seq
    // assigned at tick 10) runs after the tick-20 one-shot that was
    // scheduled at tick 0.
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 1}));
}

TEST(PeriodicEvents, ReArmPastTheLastTickPanics)
{
    // 2^64-6 + 10 wraps to 4: time must not run backwards.
    sim::EventQueue eq;
    eq.runUntil(~sim::Tick(0) - 15);
    std::vector<sim::Tick> fires;
    eq.schedulePeriodic(10, [&]() { fires.push_back(eq.now()); });
    EXPECT_THROW(eq.run(), sim::PanicError);
    EXPECT_EQ(fires, (std::vector<sim::Tick>{~sim::Tick(0) - 5}));
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.run(), 0u);
}

TEST(PeriodicEvents, CallbackStoredOnceNoPerFireScheduling)
{
    sim::EventQueue eq;
    int fires = 0;
    eq.schedulePeriodic(5, [&]() { ++fires; });
    eq.runUntil(1000);
    EXPECT_EQ(fires, 200);
    // One scheduled event, many executions: re-arming is internal.
    EXPECT_EQ(eq.counters().scheduled, 1u);
    EXPECT_EQ(eq.counters().executed, 200u);
}

// --- InlineCallback --------------------------------------------------

/** Instrumented payload for destruction/move counting. */
struct Probe
{
    static int liveCount;
    static int destroyCount;

    Probe() { ++liveCount; }
    Probe(const Probe &) { ++liveCount; }
    Probe(Probe &&) noexcept { ++liveCount; }
    ~Probe()
    {
        --liveCount;
        ++destroyCount;
    }
};

int Probe::liveCount = 0;
int Probe::destroyCount = 0;

TEST(InlineCallback, SmallCapturesStayInline)
{
    // The documented budget: closures up to kInlineBytes never
    // touch the heap.
    static_assert(sim::InlineCallback::kInlineBytes >= 48,
                  "inline budget shrank below the API promise");
    int x = 7;
    char pad[40] = {};
    sim::InlineCallback cb([x, pad]() {
        (void)x;
        (void)pad;
    });
    EXPECT_FALSE(cb.spilled());
}

TEST(InlineCallback, OversizedCapturesSpillAndAreCounted)
{
    char big[200] = {};
    auto before = sim::InlineCallback::spillCount();
    int runs = 0;
    sim::InlineCallback cb([big, &runs]() {
        (void)big;
        ++runs;
    });
    EXPECT_TRUE(cb.spilled());
    EXPECT_EQ(sim::InlineCallback::spillCount(), before + 1);
    cb(); // spilled closures must still execute correctly
    EXPECT_EQ(runs, 1);
}

TEST(InlineCallback, MoveTransfersClosure)
{
    int runs = 0;
    sim::InlineCallback a([&runs]() { ++runs; });
    sim::InlineCallback b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a)); // NOLINT: testing moved-from
    ASSERT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(runs, 1);

    sim::InlineCallback c;
    c = std::move(b);
    EXPECT_FALSE(static_cast<bool>(b)); // NOLINT
    c();
    EXPECT_EQ(runs, 2);
}

TEST(InlineCallback, DestroysInlineCaptureExactlyOnce)
{
    Probe::liveCount = 0;
    Probe::destroyCount = 0;
    {
        sim::InlineCallback cb([p = Probe()]() { (void)p; });
        EXPECT_FALSE(cb.spilled());
        EXPECT_EQ(Probe::liveCount, 1);
        sim::InlineCallback moved(std::move(cb));
        EXPECT_EQ(Probe::liveCount, 1);
    }
    EXPECT_EQ(Probe::liveCount, 0);
}

TEST(InlineCallback, DestroysSpilledCaptureExactlyOnce)
{
    Probe::liveCount = 0;
    Probe::destroyCount = 0;
    {
        char big[200] = {};
        sim::InlineCallback cb([p = Probe(), big]() {
            (void)p;
            (void)big;
        });
        EXPECT_TRUE(cb.spilled());
        EXPECT_EQ(Probe::liveCount, 1);
        sim::InlineCallback moved(std::move(cb));
        EXPECT_EQ(Probe::liveCount, 1);
    }
    EXPECT_EQ(Probe::liveCount, 0);
}

TEST(InlineCallback, ResetReleasesOwnedResources)
{
    auto token = std::make_shared<int>(42);
    std::weak_ptr<int> watch = token;
    sim::InlineCallback cb([token = std::move(token)]() { (void)token; });
    EXPECT_FALSE(watch.expired());
    cb.reset();
    EXPECT_TRUE(watch.expired());
    EXPECT_FALSE(static_cast<bool>(cb));
}

TEST(InlineCallback, QueueReleasesCancelledClosureEagerly)
{
    // cancel() must free the closure's resources immediately, not
    // only when the tombstone pops.
    sim::EventQueue eq;
    auto token = std::make_shared<int>(1);
    std::weak_ptr<int> watch = token;
    auto id = eq.schedule(100, [token = std::move(token)]() {});
    EXPECT_FALSE(watch.expired());
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_TRUE(watch.expired());
    eq.run();
}

// --- Kernel counters -------------------------------------------------

TEST(KernelCounters, TrackSchedulingActivity)
{
    sim::EventQueue eq;
    for (int i = 0; i < 10; ++i)
        eq.schedule(sim::Tick(i) + 1, []() {});
    // The 100 us poll distance (0x186a0 ticks) is filed at level 1
    // and cascades once, into its level-0 bucket; 10 ms (0x989680)
    // starts at level 2 and cascades twice.
    eq.schedule(100 * sim::kUs, []() {});
    eq.schedule(10 * sim::kMs, []() {});
    // A cancelled entry is reclaimed at once (O(1) unlink), near or
    // far.
    eq.cancel(eq.schedule(1000, []() {}));
    EXPECT_EQ(eq.counters().tombstonesPopped, 1u);
    eq.cancel(eq.schedule(sim::Tick(1) << 45, []() {}));
    EXPECT_EQ(eq.counters().tombstonesPopped, 2u);
    eq.run();

    const auto &c = eq.counters();
    EXPECT_EQ(c.scheduled, 14u);
    EXPECT_EQ(c.executed, 12u);
    EXPECT_EQ(c.cancelled, 2u);
    EXPECT_EQ(c.tombstonesPopped, 2u);
    EXPECT_EQ(c.peakPending, 13u);
    EXPECT_EQ(c.spilledCallbacks, 0u);
    EXPECT_EQ(c.cascaded, 3u);
}

} // namespace
