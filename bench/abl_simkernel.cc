/**
 * @file
 * Ablation: simulation-kernel throughput.
 *
 * Every simulated action in the repo funnels through sim::EventQueue,
 * so its per-event cost multiplies every experiment. This bench pits
 * the current kernel (one hierarchical timing wheel over all 64 tick
 * bits, O(1) unlink on cancel, pooled slots, inline callbacks,
 * native periodic events) against the original
 * std::map<pair<Tick,seq>, std::function> kernel, which is embedded
 * below as the baseline.
 *
 * The operation mixes are parameterized from real traces (kernel
 * counters captured from fig05_database and abl_scaleout runs:
 * typical peak pending 250-500 events, and roughly half of all
 * executions are periodic poll/timer re-fires — fig05's main queue
 * executes 18.8M events from only 9.3M schedules):
 *
 *  - schedule_heavy: self-perpetuating one-shot cascades (guest I/O
 *    completion chains) — every executed event is a fresh schedule
 *    with a capture too big for std::function's inline buffer, so
 *    this mix isolates the allocation + tree-rebalance cost the old
 *    kernel paid on the schedule path.
 *  - poller_steady: the fig05 steady-state profile — mostly
 *    fixed-cadence pollers (device poll loops, VMX preemption
 *    timers) with a thin cascade of I/O on top. The old kernel
 *    serviced pollers as self-rescheduling one-shots (map insert +
 *    erase per firing, captures small enough for std::function's
 *    SBO) — exactly how vmm.cc, vmx.hh and background_copy.cc used
 *    it; the new kernel uses native schedulePeriodic (pop + re-push,
 *    zero allocation). Gains here are structural, not allocation
 *    wins, so the bar is parity-or-better rather than a multiple.
 *  - cancel_heavy: the AoE initiator's retransmission-timer pattern
 *    (arm a far-future timeout per request, cancel it when the
 *    response arrives) — most scheduled events die as cancels.
 *  - same_tick_burst: same-tick completion cohorts (DMA batches,
 *    poll-loop fan-out) that exercise batched draining.
 *  - measured_cadence: the schedule-distance histogram of the four
 *    perfbench workloads, where 51-75% of posts are the VMM's 100 us
 *    poll and only 0.5-3.5% fall within 4096 ticks: 48 pollers
 *    at 100 us (16 of them aligned on one tick, deploy_storm's rack
 *    pattern), 2 at 10 us (the netmed sidecore cadence), 1024 I/O
 *    chains completing 0.25-64 ms out, each arming an 80 ms AoE
 *    retransmission timer that the next completion cancels — a
 *    standing population of ~2.1k pending events. The four mixes
 *    above all use 1-1000-tick delays.
 *
 * One-shot callbacks capture ~32 bytes (this + lba + count + tick),
 * matching the typical closures across src/ — more than
 * std::function's 16-byte SBO, less than InlineCallback's budget.
 *
 * Every callback folds (now, payload) into a per-run hash; a mix
 * whose dispatch-sequence hash differs between the two kernels fails
 * the run, so a speedup can never come from executing something
 * else. Runs of the two kernels are interleaved (map, wheel, map,
 * ...) and the best of gReps is kept per kernel, so machine-load
 * drift hits both sides alike. Emits machine-readable
 * BENCH_simkernel.json; EXPERIMENTS.md records the baseline numbers.
 *
 * `--smoke` runs every mix once at a tenth of the size and gates only
 * on the hash match (timings that short are noise); it runs under the
 * bench-smoke ctest label.
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "simcore/event_queue.hh"
#include "simcore/table.hh"

namespace {

/** The pre-rewrite kernel, verbatim: one red-black-tree node plus
 *  (usually) one std::function heap allocation per event. */
class MapKernel
{
  public:
    using Callback = std::function<void()>;

    struct Id
    {
        sim::Tick when = 0;
        std::uint64_t seq = 0;
    };

    static constexpr bool kNativePeriodic = false;

    sim::Tick now() const { return curTick; }

    Id
    schedule(sim::Tick delay, Callback cb)
    {
        sim::Tick when = curTick + delay;
        std::uint64_t seq = nextSeq++;
        events.emplace(Key{when, seq}, std::move(cb));
        return Id{when, seq};
    }

    bool
    cancel(const Id &id)
    {
        return events.erase(Key{id.when, id.seq}) > 0;
    }

    std::uint64_t
    run(sim::Tick limit = ~sim::Tick(0))
    {
        std::uint64_t n = 0;
        while (!events.empty() &&
               events.begin()->first.first <= limit) {
            auto it = events.begin();
            curTick = it->first.first;
            Callback cb = std::move(it->second);
            events.erase(it);
            cb();
            ++n;
        }
        return n;
    }

  private:
    using Key = std::pair<sim::Tick, std::uint64_t>;

    sim::Tick curTick = 0;
    std::uint64_t nextSeq = 1;
    std::map<Key, Callback> events;
};

/** Adapter giving the real kernel the same surface as MapKernel. */
class WheelKernel
{
  public:
    using Id = sim::EventId;

    static constexpr bool kNativePeriodic = true;

    sim::Tick now() const { return eq.now(); }

    template <typename F>
    Id
    schedule(sim::Tick delay, F &&f)
    {
        return eq.schedule(delay, std::forward<F>(f));
    }

    template <typename F>
    Id
    schedulePeriodic(sim::Tick interval, F &&f)
    {
        return eq.schedulePeriodic(interval, std::forward<F>(f));
    }

    bool cancel(const Id &id) { return eq.cancel(id); }

    std::uint64_t
    run(sim::Tick limit = ~sim::Tick(0))
    {
        return eq.run(limit);
    }

    sim::EventQueue eq;
};

/** Events per mix (a tenth under --smoke). */
std::uint64_t gEventsPerMix = 1000000;
constexpr unsigned kChains = 32;
constexpr unsigned kPollers = 32;
constexpr sim::Tick kPollInterval = 200;
/** Far-future events deepening the structure without executing;
 *  sized to the typical per-queue peak pending measured on the
 *  fig05/abl_scaleout traces (250-500). */
constexpr std::uint64_t kStandingPopulation = 256;
int gReps = 4;

/** measured_cadence shape (see the file comment). */
constexpr unsigned kAlignedPollers = 16;
constexpr unsigned kPhasedPollers = 32;
constexpr sim::Tick kVmmPoll = 100 * sim::kUs;
constexpr unsigned kSidecorePollers = 2;
constexpr sim::Tick kSidecorePoll = 10 * sim::kUs;
constexpr unsigned kIoChains = 1024;
constexpr sim::Tick kAoeTimeout = 80 * sim::kMs;

/** Event-generation patterns shared by the mixes. */
template <typename Q>
struct Driver
{
    Q &q;
    std::uint64_t rngState;
    std::uint64_t remaining = 0;
    /** Hash of the (tick, payload) dispatch sequence. */
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    typename Q::Id lastTimer{};
    bool timerArmed = false;
    /** measured_cadence: each I/O chain's armed AoE timer. */
    std::vector<typename Q::Id> chainTimers;

    Driver(Q &q_, std::uint64_t seed) : q(q_), rngState(seed | 1) {}

    /** Fold one dispatch into the sequence hash. */
    void
    note(std::uint64_t payload)
    {
        hash = (hash ^ q.now()) * 0x100000001b3ULL;
        hash = (hash ^ payload) * 0x100000001b3ULL;
    }

    /** Inline xorshift64: the harness's per-event overhead is shared
     *  by both kernels and dilutes the measured ratio, so it must be
     *  a few cycles, not an out-of-line generic-PRNG call. */
    std::uint32_t
    rnd(std::uint32_t bound)
    {
        rngState ^= rngState << 13;
        rngState ^= rngState >> 7;
        rngState ^= rngState << 17;
        return static_cast<std::uint32_t>(
            ((rngState & 0xffffffffu) * std::uint64_t(bound)) >> 32);
    }

    /** One-shot cascade: each event re-schedules one successor at a
     *  random short delay; ~32-byte captures. Self-sustaining — the
     *  run horizon bounds the mix. */
    void
    cascade()
    {
        sim::Lba lba = rnd(1u << 20);
        std::uint32_t count = 8;
        sim::Tick stamp = q.now();
        q.schedule(1 + rnd(1000),
                   [this, lba, count, stamp]() {
                       note(lba + count);
                       (void)stamp;
                       cascade();
                   });
    }

    /** Fixed-cadence poller, in each kernel's native idiom: the old
     *  kernel re-arms a one-shot from inside the callback (the
     *  pre-schedulePeriodic pattern used across src/); the new one
     *  uses a native periodic event. */
    void
    startPoller(unsigned id, sim::Tick interval)
    {
        if constexpr (Q::kNativePeriodic) {
            q.schedulePeriodic(interval, [this, id]() { note(id); });
        } else {
            armPoller(id, interval);
        }
    }

    void
    armPoller(unsigned id, sim::Tick interval)
    {
        q.schedule(interval, [this, id, interval]() {
            note(id);
            armPoller(id, interval);
        });
    }

    /** startPoller after @p phase ticks. */
    void
    startPollerAt(sim::Tick phase, unsigned id, sim::Tick interval)
    {
        q.schedule(phase, [this, id, interval]() {
            startPoller(id, interval);
        });
    }

    /** cancel_heavy: AoE-style — every request arms a far-future
     *  retransmission timer; the "response" (the next event)
     *  cancels it. Half of all scheduled events become tombstones
     *  without ever running. */
    void
    timerChurn()
    {
        if (timerArmed)
            q.cancel(lastTimer);
        if (remaining == 0)
            return;
        --remaining;
        sim::Lba lba = rnd(1u << 20);
        std::uint32_t count = 8;
        sim::Tick stamp = q.now();
        lastTimer = q.schedule(kAoeTimeout, [this]() {
            note(0); // timeout path (rare)
        });
        timerArmed = true;
        q.schedule(1 + rnd(100),
                   [this, lba, count, stamp]() {
                       note(lba + count);
                       (void)stamp;
                       timerChurn();
                   });
    }

    /** same_tick_burst: cohorts of events on one tick. */
    void
    burst()
    {
        if (remaining == 0)
            return;
        const std::uint64_t cohort =
            std::min<std::uint64_t>(256, remaining);
        remaining -= cohort;
        sim::Tick delay = 1 + rnd(100);
        for (std::uint64_t i = 0; i < cohort; ++i) {
            sim::Lba lba = rnd(1u << 20);
            std::uint32_t count = 8;
            sim::Tick stamp = q.now();
            bool last = i + 1 == cohort;
            q.schedule(delay, [this, lba, count, stamp, last]() {
                note(lba + count);
                (void)stamp;
                if (last)
                    burst();
            });
        }
    }

    /** measured_cadence I/O chain: the previous request's response
     *  arrived, so cancel its retransmission timer and issue the
     *  next request, completing 0.25-64 ms out (log-uniform by
     *  octave). */
    void
    ioCompletion(unsigned chain)
    {
        q.cancel(chainTimers[chain]);
        const sim::Tick octave = (250 * sim::kUs) << rnd(8);
        const sim::Tick delay =
            octave + rnd(static_cast<std::uint32_t>(octave));
        chainTimers[chain] = q.schedule(kAoeTimeout, [this, chain]() {
            note(~std::uint64_t(chain)); // timeout path (never taken)
        });
        q.schedule(delay, [this, chain]() {
            note(chain);
            ioCompletion(chain);
        });
    }
};

struct MixResult
{
    std::uint64_t events = 0;
    std::uint64_t wallNs = 0;
    std::uint64_t hash = 0;

    double
    eventsPerSec() const
    {
        return wallNs ? 1e9 * static_cast<double>(events) /
                            static_cast<double>(wallNs)
                      : 0.0;
    }
};

template <typename Q, typename Start>
MixResult
runMix(Start &&start, sim::Tick horizon)
{
    Q q;
    Driver<Q> d(q, 12345);

    for (std::uint64_t i = 0; i < kStandingPopulation; ++i)
        q.schedule(horizon + sim::kSec + i, []() {});

    start(d);

    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t n = q.run(horizon);
    const auto t1 = std::chrono::steady_clock::now();

    MixResult r;
    r.events = n;
    r.hash = d.hash;
    r.wallNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    return r;
}

template <typename Q>
MixResult
scheduleHeavy()
{
    // kChains cascades at mean event spacing ~500.5 ticks; horizon
    // sized so the mix executes ~gEventsPerMix events.
    const double rate = kChains / 500.5;
    const auto horizon =
        static_cast<sim::Tick>(static_cast<double>(gEventsPerMix) /
                               rate);
    return runMix<Q>(
        [](Driver<Q> &d) {
            for (unsigned c = 0; c < kChains; ++c)
                d.cascade();
        },
        horizon);
}

template <typename Q>
MixResult
pollerSteady()
{
    // Trace proportions from fig05: roughly 2/3 periodic re-fires,
    // 1/3 fresh one-shot schedules.
    const double rate = 8 / 500.5 +
                        static_cast<double>(kPollers) / kPollInterval;
    const auto horizon =
        static_cast<sim::Tick>(static_cast<double>(gEventsPerMix) /
                               rate);
    return runMix<Q>(
        [](Driver<Q> &d) {
            for (unsigned c = 0; c < 8; ++c)
                d.cascade();
            for (unsigned p = 0; p < kPollers; ++p)
                d.startPoller(p, kPollInterval);
        },
        horizon);
}

template <typename Q>
MixResult
cancelHeavy()
{
    return runMix<Q>(
        [](Driver<Q> &d) {
            d.remaining = gEventsPerMix;
            d.timerChurn();
        },
        sim::kSec / 2);
}

template <typename Q>
MixResult
sameTickBurst()
{
    return runMix<Q>(
        [](Driver<Q> &d) {
            d.remaining = gEventsPerMix;
            for (unsigned c = 0; c < 4; ++c)
                d.burst();
        },
        sim::kSec / 2);
}

/** measured_cadence horizon for ~gEventsPerMix executions. */
sim::Tick
measuredHorizon()
{
    // Mean completion delay of the octave-log-uniform 0.25-64 ms
    // draw: 1.5 x 250 us x (2^8 - 1) / 8.
    const double ioDelay =
        1.5 * static_cast<double>(250 * sim::kUs) * 255.0 / 8.0;
    const double rate = // events per tick
        (kAlignedPollers + kPhasedPollers) /
            static_cast<double>(kVmmPoll) +
        kSidecorePollers / static_cast<double>(kSidecorePoll) +
        kIoChains / ioDelay;
    return static_cast<sim::Tick>(static_cast<double>(gEventsPerMix) /
                                  rate);
}

template <typename Q>
void
startMeasured(Driver<Q> &d)
{
    unsigned id = 0;
    for (unsigned p = 0; p < kAlignedPollers; ++p)
        d.startPoller(id++, kVmmPoll);
    for (unsigned p = 0; p < kPhasedPollers; ++p)
        d.startPollerAt(1 + d.rnd(kVmmPoll), id++, kVmmPoll);
    for (unsigned p = 0; p < kSidecorePollers; ++p)
        d.startPollerAt(1 + d.rnd(kSidecorePoll), id++, kSidecorePoll);
    d.chainTimers.resize(kIoChains);
    for (unsigned c = 0; c < kIoChains; ++c)
        d.ioCompletion(c);
}

template <typename Q>
MixResult
measuredCadence()
{
    return runMix<Q>([](Driver<Q> &d) { startMeasured(d); },
                     measuredHorizon());
}

struct MixRow
{
    std::string name;
    MixResult map;
    MixResult wheel;
    /** Every rep of both kernels executed the same (tick, payload)
     *  sequence. */
    bool sameDispatch = true;

    double
    speedup() const
    {
        return map.eventsPerSec() > 0
                   ? wheel.eventsPerSec() / map.eventsPerSec()
                   : 0.0;
    }
};

/** Interleaved best-of-gReps: load spikes hit both kernels alike. */
template <typename MapFn, typename WheelFn>
MixRow
measure(const std::string &name, MapFn &&mapFn, WheelFn &&wheelFn)
{
    MixRow row;
    row.name = name;
    for (int i = 0; i < gReps; ++i) {
        MixResult m = mapFn();
        if (row.map.wallNs == 0 || m.wallNs < row.map.wallNs)
            row.map = m;
        MixResult h = wheelFn();
        if (row.wheel.wallNs == 0 || h.wallNs < row.wheel.wallNs)
            row.wheel = h;
        row.sameDispatch = row.sameDispatch && m.hash == h.hash &&
                           m.events == h.events;
    }
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
    if (smoke) {
        gEventsPerMix /= 10;
        gReps = 1;
    }
    bench::figureHeader(
        std::string("Ablation: simulation-kernel throughput "
                    "(timing-wheel kernel vs std::map kernel") +
        (smoke ? ", smoke)" : ")"));

    std::vector<MixRow> rows;
    rows.push_back(measure("schedule_heavy",
                           [] { return scheduleHeavy<MapKernel>(); },
                           [] { return scheduleHeavy<WheelKernel>(); }));
    rows.push_back(measure("poller_steady",
                           [] { return pollerSteady<MapKernel>(); },
                           [] { return pollerSteady<WheelKernel>(); }));
    rows.push_back(measure("cancel_heavy",
                           [] { return cancelHeavy<MapKernel>(); },
                           [] { return cancelHeavy<WheelKernel>(); }));
    rows.push_back(measure("same_tick_burst",
                           [] { return sameTickBurst<MapKernel>(); },
                           [] { return sameTickBurst<WheelKernel>(); }));
    rows.push_back(
        measure("measured_cadence",
                [] { return measuredCadence<MapKernel>(); },
                [] { return measuredCadence<WheelKernel>(); }));

    sim::Table t({"Mix", "Events", "map kernel (Mev/s)",
                  "new kernel (Mev/s)", "Speedup", "Dispatch hash"});
    for (const auto &r : rows) {
        std::ostringstream h;
        h << "0x" << std::hex << r.wheel.hash
          << (r.sameDispatch ? "" : " MISMATCH");
        t.addRow({r.name, std::to_string(r.wheel.events),
                  sim::Table::num(r.map.eventsPerSec() / 1e6, 2),
                  sim::Table::num(r.wheel.eventsPerSec() / 1e6, 2),
                  sim::Table::num(r.speedup(), 2) + "x", h.str()});
    }
    t.print(std::cout);

    // Counter snapshot from an instrumented run of the measured mix:
    // schedules, cancels and cascades per executed event.
    {
        WheelKernel q;
        Driver<WheelKernel> d(q, 777);
        startMeasured(d);
        const std::uint64_t n = q.run(measuredHorizon() / 5);
        std::cout << "\nKernel counters (measured_cadence, " << n
                  << "-event sample):\n";
        bench::printKernelCounters(q.eq, std::cout);
    }

    std::ofstream json("BENCH_simkernel.json");
    json << "{\n  \"bench\": \"abl_simkernel\",\n"
         << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
         << "  \"events_per_mix\": " << gEventsPerMix << ",\n"
         << "  \"standing_population\": " << kStandingPopulation
         << ",\n  \"mixes\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto &r = rows[i];
        json << "    {\"name\": \"" << r.name << "\", "
             << "\"events\": " << r.wheel.events << ", "
             << "\"map_wall_ns\": " << r.map.wallNs << ", "
             << "\"wheel_wall_ns\": " << r.wheel.wallNs << ", "
             << "\"map_events_per_sec\": " << r.map.eventsPerSec()
             << ", "
             << "\"wheel_events_per_sec\": " << r.wheel.eventsPerSec()
             << ", "
             << "\"speedup\": " << r.speedup() << ", "
             << "\"same_dispatch\": "
             << (r.sameDispatch ? "true" : "false") << "}"
             << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    json.close();
    std::cout << "\nwrote BENCH_simkernel.json\n";

    bool ok = true;
    for (const auto &r : rows) {
        if (!r.sameDispatch) {
            std::cout << "FAIL: " << r.name
                      << " dispatch sequence differs from the map "
                         "kernel's\n";
            ok = false;
        }
    }
    if (smoke)
        return ok ? 0 : 1;
    for (const auto &r : rows)
        ok = ok && r.speedup() >= 1.0;
    if (rows[0].speedup() < 3.0) {
        std::cout << "WARNING: schedule_heavy speedup below the 3x "
                     "target\n";
        ok = false;
    }
    return ok ? 0 : 1;
}
