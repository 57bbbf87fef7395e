/**
 * @file
 * bmref: time a fixed reference kernel and print its host seconds as
 * one JSON line, {"ref_s": <seconds>}.
 *
 * perfbench/run.py runs it between workload reps and divides each
 * rep's host times by the reference time around it, so that the
 * reported setup_s and wall_s follow the simulator's speed rather than
 * the speed the shared host happens to give this process at the time. The kernel is
 * built only from this file, so no change under src/ moves it. It
 * does what a simulator's event loop does: pops the earliest of a
 * large set of pending events from a binary heap, updates the record
 * the event names in an arena too large for the private caches, and
 * schedules a follow-up event.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <queue>
#include <vector>

namespace {

constexpr std::size_t kArenaBytes = 256u << 20;
constexpr std::size_t kRecordBytes = 256;
constexpr std::size_t kRecords = kArenaBytes / kRecordBytes;
constexpr int kPending = 100000;
constexpr int kSteps = 800000;

struct Event
{
    std::uint64_t due;
    std::uint32_t record;
    bool operator>(const Event &o) const { return due > o.due; }
};

struct XorShift
{
    std::uint64_t x = 88172645463325252ull;
    std::uint64_t
    operator()()
    {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    }
};

} // namespace

int
main()
{
    std::vector<std::uint8_t> arena(kArenaBytes, 1);
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>> q;
    XorShift rnd;
    for (int i = 0; i < kPending; ++i)
        q.push({rnd() % 1000000, std::uint32_t(rnd() % kRecords)});

    auto t0 = std::chrono::steady_clock::now();
    std::uint64_t sum = 0;
    for (int i = 0; i < kSteps; ++i) {
        Event e = q.top();
        q.pop();
        std::uint8_t *r = &arena[std::size_t(e.record) * kRecordBytes];
        for (std::size_t line = 0; line < kRecordBytes; line += 64) {
            sum += r[line];
            r[line] += std::uint8_t(e.due);
        }
        q.push({e.due + 1 + rnd() % 1000,
                std::uint32_t((e.record * 2654435761u + rnd()) % kRecords)});
    }
    double s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    // The checksum keeps the loop from being optimised away.
    std::printf("{\"ref_s\": %.9g, \"checksum\": %llu}\n", s,
                static_cast<unsigned long long>(sum));
    return 0;
}
