/**
 * @file
 * Sharded, multi-threaded discrete-event engine.
 *
 * A ShardGroup partitions an experiment into R *racks*, each with its
 * own EventQueue (the timing-wheel kernel of event_queue.hh,
 * unchanged), and executes the racks on S worker *shards* (threads),
 * rack r on shard r % S. Racks interact only through bounded SPSC
 * mailboxes; a cross-rack message posted at tick t must be delivered
 * no earlier than t + window, where `window` is the conservative
 * lookahead — in a datacenter topology, the inter-rack link latency.
 *
 * Synchronization is conservative lookahead on a fixed window grid.
 * Simulated time is cut into windows [T, T+W). A shard that has
 * finished every one of its racks' events in [T, T+W) publishes the
 * horizon T+W: a promise that it will never again send a message with
 * send tick < T+W, hence (lookahead) none with delivery tick
 * < T+2W. Before a shard enters window [T, T+W) it waits until every
 * other shard's horizon has reached T, drains from each inbound
 * mailbox exactly the messages with send tick < T (all of which are
 * visible by then, and none of which can be due before T), and
 * schedules them into the destination racks' queues. There is no
 * central barrier: each shard advances as soon as its neighbors'
 * horizons allow, so load skew between racks overlaps instead of
 * serializing.
 *
 * Determinism contract (the point of the design):
 *  - The *logical* decomposition — racks, channels, window — is part
 *    of the experiment; the shard count S is not. For a fixed rack
 *    count, the simulated result stream is identical for every S
 *    (asserted by tests/shard_test.cc): parallelism may change
 *    wall-clock time only, never a simulated outcome.
 *  - Messages are stamped (send tick, delivery tick, source rack,
 *    per-channel sequence). A barrier drain merges all inbound
 *    messages in (delivery tick, source rack, seq) order before
 *    scheduling them, and each drain point is a fixed sim-time grid
 *    multiple of the window — so the schedule a destination queue
 *    sees is a pure function of the traffic, independent of thread
 *    interleaving, shard count, and run() chunking.
 *  - With R = 1 the group *is* the serial kernel: one queue, no
 *    channels, executed inline on the calling thread, tick-identical
 *    to driving that EventQueue directly.
 *
 * Thread affinity: every rack's queue and every component built on it
 * is touched only by the shard that owns the rack (or by the caller
 * between run() calls — joins order those). Cross-rack closures must
 * capture their inputs by value and touch only destination-rack
 * state; they execute on the destination shard's thread.
 */

#ifndef SIMCORE_SHARD_GROUP_HH
#define SIMCORE_SHARD_GROUP_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "simcore/event_queue.hh"
#include "simcore/inline_callback.hh"
#include "simcore/spsc_ring.hh"
#include "simcore/types.hh"

namespace obs {
class Tracer;
}

namespace sim {

/** Aggregate engine counters (summed over shards after each run). */
struct ShardGroupCounters
{
    std::uint64_t windows = 0;      ///< rack-windows executed
    std::uint64_t messages = 0;     ///< cross-rack messages delivered
    std::uint64_t mailboxSpills = 0; ///< bounded-ring overflows
    std::uint64_t horizonWaits = 0; ///< spin iterations at barriers
};

class ShardGroup
{
  public:
    struct Params
    {
        /** Logical partition: one EventQueue per rack. Part of the
         *  experiment definition — changing it changes the model. */
        unsigned racks = 1;
        /** Worker threads; clamped to [1, racks]. NOT part of the
         *  model: any value yields the same simulated results. */
        unsigned shards = 1;
        /** Conservative lookahead in ticks: the minimum cross-rack
         *  delivery latency. Larger windows amortize barriers;  the
         *  window may not exceed any link's latency. */
        Tick window = kMs;
        /** Bounded mailbox ring capacity (messages); overflow spills
         *  to a counted mutex-protected side path. */
        std::size_t mailboxCapacity = 1024;
    };

    explicit ShardGroup(Params p);
    ShardGroup(const ShardGroup &) = delete;
    ShardGroup &operator=(const ShardGroup &) = delete;
    ~ShardGroup();

    unsigned racks() const { return racks_; }
    unsigned shards() const { return shards_; }
    Tick window() const { return window_; }

    /** Shard (thread) that executes @p rack. */
    unsigned shardOf(unsigned rack) const { return rack % shards_; }

    /** The queue rack @p r's components are built on. */
    EventQueue &rackQueue(unsigned r) { return *queues_.at(r); }
    const EventQueue &
    rackQueue(unsigned r) const
    {
        return *queues_.at(r);
    }

    /**
     * Post a closure for execution on @p dstRack at absolute tick
     * @p when. Must be called from @p srcRack's executing context
     * (its current event callback or between runs from the driving
     * thread); @p when must be at least the source rack's now() +
     * window() — the lookahead promise the synchronization rests on.
     * The closure executes on the destination rack's shard and must
     * only touch destination-rack state.
     */
    void postToRack(unsigned srcRack, unsigned dstRack, Tick when,
                    InlineCallback cb);

    /**
     * Advance every rack through all events with tick < @p until
     * (each rack queue's clock ends at until - 1). @p until must be
     * a multiple of window() and beyond the previous run's horizon,
     * so that successive run() calls land drain points on the same
     * grid — chunking a run changes nothing about its results.
     * Spawns shards()-1 worker threads; shard 0 runs on the caller's
     * thread. Exceptions thrown inside any shard are rethrown here.
     */
    void run(Tick until);

    /** Committed global time: every rack has finished all events
     *  below this tick. */
    Tick committed() const { return committed_; }

    /** Sum of events executed by every rack queue. */
    std::uint64_t totalExecuted() const;

    /**
     * Optional per-shard tracer: armed on the shard's worker thread
     * for the duration of each run() (obs arming is thread-local, so
     * each shard writes its own ring — no cross-thread ring traffic).
     * Pass nullptr to clear. The caller keeps ownership and must
     * keep the tracer alive across run().
     */
    void setShardTracer(unsigned shard, obs::Tracer *t);

    const ShardGroupCounters &counters() const { return counters_; }

  private:
    /** A cross-rack message parked in a mailbox. */
    struct Msg
    {
        Tick sendTick = 0; ///< source rack's now() at post time
        Tick when = 0;     ///< absolute delivery tick
        std::uint32_t srcRack = 0;
        std::uint64_t seq = 0; ///< per-channel FIFO stamp
        InlineCallback cb;
    };

    /** One (src rack -> dst rack) mailbox. */
    struct Channel
    {
        SpscRing<Msg> ring;
        std::uint64_t nextSeq = 1; ///< producer-side only

        explicit Channel(std::size_t cap) : ring(cap) {}
    };

    /** Per-shard mutable state, cache-line padded: the horizon is
     *  the cross-thread hot word. */
    struct alignas(64) ShardState
    {
        std::atomic<Tick> horizon{0};
        std::uint64_t windows = 0;
        std::uint64_t messages = 0;
        std::uint64_t horizonWaits = 0;
        obs::Tracer *tracer = nullptr;
    };

    Channel &
    channel(unsigned src, unsigned dst)
    {
        return *channels_[std::size_t(src) * racks_ + dst];
    }

    /** Wait until every other shard's horizon covers @p t. */
    void awaitHorizons(unsigned self, Tick t);
    /** Drain all inbound mailboxes of @p rack: messages with
     *  sendTick < @p t, merged by (when, srcRack, seq), into the
     *  rack's queue. @p scratch is reused across calls. */
    void drainInbound(unsigned rack, Tick t, std::vector<Msg> &scratch,
                      ShardState &st);
    /** Shard @p self's run loop over windows [base, until). */
    void shardMain(unsigned self, Tick base, Tick until);

    unsigned racks_;
    unsigned shards_;
    Tick window_;
    Tick committed_ = 0;

    std::vector<std::unique_ptr<EventQueue>> queues_;
    std::vector<std::unique_ptr<Channel>> channels_;
    std::vector<std::unique_ptr<ShardState>> states_;
    /** Racks owned by each shard, ascending rack id. */
    std::vector<std::vector<unsigned>> shardRacks_;

    std::atomic<bool> aborted_{false};
    ShardGroupCounters counters_;
};

} // namespace sim

#endif // SIMCORE_SHARD_GROUP_HH
