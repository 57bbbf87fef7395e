/**
 * @file
 * Pieces every workload world shares: the deployment log behind the
 * agility/elasticity percentiles, the tenant serving probe, the
 * per-layer tally over the public stats accessors of each module, and
 * the armed obs session of a traced run.
 */

#ifndef PERFBENCH_FLEET_HH
#define PERFBENCH_FLEET_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "aoe/server.hh"
#include "bmcast/deployer.hh"
#include "guest/guest_os.hh"
#include "hw/machine.hh"
#include "net/network.hh"
#include "obs/registry.hh"
#include "obs/tracer.hh"
#include "report.hh"
#include "simcore/event_queue.hh"
#include "simcore/random.hh"
#include "simcore/shard_group.hh"

namespace perfbench {

/** Content base of every golden image the workloads deploy. */
constexpr std::uint64_t kImageBase = 0xABCD000000000001ULL;

/** Workload inputs shared by every world. */
struct RunOptions
{
    std::uint64_t seed = 1;
    /** Worker threads for sharded worlds (model-neutral). */
    unsigned shards = 1;
    /** Arm obs::Tracer + obs::Registry for this run. */
    bool trace = false;
};

/** One deployment: request to serving guest to bare metal. */
struct DeployRecord
{
    sim::Tick requested = 0;
    sim::Tick serving = 0;
    sim::Tick bareMetal = 0;
    bool ok = false; //!< reached bare metal with an intact image
};

/** Tenant requests of one workload (all probes pool here). */
struct ServingStats
{
    std::vector<double> latencyUs;
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    /** Completed beyond the latency limit (counts as failed). */
    std::uint64_t late = 0;
    /** Returned content that does not match the image. */
    std::uint64_t wrong = 0;
    /** Simulated tenant-time during which requests were offered,
     *  summed over tenants. */
    sim::Tick activeTicks = 0;

    /** Requests that never completed (lost). */
    std::uint64_t lost() const { return issued - completed; }
    /** Append @p o's requests (callers merge in a fixed order). */
    void merge(const ServingStats &o);
};

/**
 * A tenant's closed-loop storage client: between start() and stop(),
 * read 8 random sectors of the image through the guest's block
 * driver, think, repeat. Every reply is checked against the image's
 * content and timed against a latency limit.
 */
class ServingProbe
{
  public:
    ServingProbe(sim::EventQueue &eq, guest::BlockDriver &blk,
                 ServingStats &stats, std::uint64_t seed,
                 sim::Lba imageSectors, sim::Tick think,
                 sim::Tick limit, std::uint64_t contentBase = kImageBase);
    ServingProbe(const ServingProbe &) = delete;
    ServingProbe &operator=(const ServingProbe &) = delete;

    void start();
    /** Stop issuing; an in-flight request still completes. */
    void stop();
    /** Stopped, with no request in flight. */
    bool quiet() const { return !running_ && !inflight_; }

  private:
    void issue();

    sim::EventQueue &eq_;
    guest::BlockDriver &blk_;
    ServingStats &stats_;
    sim::Rng rng_;
    sim::Lba sectors_;
    sim::Tick think_;
    sim::Tick limit_;
    std::uint64_t base_;
    sim::Tick startedAt_ = 0;
    bool running_ = false;
    bool inflight_ = false;
};

/** Raw per-layer sums over the public stats accessors; emit() turns
 *  them into the benchmark's per-layer metric set. */
struct LayerTally
{
    // simcore
    std::uint64_t events = 0, scheduled = 0, tombstones = 0,
                  spilled = 0, peakPending = 0, wallNs = 0;
    std::uint64_t crossMsgs = 0, horizonWaits = 0, mailboxSpills = 0;
    double parallelWallS = 0.0;
    // net
    std::uint64_t framesForwarded = 0, framesDropped = 0,
                  framesUplinked = 0;
    sim::Bytes wireBytes = 0;
    // hw
    std::uint64_t vmExits = 0, guestAccesses = 0, intercepted = 0,
                  diskSeeks = 0, diskReads = 0, diskCacheHits = 0;
    // aoe
    std::uint64_t aoeRequests = 0, aoeRetx = 0;
    sim::Bytes serverBytesOut = 0;
    // guest
    std::vector<double> bootS;
    std::uint64_t guestBlockIos = 0;
    // bmcast
    std::uint64_t redirectedSectors = 0, passthrough = 0,
                  redirectedReads = 0, queuedGuestWrites = 0,
                  dummyRestarts = 0, copySkipped = 0,
                  copySuspensions = 0, fetchErrors = 0;
    sim::Bytes copyBytes = 0;
    std::uint32_t copyBlockSectors = 2048;
    std::vector<double> phaseVmm, phaseBoot, phaseCopy, phaseDevirt;
    // netmed
    std::uint64_t nmPolls = 0, nmFrames = 0, nmCopies = 0,
                  nmThrottled = 0, nmNoBuffer = 0, nicExits = 0,
                  rpcs = 0;
    // store
    std::uint64_t peerHits = 0, seedFetches = 0, reconstructions = 0,
                  noSourceStalls = 0, dedupHits = 0, repairJobs = 0,
                  repairRetries = 0;
    sim::Bytes repairWire = 0, repairUseful = 0;
    std::uint64_t warmDeploys = 0;
    // cloud
    std::uint64_t submitted = 0, gateWaits = 0;
    std::uint64_t rejected[4] = {0, 0, 0, 0};
    std::vector<double> queueWaitS;
    std::vector<double> apiHostUs;
    // migrate
    std::uint64_t migrations = 0, migrateRounds = 0, migrateAborted = 0;
    sim::Bytes migrateShipped = 0;
    std::vector<double> downtimeMs;
    // workloads
    std::vector<double> dbReadUs, dbWriteUs;
    std::uint64_t dbFlushes = 0;
    // deployments (for warm share)
    std::uint64_t deploys = 0;

    void addQueue(const sim::KernelCounters &k);
    void addGroup(const sim::ShardGroup &g);
    void addNet(const net::Network &n);
    void addServer(const aoe::AoeServer &s, const net::Port &port);
    /** Machine, guest and deployer of one deployed node. */
    void addNode(hw::Machine &m, guest::GuestOs &g,
                 bmcast::BmcastDeployer &dep);

    void emit(Report &r) const;
};

/**
 * The armed obs session of a traced run: a tracer and registry
 * installed through obs::arm / obs::setClock / obs::setMetrics (or a
 * ShardGroup's per-shard tracer) for the lifetime of the object.
 */
class ObsSession
{
  public:
    explicit ObsSession(bool on);
    ~ObsSession();
    ObsSession(const ObsSession &) = delete;
    ObsSession &operator=(const ObsSession &) = delete;

    bool on() const { return tracer_ != nullptr; }
    void attach(sim::EventQueue &eq);
    void attach(sim::ShardGroup &g);

    /** obs.* and trace-derived aoe metrics; @p initiators names the
     *  AoE initiators whose aoe.rtt_ns histograms to merge. */
    void emit(Report &r, const std::vector<std::string> &initiators);

  private:
    std::unique_ptr<obs::Tracer> tracer_;
    obs::Registry metrics_;
};

/** Agility/elasticity/backbone metrics from a deployment log. */
void emitDeployMetrics(Report &r, const std::vector<DeployRecord> &d,
                       sim::Bytes backboneBytes);

/** Serving throughput/latency metrics from the pooled probes. */
void emitServingMetrics(Report &r, const ServingStats &s);

/** Fold a deployment log and serving stats into @p h. */
std::uint64_t fingerprintOf(std::uint64_t h,
                            const std::vector<DeployRecord> &d,
                            const ServingStats &s);

} // namespace perfbench

#endif // PERFBENCH_FLEET_HH
