/**
 * @file
 * lease_churn: one bmcast::Cloud region with topology, congestion
 * shaping and the store tier (LRC erasure code, peer-assisted
 * streaming, background repair) under an open-loop, seeded Poisson
 * stream of leases from four tenants in three QoS classes.
 *
 * The catalog holds a series of image versions. Every three seconds
 * the next version rolls out: one canary lease deploys it cold from the
 * seeds, and once the canary is at bare metal it becomes the version
 * other leases ask for, served warm by peers. (Every version is
 * registered up front: the repair scheduler heals the stripes of
 * images known when a seed dies.) Leases live an
 * exponential time after they serve (and at least until their
 * instance is bare metal). One release in four folds the instance
 * into an overlay image that later leases redeploy from. Every second
 * one bare-metal lease is live-migrated to a free slot in another
 * rack when there is one. Half way through the stream one seed server
 * crashes and the RepairScheduler rebuilds its stripe members. Each
 * tenant guest runs a serving probe from guest-up until release,
 * paused across its migration.
 */

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bmcast/cloud.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

constexpr unsigned kMachines = 48;
constexpr unsigned kRacks = 4;
constexpr unsigned kLeases = 480;
constexpr unsigned kTenants = 4;
constexpr sim::Bytes kImageBytes = 8 * sim::kMiB;
constexpr sim::Lba kImageSectors = kImageBytes / sim::kSectorSize;
constexpr double kArrivalsPerSec = 5.0;
constexpr double kMeanLifetimeSec = 3.0;
constexpr unsigned kOverlayEvery = 4;
/** Share of leases that redeploy a saved overlay. */
constexpr double kOverlayShare = 0.3;
constexpr sim::Tick kVersionEvery = 3 * sim::kSec;
constexpr unsigned kVersions =
    unsigned(kLeases / kArrivalsPerSec * double(sim::kSec) / kVersionEvery) + 1;
constexpr sim::Tick kSupervise = 50 * sim::kMs;
constexpr sim::Tick kMigrateEvery = 1 * sim::kSec;
constexpr unsigned kCrashSeed = 3;
constexpr sim::Tick kDeadline = 2000 * sim::kSec;

/** Content base of image version @p v. */
std::uint64_t
versionBase(unsigned v)
{
    return 0xAAAA000000000001ULL + (std::uint64_t(v) << 40);
}

/** One lease and what the benchmark tracks about it. */
struct Tracked
{
    cloud::Lease *lease = nullptr;
    bmcast::Instance *inst = nullptr;
    std::string image;
    std::uint64_t base = 0;
    bool overlayImage = false;
    /** First lease of a new image version (deploys it cold). */
    bool canary = false;
    unsigned version = 0;
    sim::Tick lifetime = 0;
    std::unique_ptr<ServingProbe> probe;
    bool migrating = false;
    bool released = false;
    bool verified = true;
    DeployRecord rec;
};

class ChurnWorld
{
  public:
    ChurnWorld(const RunOptions &o, HostSpans &spans)
        : rng_(sim::Rng::seedFrom("lease_churn", o.seed)), seed_(o.seed),
          spans_(spans)
    {
        auto t = HostSpans::Clock::now();
        bmcast::CloudConfig cfg;
        cfg.machines = kMachines;
        cfg.racks = kRacks;
        cfg.machineTemplate.disk.capacityBytes = 4 * kImageBytes;
        cfg.machineTemplate.hasInfiniBand = false;
        cfg.server.workers = 8;
        cfg.server.cacheHitRate = 0.9;
        cfg.vmm = fastVmmParams();
        cfg.guestTemplate.boot = smallBootTrace();
        cfg.guestTemplate.seed = o.seed;
        cfg.store.enabled = true;
        cfg.store.code = store::ec::CodeKind::Lrc;
        cfg.store.seedServers = 10;
        cfg.store.repair.enabled = true;
        cfg.topology.racks = kRacks;
        cfg.congestion.enabled = true;
        cfg.congestion.scavengerShare = 0.1;
        cfg.migrate.memoryBytes = 32 * sim::kMiB;
        cfg.migrate.memoryDirtyBytesPerSec = 2 * sim::kMiB;
        cfg.migrate.stopCopyThresholdBytes = 1 * sim::kMiB;
        cloud_ = std::make_unique<bmcast::Cloud>(eq_, "region", cfg);
        for (unsigned v = 0; v < kVersions; ++v) {
            versions_.emplace_back("img-v" + std::to_string(v),
                                   versionBase(v));
            cloud_->addImage(versions_.back().first, kImageBytes,
                             versions_.back().second);
        }
        spans.add("host.setup.cloud_s", t);

        eq_.scheduleAt(1, [this]() { arrive(); });
        eq_.schedule(kVersionEvery, [this]() { rollOut(); });
        eq_.schedule(kSupervise, [this]() { supervise(); });
        eq_.schedule(kMigrateEvery, [this]() { migrateOne(); });
        const auto crashAt = static_cast<sim::Tick>(
            double(kLeases) / kArrivalsPerSec / 2.0 * double(sim::kSec));
        eq_.scheduleAt(crashAt, [this]() {
            cloud_->seedServer(kCrashSeed).crash();
            crashed_ = true;
        });
    }

    bool
    finished() const
    {
        if (submitted_ < kLeases || !crashed_)
            return false;
        for (const auto &tr : tracked_)
            if (!tr->released &&
                tr->lease->state() != cloud::LeaseState::Rejected)
                return false;
        store::RepairScheduler *rs = cloud_->repairScheduler();
        return rs->idle() && rs->allHealthy();
    }

    void
    run()
    {
        auto t = HostSpans::Clock::now();
        while (!finished() && eq_.now() < kDeadline && !eq_.empty()) {
            eq_.runUntil(eq_.now() + sim::kSec);
            t = spans_.add("host.run.event_queue_s", t);
        }
    }

    void
    report(Report &rep, ObsSession &obs)
    {
        for (auto &tr : tracked_)
            if (!tr->released && tr->inst)
                retire(*tr, false);

        std::vector<DeployRecord> recs;
        std::uint64_t rejected = 0, verifyFailures = 0;
        for (const auto &tr : tracked_) {
            if (tr->lease->state() == cloud::LeaseState::Rejected) {
                ++rejected;
                continue;
            }
            recs.push_back(tr->rec);
            verifyFailures += tr->verified ? 0 : 1;
            lt_.queueWaitS.push_back(
                sim::toSeconds(tr->lease->admissionLatency()));
        }
        sim::Bytes backbone = 0;
        for (std::size_t i = 0; i < cloud_->seedServerCount(); ++i) {
            backbone += cloud_->seedServer(i).dataBytesOut();
            lt_.serverBytesOut += cloud_->seedServer(i).dataBytesOut();
        }
        lt_.addQueue(eq_.counters());
        lt_.addNet(cloud_->network());
        const cloud::ControlPlaneStats &ps = cloud_->plane().stats();
        lt_.submitted = ps.submitted;
        for (unsigned i = 0; i < 4; ++i)
            lt_.rejected[i] = ps.rejected[i + 1];
        store::StoreFabric *fab = cloud_->storeFabric();
        lt_.dedupHits = fab->chunkStore().dedupHits();
        store::RepairScheduler *rs = cloud_->repairScheduler();
        lt_.repairJobs = rs->stats().jobsCompleted;
        lt_.repairRetries = rs->stats().retries;
        lt_.repairWire = rs->stats().wireBytes;
        lt_.repairUseful = rs->stats().repairedBytes;

        rep.check("every_disk_has_its_image", verifyFailures == 0);
        rep.check("migrated_disks_identical", migrateMismatch_ == 0);
        rep.check("stripes_healthy_after_repair",
                  rs->idle() && rs->allHealthy() &&
                      rs->stats().jobsCompleted > 0);
        rep.check("stream_completed", finished());
        emitDeployMetrics(rep, recs, backbone);
        // Rejected leases and aborted migrations are failed operations
        // too.
        rep.ops(rejected + migrateAttempts_, rejected + lt_.migrateAborted);
        emitServingMetrics(rep, serving_);
        lt_.emit(rep);
        obs.emit(rep, initiators_);

        std::uint64_t h = sim::fingerprintMix(sim::kFingerprintSeed,
                                              eq_.executed());
        h = sim::fingerprintMix(h, backbone);
        h = sim::fingerprintMix(h, lt_.migrations);
        h = sim::fingerprintMix(h, lt_.repairWire);
        rep.setFingerprint(fingerprintOf(h, recs, serving_));
    }

    sim::EventQueue &queue() { return eq_; }

  private:
    /** Time a call into the Cloud API on the host clock. */
    template <typename Fn>
    auto
    api(Fn &&fn)
    {
        struct Timer
        {
            ChurnWorld &w;
            HostSpans::Clock::time_point t0;
            ~Timer()
            {
                const auto t = w.spans_.add("host.run.cloud_api_s", t0);
                w.lt_.apiHostUs.push_back(
                    std::chrono::duration<double, std::micro>(t - t0)
                        .count());
            }
        } timer{*this, HostSpans::Clock::now()};
        return fn();
    }

    /** Ask for a canary of the next version unless one is still
     *  deploying. */
    void
    rollOut()
    {
        if (!canaryPending_ && current_ + 1 < versions_.size())
            wantCanary_ = true;
        if (submitted_ < kLeases)
            eq_.schedule(kVersionEvery, [this]() { rollOut(); });
    }

    void
    arrive()
    {
        if (submitted_ >= kLeases)
            return;
        ++submitted_;
        auto tr = std::make_unique<Tracked>();
        if (wantCanary_) {
            wantCanary_ = false;
            canaryPending_ = true;
            tr->canary = true;
            tr->version = current_ + 1;
            tr->image = versions_[tr->version].first;
            tr->base = versions_[tr->version].second;
        } else if (!overlays_.empty() && rng_.uniform() < kOverlayShare) {
            // A returning tenant re-leases one of the saved overlays.
            const auto &ov =
                overlays_[rng_.uniformInt(0, overlays_.size() - 1)];
            tr->image = ov.first;
            tr->base = ov.second;
            tr->overlayImage = true;
        } else {
            tr->version = current_;
            tr->image = versions_[current_].first;
            tr->base = versions_[current_].second;
        }
        tr->lifetime = static_cast<sim::Tick>(
            rng_.exponential(kMeanLifetimeSec) * double(sim::kSec));
        cloud::LeaseRequest rq;
        rq.image = tr->image;
        rq.tenant = static_cast<cloud::TenantId>(
            1 + rng_.uniformInt(0, kTenants - 1));
        rq.qos = rq.tenant == 1   ? cloud::QosClass::Critical
                 : rq.tenant == 4 ? cloud::QosClass::Scavenger
                                  : cloud::QosClass::Standard;
        Tracked *raw = tr.get();
        tracked_.push_back(std::move(tr));
        raw->lease = api([&]() {
            return cloud_->submitLease(
                rq, [this, raw](bmcast::Instance &inst) { onServing(*raw, inst); });
        });
        raw->rec.requested = raw->lease->submittedAt();

        const auto gap = static_cast<sim::Tick>(
            rng_.exponential(1.0 / kArrivalsPerSec) * double(sim::kSec));
        eq_.schedule(std::max<sim::Tick>(gap, 1), [this]() { arrive(); });
    }

    void
    onServing(Tracked &tr, bmcast::Instance &inst)
    {
        tr.inst = &inst;
        initiators_.push_back(inst.deployer().vmm().initiator().name());
        startProbe(tr);
    }

    /** A fresh probe on the instance's current guest (a migration
     *  hands the instance a new guest object). */
    void
    startProbe(Tracked &tr)
    {
        if (tr.probe)
            retiredProbes_.push_back(std::move(tr.probe));
        tr.probe = std::make_unique<ServingProbe>(
            eq_, tr.inst->guest().blk(), serving_,
            sim::Rng::seedForShard("probe", seed_, probes_++),
            kImageSectors, 50 * sim::kMs, kProbeLimit, tr.base);
        tr.probe->start();
    }

    bool
    diskMatches(Tracked &tr)
    {
        return cloud_->storeFabric()->catalog().verifyDisk(
            tr.image, tr.inst->machine().disk().store());
    }

    /** Record the deployment and tally the node; release it unless
     *  the run is ending. */
    void
    retire(Tracked &tr, bool release)
    {
        const auto &tl = tr.inst->deployer().timeline();
        tr.rec.serving = tl.guestBootDone;
        tr.rec.bareMetal = tl.bareMetal;
        tr.verified = diskMatches(tr);
        tr.rec.ok = tl.bareMetal != 0 && tr.verified;
        store::ChunkStreamer *cs = tr.inst->deployer().vmm().streamer();
        if (tr.overlayImage || (cs && cs->peerHits() > 0))
            ++lt_.warmDeploys;
        lt_.addNode(tr.inst->machine(), tr.inst->guest(),
                    tr.inst->deployer());
        if (!release)
            return;
        tr.released = true;
        if (++releases_ % kOverlayEvery == 0) {
            std::string name = "ovl-" + std::to_string(overlays_.size());
            overlays_.emplace_back(name, tr.base);
            api([&]() {
                cloud_->releaseToOverlay(*tr.inst, name);
                return 0;
            });
        } else {
            api([&]() {
                cloud_->releaseLease(*tr.lease);
                return 0;
            });
        }
    }

    void
    supervise()
    {
        for (auto &trp : tracked_) {
            Tracked &tr = *trp;
            if (tr.released || !tr.inst)
                continue;
            if (tr.migrating) {
                migrate::MigrationManager *m = tr.inst->migration();
                if (!m->finished())
                    continue;
                tr.migrating = false;
                startProbe(tr);
                const migrate::MigrateStats &st = m->stats();
                if (st.aborted) {
                    ++lt_.migrateAborted;
                } else {
                    ++lt_.migrations;
                    lt_.downtimeMs.push_back(sim::toMillis(st.downtime));
                    if (!diskMatches(tr))
                        ++migrateMismatch_;
                }
                lt_.migrateRounds += st.rounds;
                lt_.migrateShipped += st.bytesShipped;
            }
            const bool bare =
                tr.inst->state() == bmcast::Instance::State::BareMetal &&
                tr.lease->state() == cloud::LeaseState::Serving;
            if (bare && tr.canary && canaryPending_ &&
                tr.version == current_ + 1) {
                current_ = tr.version;
                canaryPending_ = false;
            }
            if (bare && !tr.migrating &&
                eq_.now() >= tr.lease->servingAt() + tr.lifetime) {
                tr.probe->stop();
                if (tr.probe->quiet())
                    retire(tr, true);
            }
        }
        if (!finished())
            eq_.schedule(kSupervise, [this]() { supervise(); });
    }

    /** Live-migrate the longest-lived eligible lease to a free slot
     *  in another rack, if the region has one. */
    void
    migrateOne()
    {
        if (submitted_ < kLeases)
            eq_.schedule(kMigrateEvery, [this]() { migrateOne(); });
        std::set<unsigned> busy;
        for (const auto &tr : tracked_) {
            const cloud::LeaseState s = tr->lease->state();
            if (s == cloud::LeaseState::Released ||
                s == cloud::LeaseState::Rejected ||
                s == cloud::LeaseState::Queued)
                continue;
            busy.insert(tr->lease->slot());
            if (s == cloud::LeaseState::Migrating)
                busy.insert(tr->lease->migratingTo());
        }
        for (auto &trp : tracked_) {
            Tracked &tr = *trp;
            if (tr.released || !tr.inst || tr.migrating ||
                tr.inst->migration() ||
                tr.inst->state() != bmcast::Instance::State::BareMetal ||
                tr.lease->state() != cloud::LeaseState::Serving)
                continue;
            // The guest's storage must be idle before re-virtualizing:
            // pause the tenant's requests and try again next period.
            tr.probe->stop();
            if (!tr.probe->quiet())
                return;
            // A slot whose previous tenant migrated away may still be
            // scrubbing: the plane refuses it (DestBusy) and the next
            // candidate is tried.
            for (unsigned slot = 0; slot < kMachines; ++slot) {
                if (busy.count(slot) ||
                    cloud_->rackOf(slot) == tr.lease->rack())
                    continue;
                cloud::MigrateReject r = api(
                    [&]() { return cloud_->migrate(*tr.inst, slot); });
                if (r == cloud::MigrateReject::None) {
                    ++migrateAttempts_;
                    tr.migrating = true;
                    return;
                }
            }
            return; // no free slot elsewhere: try next period
        }
    }

    sim::EventQueue eq_;
    sim::Rng rng_;
    std::uint64_t seed_;
    HostSpans &spans_;
    std::unique_ptr<bmcast::Cloud> cloud_;
    std::vector<std::unique_ptr<Tracked>> tracked_;
    std::vector<std::pair<std::string, std::uint64_t>> versions_;
    std::vector<std::pair<std::string, std::uint64_t>> overlays_;
    /** Probes a migration replaced: a pending think-time event may
     *  still call into them. */
    std::vector<std::unique_ptr<ServingProbe>> retiredProbes_;
    std::vector<std::string> initiators_;
    ServingStats serving_;
    LayerTally lt_;
    unsigned current_ = 0;
    bool wantCanary_ = false;
    bool canaryPending_ = false;
    unsigned submitted_ = 0;
    unsigned probes_ = 0;
    unsigned releases_ = 0;
    bool crashed_ = false;
    std::uint64_t migrateAttempts_ = 0;
    std::uint64_t migrateMismatch_ = 0;
};

} // namespace

void
runLeaseChurn(const RunOptions &o, Report &rep)
{
    Timed timed(rep);
    ObsSession obs(o.trace);
    ChurnWorld w(o, timed.spans);
    obs.attach(w.queue());
    timed.setupDone();
    w.run();
    timed.runDone();
    w.report(rep, obs);
}

} // namespace perfbench
