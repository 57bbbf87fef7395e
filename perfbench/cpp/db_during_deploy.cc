/**
 * @file
 * db_during_deploy: the paper's Fig. 5 at fleet scale. Database
 * instances serve a closed-loop YCSB-style load from the moment
 * their guest is up until BMcast de-virtualizes them, while the
 * image streams in underneath with moderation on.
 *
 * Half the instances are read-heavy (95/5, memcached model), half
 * write-heavy (30/70, Cassandra model whose commit-log flushes go
 * through the guest's block driver into the second half of the image,
 * racing the background copy for blocks it has not filled yet). One
 * serial EventQueue; eight LAN segments, each with its own seed
 * server.
 */

#include <memory>
#include <string>
#include <vector>

#include "workloads.hh"
#include "workloads/ycsb.hh"

namespace perfbench {

namespace {

constexpr unsigned kSegments = 8;
constexpr unsigned kInstances = 112;
constexpr unsigned kThreads = 2;
constexpr sim::Tick kThink = 4 * sim::kMs;
constexpr sim::Bytes kImageBytes = 16 * sim::kMiB;
constexpr sim::Tick kStagger = 25 * sim::kMs;
constexpr sim::Tick kDeadline = 4000 * sim::kSec;
constexpr sim::Lba kImageSectors = kImageBytes / sim::kSectorSize;

/** Forwards to the guest's driver, counts the writes the database
 *  issues (its commit-log flushes) and records what they wrote. */
class CountingDriver : public guest::BlockDriver
{
  public:
    CountingDriver(guest::BlockDriver &inner, hw::DiskStore &written)
        : inner_(inner), written_(written)
    {
    }

    void
    read(sim::Lba lba, std::uint32_t count, guest::ReadDone done) override
    {
        inner_.read(lba, count, std::move(done));
    }
    void
    write(sim::Lba lba, std::uint32_t count, std::uint64_t base,
          guest::WriteDone done) override
    {
        ++writes_;
        written_.write(lba, count, base);
        inner_.write(lba, count, base, std::move(done));
    }
    bool idle() const override { return inner_.idle(); }
    std::uint64_t opsCompleted() const override
    {
        return inner_.opsCompleted();
    }
    sim::Tick totalLatency() const override
    {
        return inner_.totalLatency();
    }

    std::uint64_t writes() const { return writes_; }

  private:
    guest::BlockDriver &inner_;
    hw::DiskStore &written_;
    std::uint64_t writes_ = 0;
};

/** A deployed database node and its closed-loop client state. */
struct Instance : DeployNode
{
    using DeployNode::DeployNode;
    std::unique_ptr<CountingDriver> blk;
    std::unique_ptr<workloads::DbInstance> db;
    sim::Rng rng{1};
    double readFraction = 0.95;
    bool running = false;
    sim::Tick startedAt = 0;
};

class DbWorld
{
  public:
    DbWorld(const RunOptions &o, HostSpans &spans)
    {
        auto t = HostSpans::Clock::now();
        for (unsigned s = 0; s < kSegments; ++s) {
            lans_.push_back(std::make_unique<net::Network>(
                eq_, "seg" + std::to_string(s), 4 * sim::kUs,
                sim::Rng::seedForShard("seg", o.seed, s)));
            serverPorts_.push_back(&lans_.back()->attach(
                serverMac(s), net::PortConfig{1e9, 9000, 0.0}));
            t = spans.add("host.setup.net_s", t);
            aoe::ServerParams sp;
            sp.workers = 8;
            sp.cacheHitRate = 0.9;
            servers_.push_back(std::make_unique<aoe::AoeServer>(
                eq_, "seg" + std::to_string(s) + ".seed",
                *serverPorts_.back(), sp));
            servers_.back()->addTarget(0, 0, kImageSectors, kImageBase);
            t = spans.add("host.setup.aoe_s", t);
        }

        bmcast::VmmParams vp = fastVmmParams();
        vp.moderation = bmcast::ModerationParams{}; // paper defaults
        for (unsigned i = 0; i < kInstances; ++i) {
            const unsigned s = i % kSegments;
            DeployNode::Spec ns;
            ns.name = "db" + std::to_string(i);
            ns.lan = lans_[s].get();
            ns.mac = 0x5254000100ULL + i;
            ns.mgmtMac = 0x5254000200ULL + i;
            ns.server = serverMac(s);
            ns.imageSectors = kImageSectors;
            ns.machineSeed = sim::Rng::seedForShard("machine", o.seed, i);
            ns.guestSeed = sim::Rng::seedForShard("guest", o.seed, i);
            ns.vmm = vp;
            auto in = std::make_unique<Instance>(eq_, ns, spans);
            t = HostSpans::Clock::now();

            const bool writeHeavy = i % 2 == 1;
            workloads::DbParams dp =
                writeHeavy ? workloads::cassandraParams(kImageSectors / 2)
                           : workloads::memcachedParams();
            dp.logSpan = kImageSectors / 2;
            // Scaled with the image: a 30/70 instance serves ~200
            // requests between guest-up and de-virtualization, so it
            // flushes about seven times. Much more often and the
            // guest's I/O keeps moderation suspending the copy for
            // tens of seconds.
            dp.opsPerFlush = 25;
            dp.flushBytes = 64 * sim::kKiB;
            in->readFraction = writeHeavy ? 0.30 : 0.95;
            in->rng = sim::Rng(sim::Rng::seedForShard("ycsb", o.seed, i));
            in->blk = std::make_unique<CountingDriver>(in->guest->blk(),
                                                       in->written);
            in->db = std::make_unique<workloads::DbInstance>(
                eq_, ns.name + ".db", *in->machine, in->blk.get(), dp);
            t = spans.add("host.setup.workloads_s", t);
            instances_.push_back(std::move(in));
        }

        sim::Rng arrivals(sim::Rng::seedFrom("arrivals", o.seed));
        for (unsigned i = 0; i < kInstances; ++i) {
            Instance *in = instances_[i].get();
            in->rec.requested =
                1 + i * kStagger + arrivals.uniformInt(0, kStagger);
            eq_.scheduleAt(in->rec.requested, [this, in]() {
                in->dep->onBareMetal([this, in]() {
                    stopLoad(*in);
                    ++done_;
                });
                in->dep->run([this, in]() {
                    if (!in->dep->bareMetalReached())
                        startLoad(*in);
                });
            });
        }
    }

    void
    run(HostSpans &spans)
    {
        auto t = HostSpans::Clock::now();
        while (done_ < kInstances && eq_.now() < kDeadline && !eq_.empty()) {
            eq_.runUntil(eq_.now() + sim::kSec);
            t = spans.add("host.run.event_queue_s", t);
        }
    }

    void
    report(Report &rep, ObsSession &obs)
    {
        std::vector<DeployRecord> recs;
        LayerTally lt;
        std::vector<std::string> initiators;
        sim::Bytes backbone = 0;
        bool intact = true;
        lt.addQueue(eq_.counters());
        for (unsigned s = 0; s < kSegments; ++s) {
            lt.addNet(*lans_[s]);
            lt.addServer(*servers_[s], *serverPorts_[s]);
            backbone += servers_[s]->dataBytesOut();
        }
        std::uint64_t logWrites = 0;
        for (auto &in : instances_) {
            intact = in->finish(lt, initiators) && intact;
            recs.push_back(in->rec);
            logWrites += in->blk->writes();
        }
        lt.dbReadUs = readUs_;
        lt.dbWriteUs = writeUs_;
        lt.dbFlushes = logWrites;
        rep.check("every_disk_has_image_and_commit_log", intact);
        rep.check("every_instance_reached_bare_metal", done_ == kInstances);
        rep.check("db_latency_samples",
                  readUs_.size() >= minSamplesFor(0.99) &&
                      writeUs_.size() >= minSamplesFor(0.99));
        emitDeployMetrics(rep, recs, backbone);
        emitServingMetrics(rep, serving_);
        lt.emit(rep);
        obs.emit(rep, initiators);
        std::uint64_t h = sim::fingerprintMix(sim::kFingerprintSeed,
                                              eq_.executed());
        for (auto &in : instances_)
            h = sim::fingerprintMix(h, in->db->opsServed());
        rep.setFingerprint(fingerprintOf(h, recs, serving_));
    }

    sim::EventQueue &queue() { return eq_; }

  private:
    static net::MacAddr
    serverMac(unsigned s)
    {
        return 0x525400000001ULL + (net::MacAddr(s) << 24);
    }

    void
    startLoad(Instance &in)
    {
        in.running = true;
        in.startedAt = eq_.now();
        for (unsigned k = 0; k < kThreads; ++k)
            request(in);
    }

    void
    stopLoad(Instance &in)
    {
        if (in.running)
            serving_.activeTicks += eq_.now() - in.startedAt;
        in.running = false;
    }

    void
    request(Instance &in)
    {
        if (!in.running)
            return;
        const bool isRead = in.rng.uniform() < in.readFraction;
        const sim::Tick at = eq_.now();
        ++serving_.issued;
        in.db->request(isRead, [this, &in, isRead, at]() {
            const sim::Tick lat = eq_.now() - at;
            const double us = sim::toMicros(lat);
            ++serving_.completed;
            serving_.latencyUs.push_back(us);
            (isRead ? readUs_ : writeUs_).push_back(us);
            if (lat > kProbeLimit)
                ++serving_.late;
            eq_.schedule(kThink, [this, &in]() { request(in); });
        });
    }

    sim::EventQueue eq_;
    std::vector<std::unique_ptr<net::Network>> lans_;
    std::vector<net::Port *> serverPorts_;
    std::vector<std::unique_ptr<aoe::AoeServer>> servers_;
    std::vector<std::unique_ptr<Instance>> instances_;
    ServingStats serving_;
    std::vector<double> readUs_, writeUs_;
    unsigned done_ = 0;
};

} // namespace

void
runDbDuringDeploy(const RunOptions &o, Report &rep)
{
    Timed timed(rep);
    ObsSession obs(o.trace);
    DbWorld w(o, timed.spans);
    obs.attach(w.queue());
    timed.setupDone();
    w.run(timed.spans);
    timed.runDone();
    w.report(rep, obs);
}

} // namespace perfbench
