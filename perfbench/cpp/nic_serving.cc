/**
 * @file
 * nic_serving: serving cells on one shared, exitless-mediated NIC.
 *
 * In each cell a serving guest answers RPCs from an open-loop,
 * seeded Poisson source at a fixed offered rate; each RPC is timed
 * from its due time. The guest's NIC is shared through
 * netmed::NetMediationCore in Exitless mode (doorbell page + sidecore
 * poll loop) with the VMM's AoE heartbeat and three tenant guests: a
 * token-bucket-limited flooder and a DRR weight-1/weight-2 pair,
 * all offering load while the RPCs run. Neighbour nodes on the
 * cell's LAN deploy with BMcast from the cell's seed server through
 * the congestion controller's deployment lane, in staggered arrivals;
 * the RPC window spans their deployments.
 */

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aoe/initiator.hh"
#include "aoe/protocol.hh"
#include "cloud/congestion.hh"
#include "hw/e1000_driver.hh"
#include "hw/nic_doorbell.hh"
#include "netmed/net_mediation_core.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

constexpr unsigned kCells = 4;
constexpr unsigned kNeighbors = 28;
constexpr sim::Bytes kImageBytes = 8 * sim::kMiB;
constexpr sim::Lba kImageSectors = kImageBytes / sim::kSectorSize;
constexpr sim::Tick kStagger = 100 * sim::kMs;
constexpr sim::Tick kServeAt = 200 * sim::kMs;
constexpr double kRpcPerSec = 2000.0;
constexpr sim::Tick kRpcLimit = 50 * sim::kMs;
constexpr sim::Tick kPoll = 10 * sim::kUs;
constexpr sim::Tick kDeadline = 60 * sim::kSec;

constexpr net::MacAddr kServerMac = 0x525400000001ULL;
constexpr net::MacAddr kCellGuestMac = 0x525400000010ULL;
constexpr net::MacAddr kCellMgmtMac = 0x525400000011ULL;
constexpr net::MacAddr kPeerMac = 0x42;
constexpr net::MacAddr kTenantMacBase = 0x5254000000A0ULL;
constexpr sim::Addr kVirtNicBase = 0xFEC00000;
constexpr std::uint16_t kServeEther = 0x88B5;
constexpr std::uint16_t kFloodEther = 0x88B6;
constexpr unsigned kTenants = 3;

struct Cell
{
    Cell(sim::EventQueue &eq_, unsigned idx_, std::uint64_t seed,
         HostSpans &spans)
        : eq(eq_), idx(idx_),
          lan(eq, "cell" + std::to_string(idx) + ".lan", 4 * sim::kUs,
              sim::Rng::seedForShard("lan", seed, idx)),
          rng(sim::Rng::seedForShard("rpc", seed, idx))
    {
        auto t = HostSpans::Clock::now();
        serverPort = &lan.attach(kServerMac,
                                 net::PortConfig{1e9, 9000, 0.0});
        peer = &lan.attach(kPeerMac);
        peer->onReceive([this](const net::Frame &f) {
            if (f.etherType != kServeEther)
                return; // tenant flood terminates here
            net::Frame reply;
            reply.dst = f.src;
            reply.etherType = kServeEther;
            reply.payload = f.payload;
            peer->send(std::move(reply));
        });
        t = spans.add("host.setup.net_s", t);
        aoe::ServerParams sp;
        sp.workers = 8;
        sp.cacheHitRate = 0.9;
        server = std::make_unique<aoe::AoeServer>(eq, n("seed"),
                                                  *serverPort, sp);
        server->addTarget(0, 0, kImageSectors, kImageBase);
        t = spans.add("host.setup.aoe_s", t);

        hw::MachineConfig mc;
        mc.name = n("serve");
        mc.hasInfiniBand = false;
        mc.seed = sim::Rng::seedForShard("serve", seed, idx);
        machine = std::make_unique<hw::Machine>(
            eq, mc, lan, kCellGuestMac, lan, kCellMgmtMac);
        vmmArena = std::make_unique<hw::MemArena>(0x78000000,
                                                  128 * sim::kMiB);
        t = spans.add("host.setup.hw_s", t);

        cloud::CongestionParams cp;
        cp.enabled = true;
        cp.linkShare = 0.7;
        cp.tenantShare = 0.5;
        cp.rackLinkBps = 1e9;
        cp.servingShare = 0.3;
        ctl = std::make_unique<cloud::CongestionController>(cp, 1);
        t = spans.add("host.setup.cloud_s", t);

        buildNicPath();
        t = spans.add("host.setup.netmed_s", t);

        for (unsigned i = 0; i < kNeighbors; ++i) {
            DeployNode::Spec ns;
            ns.name = n("nb") + "." + std::to_string(i);
            ns.lan = &lan;
            ns.mac = 0x525400100000ULL + i;
            ns.mgmtMac = 0x525400200000ULL + i;
            ns.server = kServerMac;
            ns.imageSectors = kImageSectors;
            ns.machineSeed = sim::Rng::seedForShard(ns.name, seed, idx);
            ns.guestSeed =
                sim::Rng::seedForShard(ns.name + ".guest", seed, idx);
            ns.vmm = fastVmmParams();
            auto nb = std::make_unique<DeployNode>(eq, ns, spans);
            nb->dep->setRateGate(ctl->gateFor(0, i));
            neighbors.push_back(std::move(nb));
        }
        scheduleLoad(seed);
    }

    std::string
    n(const char *what) const
    {
        return "cell" + std::to_string(idx) + "." + what;
    }

    hw::MemArena *
    nextArena()
    {
        arenas.push_back(std::make_unique<hw::MemArena>(
            32 * sim::kMiB + sim::Addr(arenas.size()) * 16 * sim::kMiB,
            16 * sim::kMiB));
        return arenas.back().get();
    }

    void
    buildNicPath()
    {
        core = std::make_unique<netmed::NetMediationCore>(
            eq, n("netmed"), machine->bus(), machine->mem(),
            machine->guestNic(), *vmmArena, netmed::MedMode::Exitless,
            aoe::kEtherType);
        netmed::NetMediationCore::GuestConfig g0;
        g0.qos.weight = 4;
        g0.doorbell = vmmArena->alloc(hw::nicdb::kPageSize, 64);
        g0.intc = &machine->intc();
        g0.irqVector = hw::kGuestNicIrq;
        core->addGuest(g0);
        std::vector<netmed::NetMediationCore::GuestConfig> cfgs;
        std::vector<unsigned> slots;
        for (unsigned t = 1; t <= kTenants; ++t) {
            netmed::NetMediationCore::GuestConfig g;
            g.windowBase =
                kVirtNicBase + sim::Addr(t - 1) * hw::e1000::kMmioSize;
            g.mac = kTenantMacBase + t;
            g.intc = &machine->intc();
            g.irqVector = 16 + t;
            if (t == 1) {
                g.qos.rateBps = 16e6;
                g.qos.burstBytes = 16 * sim::kKiB;
            } else {
                g.qos.weight = t == 3 ? 2 : 1;
            }
            g.doorbell = vmmArena->alloc(hw::nicdb::kPageSize, 64);
            cfgs.push_back(g);
            slots.push_back(core->addGuest(g));
        }
        core->setGuestGate(0, ctl->servingGateFor(0, 0));
        core->install();

        servingDrv = std::make_unique<hw::E1000Driver>(
            eq, n("gdrv"), hw::BusView(machine->bus(), true),
            machine->guestNic(), machine->mem(), *nextArena(),
            hw::E1000Driver::Mode::Interrupt, &machine->intc(),
            hw::kGuestNicIrq);
        servingDrv->attachDoorbell(core->guestPort(0).doorbellPage());
        servingDrv->setRxHandler(
            [this](const net::Frame &f) { onReply(f); });
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            auto d = std::make_unique<hw::E1000Driver>(
                eq, n("tdrv") + "." + std::to_string(i),
                hw::BusView(machine->bus(), true), cfgs[i].windowBase,
                cfgs[i].mac, 1500, machine->mem(), *nextArena(),
                hw::E1000Driver::Mode::Interrupt, &machine->intc(),
                cfgs[i].irqVector);
            d->attachDoorbell(core->guestPort(slots[i]).doorbellPage());
            tenantDrvs.push_back(std::move(d));
        }
        hb = std::make_unique<aoe::AoeInitiator>(eq, n("hb"), *core,
                                                 kServerMac);
    }

    void
    scheduleLoad(std::uint64_t seed)
    {
        sim::Rng arrivals(sim::Rng::seedForShard("arrivals", seed, idx));
        for (auto &nbp : neighbors) {
            DeployNode *nb = nbp.get();
            const auto i = static_cast<sim::Tick>(&nbp - &neighbors[0]);
            nb->rec.requested =
                1 + i * kStagger + arrivals.uniformInt(0, kStagger);
            eq.scheduleAt(nb->rec.requested, [this, nb]() {
                nb->dep->onBareMetal([this]() { ++deployed; });
                nb->dep->run([]() {});
            });
        }
        eq.schedule(0, [this]() {
            pollLoop();
            hbLoop();
        });
        eq.scheduleAt(kServeAt, [this]() {
            servingFrom = eq.now();
            exitsAtStart = nicWindowExits();
            nextRpc(eq.now());
            tenantLoop();
        });
    }

    /** Every neighbour is at bare metal; no more RPCs are issued. */
    bool finished() const { return deployed == neighbors.size(); }

    /** Finished, and every RPC answered or given up on: a reply still
     *  missing kRpcLimit after the last due time is lost. */
    bool
    drained() const
    {
        return finished() &&
               (inflight.empty() || eq.now() > lastDue + kRpcLimit);
    }

    void
    pollLoop()
    {
        core->poll();
        if (!drained())
            eq.schedule(kPoll, [this]() { pollLoop(); });
    }

    void
    hbLoop()
    {
        if (finished())
            return;
        hb->readSectors(64 + (hbSeq++ % 64) * 2, 2, [](const auto &) {});
        eq.schedule(10 * sim::kMs, [this]() { hbLoop(); });
    }

    void
    sendFlood(hw::E1000Driver &drv, std::uint8_t marker)
    {
        net::Frame f;
        f.dst = kPeerMac;
        f.etherType = kFloodEther;
        f.payload.assign(1000, marker);
        drv.sendFrame(std::move(f));
    }

    /** Tenant load while RPCs run: the bucket tenant offers 32 KiB
     *  bursts (~13 Mb/s) against a 16 Mb/s bucket 16 KiB deep, so
     *  each burst is throttled; the weighted pair offers ~5 Mb/s
     *  each. */
    void
    tenantLoop()
    {
        if (finished())
            return;
        for (unsigned i = 0; i < 32; ++i)
            sendFlood(*tenantDrvs[0], 0xB1);
        for (unsigned i = 0; i < 12; ++i) {
            sendFlood(*tenantDrvs[1], 0x11);
            sendFlood(*tenantDrvs[2], 0x22);
        }
        eq.schedule(20 * sim::kMs, [this]() { tenantLoop(); });
    }

    /** Open loop: the next RPC is due an exponential gap after the
     *  previous due time, whatever the replies do. */
    void
    nextRpc(sim::Tick due)
    {
        if (finished()) {
            serving.activeTicks = eq.now() - servingFrom;
            return;
        }
        const std::uint64_t id = nextId++;
        inflight[id] = due;
        lastDue = due;
        ++serving.issued;
        net::Frame f;
        f.dst = kPeerMac;
        f.etherType = kServeEther;
        f.payload.assign(256, 0);
        for (unsigned b = 0; b < 8; ++b)
            f.payload[b] = static_cast<std::uint8_t>(id >> (8 * b));
        servingDrv->sendFrame(std::move(f));
        const auto gap = static_cast<sim::Tick>(
            rng.exponential(1.0 / kRpcPerSec) * double(sim::kSec));
        const sim::Tick at = due + std::max<sim::Tick>(gap, 1);
        eq.scheduleAt(at, [this, at]() { nextRpc(at); });
    }

    void
    onReply(const net::Frame &f)
    {
        if (f.etherType != kServeEther || f.payload.size() < 8)
            return;
        std::uint64_t id = 0;
        for (unsigned b = 0; b < 8; ++b)
            id |= std::uint64_t(f.payload[b]) << (8 * b);
        auto it = inflight.find(id);
        if (it == inflight.end()) {
            ++serving.wrong;
            return;
        }
        const sim::Tick lat = eq.now() - it->second;
        inflight.erase(it);
        ++serving.completed;
        serving.latencyUs.push_back(sim::toMicros(lat));
        if (lat > kRpcLimit)
            ++serving.late;
    }

    std::uint64_t
    nicWindowExits() const
    {
        return machine->bus().interceptedIn(
            hw::IoSpace::Mmio, hw::kGuestNicMmio, hw::e1000::kMmioSize);
    }

    sim::EventQueue &eq;
    unsigned idx;
    net::Network lan;
    sim::Rng rng;
    net::Port *serverPort = nullptr;
    net::Port *peer = nullptr;
    std::unique_ptr<aoe::AoeServer> server;
    std::unique_ptr<hw::Machine> machine;
    std::unique_ptr<hw::MemArena> vmmArena;
    std::vector<std::unique_ptr<hw::MemArena>> arenas;
    std::unique_ptr<cloud::CongestionController> ctl;
    std::unique_ptr<netmed::NetMediationCore> core;
    std::unique_ptr<hw::E1000Driver> servingDrv;
    std::vector<std::unique_ptr<hw::E1000Driver>> tenantDrvs;
    std::unique_ptr<aoe::AoeInitiator> hb;
    std::vector<std::unique_ptr<DeployNode>> neighbors;

    unsigned deployed = 0;
    std::uint64_t hbSeq = 0;
    std::uint64_t nextId = 1;
    std::map<std::uint64_t, sim::Tick> inflight;
    sim::Tick lastDue = 0;
    ServingStats serving;
    sim::Tick servingFrom = 0;
    std::uint64_t exitsAtStart = 0;
};

class NicWorld
{
  public:
    NicWorld(const RunOptions &o, HostSpans &spans)
    {
        for (unsigned c = 0; c < kCells; ++c)
            cells_.push_back(
                std::make_unique<Cell>(eq_, c, o.seed, spans));
    }

    bool
    deployed() const
    {
        for (const auto &c : cells_)
            if (!c->finished())
                return false;
        return true;
    }

    bool
    drained() const
    {
        for (const auto &c : cells_)
            if (!c->drained())
                return false;
        return true;
    }

    void
    run(HostSpans &spans)
    {
        auto t = HostSpans::Clock::now();
        while (!drained() && eq_.now() < kDeadline && !eq_.empty()) {
            eq_.runUntil(eq_.now() + sim::kSec);
            t = spans.add("host.run.event_queue_s", t);
        }
    }

    void
    report(Report &rep, ObsSession &obs)
    {
        std::vector<DeployRecord> recs;
        ServingStats serving;
        LayerTally lt;
        std::vector<std::string> initiators;
        sim::Bytes backbone = 0;
        bool intact = true;
        lt.addQueue(eq_.counters());
        for (auto &c : cells_) {
            lt.addNet(c->lan);
            lt.addServer(*c->server, *c->serverPort);
            backbone += c->server->dataBytesOut();
            for (auto &nb : c->neighbors) {
                intact = nb->finish(lt, initiators) && intact;
                recs.push_back(nb->rec);
            }
            initiators.push_back(c->hb->name());
            serving.merge(c->serving);

            const netmed::NetMedStats &ns = c->core->stats();
            lt.nmPolls += ns.polls;
            lt.nmFrames += ns.guestTx + ns.guestRx + ns.vmmTx + ns.vmmRx;
            lt.nmCopies += ns.copies;
            lt.nmThrottled += ns.txThrottled;
            lt.nmNoBuffer += ns.rxNoBuffer;
            lt.nicExits += c->nicWindowExits() - c->exitsAtStart;
            lt.rpcs += c->serving.completed;
            lt.vmExits += c->machine->vmx().totalExits();
            lt.guestAccesses += c->machine->bus().guestAccesses();
            lt.intercepted += c->machine->bus().interceptedAccesses();
            lt.aoeRequests += c->hb->requestsIssued();
            lt.aoeRetx += c->hb->retransmissions();
        }
        rep.check("every_disk_has_golden_image", intact);
        rep.check("every_neighbor_reached_bare_metal", deployed());
        emitDeployMetrics(rep, recs, backbone);
        emitServingMetrics(rep, serving);
        lt.emit(rep);
        obs.emit(rep, initiators);
        rep.setFingerprint(fingerprintOf(
            sim::fingerprintMix(sim::kFingerprintSeed, eq_.executed()),
            recs, serving));
    }

    sim::EventQueue &queue() { return eq_; }

  private:
    sim::EventQueue eq_;
    std::vector<std::unique_ptr<Cell>> cells_;
};

} // namespace

void
runNicServing(const RunOptions &o, Report &rep)
{
    Timed timed(rep);
    ObsSession obs(o.trace);
    NicWorld w(o, timed.spans);
    obs.attach(w.queue());
    timed.setupDone();
    w.run(timed.spans);
    timed.runDone();
    w.report(rep, obs);
}

} // namespace perfbench
