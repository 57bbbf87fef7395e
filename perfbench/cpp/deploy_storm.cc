/**
 * @file
 * deploy_storm: a rack-sharded region provisions every node with
 * BMcast in staggered arrivals until all are at bare metal.
 *
 * Each rack is a ToR segment with its own AoE seed server on its own
 * sim::ShardGroup queue; every 7th node deploys from the next rack's
 * seed, so AoE requests and data cross the rack uplinks (through the
 * group's mailboxes) both ways. Each tenant guest runs a serving
 * probe from guest-up until its own de-virtualization. Simulated
 * results are identical for any shard count.
 */

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "workloads.hh"

namespace perfbench {

namespace {

constexpr unsigned kRacks = 8;
constexpr unsigned kNodes = 128;
constexpr unsigned kRemoteEvery = 7;
constexpr sim::Bytes kImageBytes = 16 * sim::kMiB;
constexpr sim::Tick kStagger = 30 * sim::kMs;
constexpr sim::Tick kDeadline = 4000 * sim::kSec;
/** Background-copy pacing (one 1 MiB block per interval): the image
 *  lands well after the guest is up, as in the paper, without the
 *  seed servers saturating. */
constexpr sim::Tick kCopyInterval = 100 * sim::kMs;

net::MacAddr
serverMac(unsigned rack)
{
    return 0x525400000001ULL + (net::MacAddr(rack) << 24);
}
net::MacAddr
nodeMac(unsigned rack, unsigned i)
{
    return 0x525400100000ULL + (net::MacAddr(rack) << 24) + i;
}
net::MacAddr
mgmtMac(unsigned rack, unsigned i)
{
    return 0x525400200000ULL + (net::MacAddr(rack) << 24) + i;
}
unsigned
rackOfMac(net::MacAddr mac)
{
    return static_cast<unsigned>((mac >> 24) & 0xFF);
}

struct Node : DeployNode
{
    using DeployNode::DeployNode;
    std::unique_ptr<ServingProbe> probe;
};

/** Everything one rack's shard touches. */
struct Rack
{
    std::unique_ptr<net::Network> net;
    net::Port *serverPort = nullptr;
    std::unique_ptr<aoe::AoeServer> server;
    std::vector<std::unique_ptr<Node>> nodes;
    ServingStats serving;
    unsigned done = 0;
};

class StormWorld
{
  public:
    StormWorld(const RunOptions &o, HostSpans &spans)
        : group_(sim::ShardGroup::Params{kRacks, o.shards, sim::kMs,
                                         4096})
    {
        const sim::Lba sectors = kImageBytes / sim::kSectorSize;
        auto t = HostSpans::Clock::now();
        for (unsigned r = 0; r < kRacks; ++r) {
            auto rack = std::make_unique<Rack>();
            sim::EventQueue &eq = group_.rackQueue(r);
            rack->net = std::make_unique<net::Network>(
                eq, "rack" + std::to_string(r) + ".tor", 4 * sim::kUs,
                sim::Rng::seedForShard("tor", o.seed, r));
            net::Port &sp = rack->net->attach(
                serverMac(r), net::PortConfig{1e9, 9000, 0.0});
            rack->serverPort = &sp;
            rack->net->setUplink(
                [this, r](const net::Frame &f, sim::Tick depart) {
                    unsigned dst = rackOfMac(f.dst);
                    if (dst >= kRacks || dst == r)
                        return;
                    group_.postToRack(r, dst, depart + group_.window(),
                                      [net = racks_[dst]->net.get(), f]() {
                                          net->inject(f);
                                      });
                });
            t = spans.add("host.setup.net_s", t);
            aoe::ServerParams spar;
            spar.workers = 8;
            spar.cacheHitRate = 0.9;
            rack->server = std::make_unique<aoe::AoeServer>(
                eq, "rack" + std::to_string(r) + ".seed", sp, spar);
            rack->server->addTarget(0, 0, sectors, kImageBase);
            t = spans.add("host.setup.aoe_s", t);
            racks_.push_back(std::move(rack));
        }

        for (unsigned i = 0; i < kNodes; ++i) {
            const unsigned r = i % kRacks;
            Rack &rack = *racks_[r];
            sim::EventQueue &eq = group_.rackQueue(r);
            const auto slot = static_cast<unsigned>(rack.nodes.size());
            const std::string id = std::to_string(slot);
            DeployNode::Spec ns;
            ns.name = "rack" + std::to_string(r) + ".node" + id;
            ns.lan = rack.net.get();
            ns.mac = nodeMac(r, slot);
            ns.mgmtMac = mgmtMac(r, slot);
            ns.server = serverMac(i % kRemoteEvery == 0 ? (r + 1) % kRacks
                                                        : r);
            ns.imageSectors = sectors;
            ns.machineSeed = sim::Rng::seedForShard("machine" + id, o.seed, r);
            ns.guestSeed = sim::Rng::seedForShard("guest" + id, o.seed, r);
            ns.vmm = fastVmmParams();
            ns.vmm.moderation.vmmWriteInterval = kCopyInterval;
            auto node = std::make_unique<Node>(eq, ns, spans);
            t = HostSpans::Clock::now();
            node->probe = std::make_unique<ServingProbe>(
                eq, node->guest->blk(), rack.serving,
                sim::Rng::seedForShard("probe" + std::to_string(slot),
                                       o.seed, r),
                sectors, 5 * sim::kMs, kProbeLimit);
            t = spans.add("host.setup.workloads_s", t);
            rack.nodes.push_back(std::move(node));
        }

        // Staggered arrivals on a fixed cadence, in the round-robin
        // order placement filled the racks.
        for (unsigned i = 0; i < kNodes; ++i) {
            Rack &rack = *racks_[i % kRacks];
            Node *n = rack.nodes[i / kRacks].get();
            n->rec.requested = 1 + i * kStagger;
            Rack *rk = &rack;
            group_.rackQueue(i % kRacks)
                .scheduleAt(n->rec.requested, [n, rk]() {
                    n->dep->onBareMetal([n, rk]() {
                        n->probe->stop();
                        ++rk->done;
                    });
                    n->dep->run([n]() {
                        if (!n->dep->bareMetalReached())
                            n->probe->start();
                    });
                });
        }
        spans.add("host.setup.workloads_s", t);
    }

    bool
    allDone() const
    {
        for (const auto &r : racks_) {
            if (r->done != r->nodes.size())
                return false;
            for (const auto &n : r->nodes)
                if (!n->probe->quiet() || !n->guest->isReady())
                    return false;
        }
        return true;
    }

    void
    run(HostSpans &spans)
    {
        auto t = HostSpans::Clock::now();
        while (!allDone() && group_.committed() < kDeadline) {
            group_.run(group_.committed() + sim::kSec);
            t = spans.add("host.run.shard_group_s", t);
        }
    }

    void
    report(Report &rep, ObsSession &obs)
    {
        std::vector<DeployRecord> recs;
        ServingStats serving;
        LayerTally lt;
        sim::Bytes backbone = 0;
        std::vector<std::string> initiators;
        bool intact = true;
        lt.addGroup(group_);
        for (auto &rack : racks_) {
            lt.addNet(*rack->net);
            lt.addServer(*rack->server, *rack->serverPort);
            backbone += rack->server->dataBytesOut();
            serving.merge(rack->serving);
            for (auto &n : rack->nodes) {
                intact = n->finish(lt, initiators) && intact;
                recs.push_back(n->rec);
            }
        }
        rep.check("every_disk_has_golden_image", intact);
        rep.check("every_node_reached_bare_metal", allDone());
        emitDeployMetrics(rep, recs, backbone);
        emitServingMetrics(rep, serving);
        lt.emit(rep);
        obs.emit(rep, initiators);
        rep.setFingerprint(fingerprintOf(
            sim::fingerprintMix(sim::kFingerprintSeed,
                                group_.totalExecuted()),
            recs, serving));
    }

    sim::ShardGroup &group() { return group_; }

  private:
    sim::ShardGroup group_;
    std::vector<std::unique_ptr<Rack>> racks_;
};

} // namespace

void
runDeployStorm(const RunOptions &o, Report &rep)
{
    Timed timed(rep);
    ObsSession obs(o.trace);
    StormWorld w(o, timed.spans);
    obs.attach(w.group());
    timed.setupDone();
    w.run(timed.spans);
    timed.runDone();
    w.report(rep, obs);
}

} // namespace perfbench
