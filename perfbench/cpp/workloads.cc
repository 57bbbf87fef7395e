#include "workloads.hh"

#include <cstdio>
#include <cstdlib>

namespace perfbench {

namespace {

/** Every host span a world may record; unrecorded ones print 0. */
const char *const kSpanNames[] = {
    "host.setup.net_s",      "host.setup.aoe_s",
    "host.setup.hw_s",       "host.setup.guest_s",
    "host.setup.bmcast_s",   "host.setup.netmed_s",
    "host.setup.workloads_s", "host.setup.cloud_s",
    "host.run.shard_group_s", "host.run.event_queue_s",
    "host.run.cloud_api_s",
};

} // namespace

guest::BootTrace
smallBootTrace()
{
    guest::BootTrace b;
    b.loaderBytes = 256 * sim::kKiB;
    b.kernelBytes = 1 * sim::kMiB;
    b.numReads = 40;
    b.avgReadBytes = 8 * sim::kKiB;
    b.seqFraction = 0.35;
    b.cpuTotal = 400 * sim::kMs;
    b.regionBytes = 4 * sim::kMiB;
    return b;
}

bmcast::VmmParams
fastVmmParams()
{
    bmcast::VmmParams p;
    p.bootTime = 500 * sim::kMs;
    p.moderation.vmmWriteInterval = 2 * sim::kMs;
    p.moderation.guestIoFreqThreshold = 1e9;
    return p;
}

DeployNode::DeployNode(sim::EventQueue &eq, const Spec &s, HostSpans &spans)
    : imageSectors(s.imageSectors)
{
    auto t = HostSpans::Clock::now();
    hw::MachineConfig mc;
    mc.name = s.name;
    mc.storage = hw::StorageKind::Ahci;
    mc.disk.capacityBytes = 4 * s.imageSectors * sim::kSectorSize;
    mc.hasInfiniBand = false;
    mc.seed = s.machineSeed;
    machine = std::make_unique<hw::Machine>(eq, mc, *s.lan, s.mac, *s.lan,
                                            s.mgmtMac);
    t = spans.add("host.setup.hw_s", t);
    guest::GuestOsParams gp;
    gp.boot = smallBootTrace();
    gp.seed = s.guestSeed;
    guest = std::make_unique<guest::GuestOs>(eq, s.name + ".guest",
                                             *machine, gp);
    t = spans.add("host.setup.guest_s", t);
    dep = std::make_unique<bmcast::BmcastDeployer>(
        eq, s.name + ".dep", *machine, *guest, s.server, s.imageSectors,
        s.vmm, false);
    spans.add("host.setup.bmcast_s", t);
}

bool
DeployNode::finish(LayerTally &lt, std::vector<std::string> &initiators)
{
    const bmcast::DeploymentTimeline &tl = dep->timeline();
    rec.serving = tl.guestBootDone;
    rec.bareMetal = tl.bareMetal;
    const hw::DiskStore &disk = machine->disk().store();
    bool intact = true;
    written.forEachBase(0, imageSectors,
                        [&](sim::Lba lba, std::uint64_t n,
                            std::uint64_t base) {
                            const std::uint64_t want =
                                base != 0 ? base : kImageBase;
                            intact = intact &&
                                     disk.rangeHasBase(lba, n, want);
                        });
    rec.ok = tl.bareMetal != 0 && intact;
    lt.addNode(*machine, *guest, *dep);
    initiators.push_back(dep->vmm().initiator().name());
    return intact;
}

Timed::Timed(Report &r) : rep_(r), t0_(HostSpans::Clock::now()) {}

void
Timed::setupDone()
{
    t1_ = HostSpans::Clock::now();
    rep_.host("setup_s",
              std::chrono::duration<double>(t1_ - t0_).count(), "s");
}

void
Timed::runDone()
{
    rep_.host("wall_s",
              std::chrono::duration<double>(HostSpans::Clock::now() - t1_)
                  .count(),
              "s");
    for (const char *name : kSpanNames) {
        double v = 0.0;
        for (const auto &[n, s] : spans.totals())
            if (n == name)
                v = s;
        rep_.layerHost(name, v, "s");
    }
    for (const auto &[n, s] : spans.totals()) {
        bool known = false;
        for (const char *name : kSpanNames)
            known = known || n == name;
        if (!known) {
            std::fprintf(stderr, "unlisted host span %s\n", n.c_str());
            std::abort();
        }
    }
}

} // namespace perfbench
