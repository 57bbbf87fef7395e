#include "fleet.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>

#include "hw/disk_store.hh"
#include "obs/obs.hh"

namespace perfbench {

void
ServingStats::merge(const ServingStats &o)
{
    latencyUs.insert(latencyUs.end(), o.latencyUs.begin(),
                     o.latencyUs.end());
    issued += o.issued;
    completed += o.completed;
    late += o.late;
    wrong += o.wrong;
    activeTicks += o.activeTicks;
}

ServingProbe::ServingProbe(sim::EventQueue &eq, guest::BlockDriver &blk,
                           ServingStats &stats, std::uint64_t seed,
                           sim::Lba imageSectors, sim::Tick think,
                           sim::Tick limit, std::uint64_t contentBase)
    : eq_(eq), blk_(blk), stats_(stats), rng_(seed),
      sectors_(imageSectors), think_(think), limit_(limit),
      base_(contentBase)
{
}

void
ServingProbe::start()
{
    running_ = true;
    startedAt_ = eq_.now();
    issue();
}

void
ServingProbe::stop()
{
    if (running_)
        stats_.activeTicks += eq_.now() - startedAt_;
    running_ = false;
}

void
ServingProbe::issue()
{
    if (!running_)
        return;
    constexpr std::uint32_t kSectors = 8;
    const sim::Lba lba = rng_.uniformInt(0, sectors_ - kSectors - 1);
    const sim::Tick at = eq_.now();
    ++stats_.issued;
    inflight_ = true;
    blk_.read(lba, kSectors,
              [this, lba, at](const std::vector<std::uint64_t> &tok) {
                  inflight_ = false;
                  const sim::Tick lat = eq_.now() - at;
                  ++stats_.completed;
                  stats_.latencyUs.push_back(sim::toMicros(lat));
                  if (lat > limit_)
                      ++stats_.late;
                  for (std::size_t i = 0; i < tok.size(); ++i) {
                      if (tok[i] != hw::sectorToken(base_, lba + i)) {
                          ++stats_.wrong;
                          break;
                      }
                  }
                  eq_.schedule(think_, [this]() { issue(); });
              });
}

void
LayerTally::addQueue(const sim::KernelCounters &k)
{
    events += k.executed;
    scheduled += k.scheduled;
    tombstones += k.tombstonesPopped;
    spilled += k.spilledCallbacks;
    peakPending = std::max(peakPending, k.peakPending);
    wallNs += k.wallNs;
}

void
LayerTally::addGroup(const sim::ShardGroup &g)
{
    for (unsigned r = 0; r < g.racks(); ++r)
        addQueue(g.rackQueue(r).counters());
    crossMsgs += g.counters().messages;
    horizonWaits += g.counters().horizonWaits;
    mailboxSpills += g.counters().mailboxSpills;
}

void
LayerTally::addNet(const net::Network &n)
{
    framesForwarded += n.framesForwarded();
    framesUplinked += n.framesUplinked();
    framesDropped += n.uplinkDrops();
}

void
LayerTally::addServer(const aoe::AoeServer &s, const net::Port &port)
{
    wireBytes += port.bytesSentOnWire();
    serverBytesOut += s.dataBytesOut();
    framesDropped += s.framesDroppedOffline();
}

void
LayerTally::addNode(hw::Machine &m, guest::GuestOs &g,
                    bmcast::BmcastDeployer &dep)
{
    vmExits += m.vmx().totalExits();
    guestAccesses += m.bus().guestAccesses();
    intercepted += m.bus().interceptedAccesses();
    diskSeeks += m.disk().seeks();
    diskReads += m.disk().reads();
    diskCacheHits += m.disk().cacheHits();
    for (net::Port *p : {&m.guestNic().port(), &m.mgmtNic().port()}) {
        wireBytes += p->bytesSentOnWire();
        framesDropped += p->framesDropped();
    }
    if (g.isReady())
        bootS.push_back(sim::toSeconds(g.bootDuration()));
    if (!g.isHalted())
        guestBlockIos += g.blk().opsCompleted();
    ++deploys;
    bmcast::Vmm &v = dep.vmm();
    aoeRequests += v.initiator().requestsIssued();
    aoeRetx += v.initiator().retransmissions();
    const bmcast::MediatorStats &ms = v.mediator().stats();
    redirectedSectors += ms.redirectedSectors;
    passthrough += ms.passthroughReads + ms.passthroughWrites;
    redirectedReads += ms.redirectedReads;
    queuedGuestWrites += ms.queuedGuestWrites;
    dummyRestarts += ms.dummyRestarts;
    copyBytes += v.backgroundCopy().bytesWritten();
    copySkipped += v.backgroundCopy().blocksSkipped();
    copySuspensions += v.backgroundCopy().suspensions();
    copyBlockSectors = v.params().copyBlockSectors;
    gateWaits += v.backgroundCopy().gateWaits();
    fetchErrors += v.fetchErrors();
    if (store::ChunkStreamer *cs = v.streamer()) {
        peerHits += cs->peerHits();
        seedFetches += cs->seedFetches();
        reconstructions += cs->reconstructions();
        noSourceStalls += cs->noSourceStalls();
        gateWaits += cs->gateWaits();
    }
    const bmcast::DeploymentTimeline &tl = dep.timeline();
    if (tl.bareMetal != 0) {
        phaseVmm.push_back(sim::toSeconds(tl.vmmReady - tl.powerOn));
        phaseBoot.push_back(
            sim::toSeconds(tl.guestBootDone - tl.vmmReady));
        phaseCopy.push_back(
            sim::toSeconds(tl.copyComplete - tl.vmmReady));
        phaseDevirt.push_back(
            sim::toSeconds(tl.bareMetal - tl.copyComplete));
    }
}

namespace {

double
frac(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
median(const std::vector<double> &v)
{
    return percentile(v, 0.5).value;
}

constexpr double kMiB = static_cast<double>(sim::kMiB);

} // namespace

void
LayerTally::emit(Report &r) const
{
    // simcore
    r.layer("simcore.events", double(events), "count");
    r.layerHost("simcore.host_ns_per_event",
                frac(double(wallNs), double(events)), "ns");
    r.layer("simcore.tombstone_frac",
            frac(double(tombstones), double(scheduled)), "frac");
    r.layer("simcore.spilled_callbacks", double(spilled), "count");
    r.layer("simcore.peak_pending", double(peakPending), "count");
    r.layer("simcore.shard.cross_msgs", double(crossMsgs), "count");
    r.layerHost("simcore.shard.horizon_waits", double(horizonWaits),
                "count");
    r.layer("simcore.shard.mailbox_spills", double(mailboxSpills),
            "count");
    r.layerHost("simcore.shard.parallel_wall_s", parallelWallS, "s");
    // net
    r.layer("net.frames_forwarded", double(framesForwarded), "count");
    r.layer("net.frames_dropped", double(framesDropped), "count");
    r.layer("net.frames_uplinked", double(framesUplinked), "count");
    r.layer("net.wire_mib", double(wireBytes) / kMiB, "MiB");
    // hw
    r.layer("hw.vm_exits", double(vmExits), "count");
    r.layer("hw.io_intercept_frac",
            frac(double(intercepted), double(guestAccesses)), "frac");
    r.layer("hw.disk.seeks", double(diskSeeks), "count");
    r.layer("hw.disk.cache_hit_frac",
            frac(double(diskCacheHits), double(diskReads)), "frac");
    // aoe (rtt percentiles come from the traced run's registry)
    r.layer("aoe.requests", double(aoeRequests), "count");
    r.layer("aoe.retransmit_frac",
            frac(double(aoeRetx), double(aoeRequests)), "frac");
    r.layer("aoe.server_mib_out", double(serverBytesOut) / kMiB, "MiB");
    // guest
    r.layer("guest.boot_s", median(bootS), "s");
    r.layer("guest.block_ios", double(guestBlockIos), "count");
    // bmcast
    r.layer("bmcast.redirected_mib",
            double(redirectedSectors * sim::kSectorSize) / kMiB, "MiB");
    r.layer("bmcast.passthrough_frac",
            frac(double(passthrough), double(passthrough + redirectedReads)),
            "frac");
    r.layer("bmcast.queued_guest_writes", double(queuedGuestWrites),
            "count");
    r.layer("bmcast.dummy_restarts", double(dummyRestarts), "count");
    r.layer("bmcast.copy_mib", double(copyBytes) / kMiB, "MiB");
    const double copied =
        double(copyBytes) / double(copyBlockSectors * sim::kSectorSize);
    r.layer("bmcast.copy_skip_frac",
            frac(double(copySkipped), copied + double(copySkipped)),
            "frac");
    r.layer("bmcast.copy_suspensions", double(copySuspensions), "count");
    r.layer("bmcast.fetch_errors", double(fetchErrors), "count");
    r.layer("bmcast.phase.vmm_s", median(phaseVmm), "s");
    r.layer("bmcast.phase.boot_s", median(phaseBoot), "s");
    r.layer("bmcast.phase.copy_s", median(phaseCopy), "s");
    r.layer("bmcast.phase.devirt_s", median(phaseDevirt), "s");
    // netmed
    r.layer("netmed.polls", double(nmPolls), "count");
    r.layer("netmed.frames_per_poll",
            frac(double(nmFrames), double(nmPolls)), "frames");
    r.layer("netmed.copies_per_frame",
            frac(double(nmCopies), double(nmFrames)), "copies");
    r.layer("netmed.tx_throttled", double(nmThrottled), "count");
    r.layer("netmed.rx_no_buffer", double(nmNoBuffer), "count");
    r.layer("netmed.exits_per_rpc", frac(double(nicExits), double(rpcs)),
            "exits");
    // store
    r.layer("store.peer_hit_frac",
            frac(double(peerHits), double(peerHits + seedFetches)),
            "frac");
    r.layer("store.seed_fetches", double(seedFetches), "count");
    r.layer("store.reconstructions", double(reconstructions), "count");
    r.layer("store.no_source_stalls", double(noSourceStalls), "count");
    r.layer("store.dedup_hits", double(dedupHits), "count");
    r.layer("store.warm_deploy_frac",
            frac(double(warmDeploys), double(deploys)), "frac");
    r.layer("store.repair.jobs", double(repairJobs), "count");
    r.layer("store.repair.wire_mib", double(repairWire) / kMiB, "MiB");
    r.layer("store.repair.useful_frac",
            frac(double(repairUseful), double(repairWire)), "frac");
    r.layer("store.repair.retries", double(repairRetries), "count");
    // cloud
    r.layer("cloud.submitted", double(submitted), "count");
    static const char *const kReasons[4] = {
        "queue_full", "tenant_queue_cap", "region_full", "no_usable_rack"};
    for (unsigned i = 0; i < 4; ++i)
        r.layer(std::string("cloud.rejected.") + kReasons[i],
                double(rejected[i]), "count");
    r.layer("cloud.queue_wait_p50_s", percentile(queueWaitS, 0.5).value,
            "s");
    r.layer("cloud.queue_wait_p90_s", percentile(queueWaitS, 0.9).value,
            "s");
    r.layer("cloud.gate_waits", double(gateWaits), "count");
    r.layerHost("cloud.api_host_us", median(apiHostUs), "us");
    // migrate
    r.layer("migrate.count", double(migrations), "count");
    r.layer("migrate.downtime_p50_ms", median(downtimeMs), "ms");
    r.layer("migrate.downtime_max_ms",
            downtimeMs.empty()
                ? 0.0
                : *std::max_element(downtimeMs.begin(), downtimeMs.end()),
            "ms");
    r.layer("migrate.rounds", double(migrateRounds), "count");
    r.layer("migrate.shipped_mib", double(migrateShipped) / kMiB, "MiB");
    r.layer("migrate.aborted", double(migrateAborted), "count");
    // workloads
    r.layer("workloads.db.read_latency_p99_us",
            percentile(dbReadUs, 0.99).value, "us");
    r.layer("workloads.db.write_latency_p99_us",
            percentile(dbWriteUs, 0.99).value, "us");
    r.layer("workloads.db.flushes", double(dbFlushes), "count");
}

ObsSession::ObsSession(bool on)
{
    if (on)
        tracer_ = std::make_unique<obs::Tracer>(1u << 20);
}

ObsSession::~ObsSession()
{
    if (!on())
        return;
    obs::setMetrics(nullptr);
    obs::disarm();
}

void
ObsSession::attach(sim::EventQueue &eq)
{
    if (!on())
        return;
    obs::arm(tracer_.get());
    obs::setClock(
        [](const void *ctx) {
            return static_cast<const sim::EventQueue *>(ctx)->now();
        },
        &eq);
    obs::setMetrics(&metrics_);
}

void
ObsSession::attach(sim::ShardGroup &g)
{
    if (!on())
        return;
    // One shard: the group runs on the calling thread and sets the
    // per-rack clock itself.
    g.setShardTracer(0, tracer_.get());
    obs::setMetrics(&metrics_);
}

void
ObsSession::emit(Report &r, const std::vector<std::string> &initiators)
{
    if (!on())
        return;
    // Merge every initiator's round-trip histogram.
    std::vector<std::uint64_t> counts(obs::Histogram::kNumBuckets, 0);
    std::uint64_t total = 0;
    for (const std::string &name : initiators) {
        const obs::Histogram *h =
            metrics_.findHistogram("aoe.rtt_ns", name);
        if (!h)
            continue;
        for (std::size_t i = 0; i < counts.size(); ++i)
            counts[i] += h->bucketCount(i);
        total += h->count();
    }
    auto quantile = [&](double q) {
        if (total == 0)
            return 0.0;
        const auto want = static_cast<std::uint64_t>(
            std::max(1.0, std::ceil(q * double(total))));
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < counts.size(); ++i) {
            seen += counts[i];
            if (seen >= want)
                return double(obs::Histogram::lowerBound(i)) / 1e3;
        }
        return 0.0;
    };
    r.layer("aoe.rtt_p50_us", quantile(0.5), "us");
    r.layer("aoe.rtt_p99_us", quantile(0.99), "us");

    // Simulated time inside async spans, summed per layer category.
    std::map<std::tuple<std::uint32_t, std::uint64_t, std::string>,
             sim::Tick>
        open;
    std::map<std::string, sim::Tick> perCat;
    tracer_->forEach([&](const obs::TraceRecord &rec) {
        if (rec.kind == obs::EventKind::AsyncBegin) {
            open[{rec.track, rec.id, rec.cat}] = rec.ts;
        } else if (rec.kind == obs::EventKind::AsyncEnd) {
            auto it = open.find({rec.track, rec.id, rec.cat});
            if (it == open.end())
                return;
            perCat[rec.cat] += rec.ts - it->second;
            open.erase(it);
        }
    });
    for (const char *cat :
         {"net", "aoe", "server", "mediator", "guest", "cloud"})
        r.layer(std::string("obs.span.") + cat + "_s",
                sim::toSeconds(perCat[cat]), "s");
    r.layer("obs.ring_drops", double(tracer_->dropped()), "count");
}

void
emitDeployMetrics(Report &r, const std::vector<DeployRecord> &d,
                  sim::Bytes backboneBytes)
{
    std::vector<double> serving, bare;
    std::uint64_t done = 0;
    for (const DeployRecord &x : d) {
        if (x.serving)
            serving.push_back(sim::toSeconds(x.serving - x.requested));
        if (x.bareMetal)
            bare.push_back(sim::toSeconds(x.bareMetal - x.requested));
        done += x.ok ? 1 : 0;
    }
    using K = Report::Kind;
    r.percentileMetric(K::Sim, "time_to_serving_p50_s",
                       percentile(serving, 0.5), "s");
    r.percentileMetric(K::Sim, "time_to_serving_p90_s",
                       percentile(serving, 0.9), "s");
    r.percentileMetric(K::Sim, "time_to_bare_metal_p50_s",
                       percentile(bare, 0.5), "s");
    r.percentileMetric(K::Sim, "time_to_bare_metal_p90_s",
                       percentile(bare, 0.9), "s");
    r.sim("backbone_mib_per_deploy",
          done ? double(backboneBytes) / kMiB / double(done) : 0.0, "MiB");
    r.ops(d.size(), d.size() - done);
}

void
emitServingMetrics(Report &r, const ServingStats &s)
{
    using K = Report::Kind;
    const double w = sim::toSeconds(s.activeTicks);
    r.sim("serving_ops_per_s", w > 0.0 ? double(s.completed) / w : 0.0,
          "1/s");
    r.percentileMetric(K::Sim, "serving_latency_p50_us",
                       percentile(s.latencyUs, 0.5), "us");
    r.percentileMetric(K::Sim, "serving_latency_p99_us",
                       percentile(s.latencyUs, 0.99), "us");
    r.check("serving_content_matches_image", s.wrong == 0);
    r.ops(s.issued, s.lost() + s.late);
}

std::uint64_t
fingerprintOf(std::uint64_t h, const std::vector<DeployRecord> &d,
              const ServingStats &s)
{
    for (const DeployRecord &x : d) {
        h = sim::fingerprintMix(h, x.requested);
        h = sim::fingerprintMix(h, x.serving);
        h = sim::fingerprintMix(h, x.bareMetal);
        h = sim::fingerprintMix(h, x.ok);
    }
    h = sim::fingerprintMix(h, s.issued);
    h = sim::fingerprintMix(h, s.completed);
    h = sim::fingerprintMix(h, s.late);
    h = sim::fingerprintMix(h, s.activeTicks);
    for (double us : s.latencyUs)
        h = sim::fingerprintMix(h, static_cast<std::uint64_t>(us * 1e3));
    return h;
}

} // namespace perfbench
