/**
 * @file
 * End-to-end deployments through the bmcast::store tier: byte-exact
 * flat and overlay deployments, peer-assisted streaming on repeat
 * deployments, k-of-n reconstruction with a seed server down, the
 * release path returning a peer's chunks to the store while fetches
 * are in flight, failover past a peer whose disk no longer holds what
 * the registry advertises, and tick-identity of the disabled store against the
 * legacy single-server path.
 */

#include <gtest/gtest.h>

#include <utility>

#include "bmcast/cloud.hh"
#include "hw/disk_store.hh"
#include "store/streamer.hh"

namespace {

constexpr std::uint64_t kBase = 0xAAAA000000000001ULL;
constexpr std::uint64_t kDelta = 0xDDDD000000000001ULL;
constexpr sim::Bytes kImageBytes = 32 * sim::kMiB;
constexpr sim::Lba kImageSectors = kImageBytes / sim::kSectorSize;

template <typename Pred>
bool
runUntil(sim::EventQueue &eq, sim::Tick deadline, Pred p)
{
    while (!p() && !eq.empty() && eq.now() < deadline)
        eq.step();
    return p();
}

bmcast::CloudConfig
storeConfig(unsigned machines)
{
    bmcast::CloudConfig cfg;
    cfg.machines = machines;
    cfg.machineTemplate.disk.capacityBytes = 2 * sim::kGiB;
    cfg.vmm.bootTime = 5 * sim::kSec;
    cfg.vmm.moderation.vmmWriteInterval = 2 * sim::kMs;
    cfg.vmm.moderation.guestIoFreqThreshold = 1e9;
    cfg.guestTemplate.boot.loaderBytes = 1 * sim::kMiB;
    cfg.guestTemplate.boot.kernelBytes = 4 * sim::kMiB;
    cfg.guestTemplate.boot.numReads = 40;
    cfg.guestTemplate.boot.cpuTotal = 500 * sim::kMs;
    cfg.guestTemplate.boot.regionBytes = 16 * sim::kMiB;
    cfg.store.enabled = true;
    cfg.store.seedServers = 4;
    cfg.store.dataShards = 2;
    cfg.store.parityShards = 2;
    return cfg;
}

bool
bareMetal(bmcast::Instance *i)
{
    return i->state() == bmcast::Instance::State::BareMetal;
}

store::ChunkStreamer *
streamerOf(bmcast::Instance *i)
{
    return i->deployer().vmm().streamer();
}

TEST(StoreDeploy, FlatImageDeploysByteIdentical)
{
    sim::EventQueue eq;
    bmcast::Cloud cloud(eq, "region", storeConfig(1));
    cloud.addImage("img", kImageBytes, kBase);

    bmcast::Instance *a = cloud.provision("img", nullptr);
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(runUntil(eq, 40000 * sim::kSec,
                         [&]() { return bareMetal(a); }));

    EXPECT_TRUE(a->machine().disk().store().rangeHasBase(
        0, kImageSectors, kBase));
    EXPECT_TRUE(cloud.storeFabric()->catalog().verifyDisk(
        "img", a->machine().disk().store()));

    store::ChunkStreamer *s = streamerOf(a);
    ASSERT_NE(s, nullptr);
    EXPECT_GT(s->seedFetches(), 0u) << "all data came from the stripe";
    EXPECT_EQ(s->peerHits(), 0u) << "no warm peer existed yet";
    EXPECT_EQ(s->reconstructions(), 0u) << "every seed was healthy";

    // The completed node registered its chunks as a peer source.
    EXPECT_EQ(cloud.storeFabric()->stats().registeredChunks,
              store::chunkCount(kImageSectors));
}

TEST(StoreDeploy, SecondDeploymentStreamsFromWarmPeer)
{
    sim::EventQueue eq;
    bmcast::Cloud cloud(eq, "region", storeConfig(2));
    cloud.addImage("img", kImageBytes, kBase);

    bmcast::Instance *a = cloud.provision("img", nullptr);
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(runUntil(eq, 40000 * sim::kSec,
                         [&]() { return bareMetal(a); }));

    bmcast::Instance *b = cloud.provision("img", nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_TRUE(runUntil(eq, 80000 * sim::kSec,
                         [&]() { return bareMetal(b); }));

    store::ChunkStreamer *bs = streamerOf(b);
    ASSERT_NE(bs, nullptr);
    EXPECT_GT(bs->peerHits(), 0u)
        << "the second deployment must stream from the warm peer";
    EXPECT_TRUE(cloud.storeFabric()->catalog().verifyDisk(
        "img", b->machine().disk().store()));
    EXPECT_TRUE(b->machine().disk().store().rangeHasBase(
        0, kImageSectors, kBase));
}

TEST(StoreDeploy, SeedServerDownReconstructsKofN)
{
    sim::EventQueue eq;
    bmcast::Cloud cloud(eq, "region", storeConfig(1));
    cloud.addImage("img", kImageBytes, kBase);

    // Take down one stripe member before anything is fetched; every
    // chunk whose data members include it must reconstruct via a
    // parity substitute instead of stalling.
    cloud
        .seedServer(
            static_cast<unsigned>(cloud.seedServerCount() - 1))
        .crash();

    bmcast::Instance *a = cloud.provision("img", nullptr);
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(runUntil(eq, 40000 * sim::kSec,
                         [&]() { return bareMetal(a); }))
        << "a single seed loss must not stall the deployment";

    store::ChunkStreamer *s = streamerOf(a);
    ASSERT_NE(s, nullptr);
    EXPECT_GT(s->reconstructions(), 0u);
    EXPECT_TRUE(a->machine().disk().store().rangeHasBase(
        0, kImageSectors, kBase));
    EXPECT_TRUE(cloud.storeFabric()->catalog().verifyDisk(
        "img", a->machine().disk().store()));
}

TEST(StoreDeploy, ReleasedPeerMidFetchFailsOverToStripe)
{
    sim::EventQueue eq;
    bmcast::Cloud cloud(eq, "region", storeConfig(2));
    cloud.addImage("img", kImageBytes, kBase);

    bmcast::Instance *a = cloud.provision("img", nullptr);
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(runUntil(eq, 40000 * sim::kSec,
                         [&]() { return bareMetal(a); }));

    // Start the second deployment and wait until it actively streams
    // from the warm peer...
    bmcast::Instance *b = cloud.provision("img", nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_TRUE(runUntil(eq, 80000 * sim::kSec, [&]() {
        store::ChunkStreamer *bs = streamerOf(b);
        return bs && bs->peerHits() > 0;
    }));

    // ...then yank the peer: release returns its cached chunks to the
    // store and takes its exporter offline with fetches in flight.
    cloud.release(*a);
    EXPECT_GT(cloud.storeFabric()->stats().releasedChunks, 0u);

    ASSERT_TRUE(runUntil(eq, 80000 * sim::kSec,
                         [&]() { return bareMetal(b); }))
        << "k-of-n reconstruction must take over for the dead peer";
    EXPECT_TRUE(b->machine().disk().store().rangeHasBase(
        0, kImageSectors, kBase));
    EXPECT_TRUE(cloud.storeFabric()->catalog().verifyDisk(
        "img", b->machine().disk().store()));
}

TEST(StoreDeploy, StalePeerContentFailsOverToStripe)
{
    sim::EventQueue eq;
    bmcast::Cloud cloud(eq, "region", storeConfig(2));
    cloud.addImage("img", kImageBytes, kBase);

    bmcast::Instance *a = cloud.provision("img", nullptr);
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(runUntil(eq, 40000 * sim::kSec,
                         [&]() { return bareMetal(a); }));

    // The registry still names the warm peer for every chunk, but its
    // export now reads as zeros — what a slot re-leased under the same
    // MAC returns from its fresh export target.
    store::StoreFabric &fab = *cloud.storeFabric();
    const store::ImageDesc *desc = fab.catalog().find("img");
    ASSERT_NE(desc, nullptr);
    const auto stale = fab.peers().sourcesFor(desc->chunks[0], 0);
    ASSERT_FALSE(stale.empty());
    for (net::MacAddr mac : stale)
        fab.peerServer(mac)->findTarget(desc->major, 0)->store.write(
            0, kImageSectors, 0);

    bmcast::Instance *b = cloud.provision("img", nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_TRUE(runUntil(eq, 80000 * sim::kSec,
                         [&]() { return bareMetal(b); }));

    store::ChunkStreamer *bs = streamerOf(b);
    ASSERT_NE(bs, nullptr);
    EXPECT_GT(bs->sourceFailures(), 0u)
        << "the peer's answers must be checked and rejected";
    EXPECT_EQ(bs->peerHits(), 0u);
    EXPECT_TRUE(b->machine().disk().store().rangeHasBase(
        0, kImageSectors, kBase));
    EXPECT_TRUE(cloud.storeFabric()->catalog().verifyDisk(
        "img", b->machine().disk().store()));
}

TEST(StoreDeploy, OverlayImageDeploysByteIdenticalAndDedups)
{
    sim::EventQueue eq;
    bmcast::Cloud cloud(eq, "region", storeConfig(1));
    cloud.addImage("base", kImageBytes, kBase);

    // One delta inside a chunk, one straddling a chunk boundary.
    std::vector<store::DeltaRun> deltas{
        {5 * store::kChunkSectors + 17, 96, kDelta},
        {3 * store::kChunkSectors - 32, 64, kDelta + 1},
    };
    cloud.addOverlayImage("ovl", "base", deltas);

    // The family shares every untouched chunk: 3 chunks carry deltas.
    std::size_t base_chunks = store::chunkCount(kImageSectors);
    EXPECT_EQ(cloud.storeFabric()->chunkStore().uniqueChunks(),
              base_chunks + 3);

    bmcast::Instance *a = cloud.provision("ovl", nullptr);
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(runUntil(eq, 40000 * sim::kSec,
                         [&]() { return bareMetal(a); }));

    const hw::DiskStore &disk = a->machine().disk().store();
    EXPECT_TRUE(cloud.storeFabric()->catalog().verifyDisk("ovl", disk));
    for (const auto &d : deltas)
        EXPECT_TRUE(disk.rangeHasBase(d.lba, d.count, d.base));
    EXPECT_TRUE(disk.rangeHasBase(0, store::kChunkSectors, kBase));
}

TEST(StoreDisabled, TickIdenticalToLegacyPath)
{
    // The store-off guard: a config with every store knob touched but
    // enabled=false must replay the legacy single-server deployment
    // tick for tick.
    auto run = [](bool touched) {
        sim::EventQueue eq;
        bmcast::CloudConfig cfg = storeConfig(1);
        cfg.store = store::StoreParams{};
        if (touched) {
            cfg.store.seedServers = 5;
            cfg.store.dataShards = 3;
            cfg.store.parityShards = 1;
            cfg.store.shardMinTimeout = 7 * sim::kMs;
        }
        bmcast::Cloud cloud(eq, "region", cfg);
        cloud.addImage("img", kImageBytes, kBase);
        bmcast::Instance *a = cloud.provision("img", nullptr);
        EXPECT_TRUE(runUntil(eq, 40000 * sim::kSec, [&]() {
            return a->state() == bmcast::Instance::State::BareMetal;
        }));
        EXPECT_EQ(a->deployer().vmm().streamer(), nullptr);
        return std::make_pair(eq.executed(), eq.now());
    };
    auto legacy = run(false);
    auto disabled = run(true);
    EXPECT_EQ(legacy.first, disabled.first);
    EXPECT_EQ(legacy.second, disabled.second);
}

} // namespace
