/**
 * @file
 * Hardware-model tests: sparse physical memory, the content-token
 * disk store (property-swept against a reference map), the IO bus
 * interposition surface, the disk service model, both storage
 * controllers driven at register level, DMA helpers, the NIC
 * datapath, firmware e820 manipulation, and the VMX engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <set>

#include "guest/ahci_driver.hh"
#include "guest/ide_driver.hh"
#include "guest/nvme_driver.hh"
#include "hw/disk.hh"
#include "hw/disk_store.hh"
#include "hw/dma.hh"
#include "hw/e1000_driver.hh"
#include "hw/firmware.hh"
#include "hw/machine.hh"
#include "hw/nic.hh"
#include "hw/phys_mem.hh"
#include "simcore/random.hh"

namespace {

// --- PhysMem ---

TEST(PhysMem, ZeroFilledByDefault)
{
    hw::PhysMem mem(1 * sim::kGiB);
    EXPECT_EQ(mem.read64(0x1234), 0u);
    // Empty accesses touch nothing either.
    std::uint8_t b = 0;
    mem.write(0x5000, &b, 0);
    mem.fill(0x6000, 0xFF, 0);
    EXPECT_EQ(mem.pagesAllocated(), 0u);
}

TEST(PhysMem, ReadBackWrites)
{
    hw::PhysMem mem(1 * sim::kGiB);
    mem.write32(0x1000, 0xDEADBEEF);
    EXPECT_EQ(mem.read32(0x1000), 0xDEADBEEFu);
    EXPECT_EQ(mem.read16(0x1000), 0xBEEFu);
    EXPECT_EQ(mem.read8(0x1003), 0xDEu);
}

TEST(PhysMem, CrossPageAccess)
{
    hw::PhysMem mem(1 * sim::kGiB);
    mem.write64(4096 - 4, 0x1122334455667788ULL);
    EXPECT_EQ(mem.read64(4096 - 4), 0x1122334455667788ULL);
    EXPECT_EQ(mem.pagesAllocated(), 2u);
}

TEST(PhysMem, OutOfRangePanics)
{
    hw::PhysMem mem(4096);
    EXPECT_THROW(mem.read64(4095), sim::PanicError);
    EXPECT_THROW(mem.write8(4096, 1), sim::PanicError);
}

TEST(PhysMem, FillRange)
{
    hw::PhysMem mem(1 * sim::kMiB);
    mem.fill(100, 0xAB, 5000);
    EXPECT_EQ(mem.read8(100), 0xABu);
    EXPECT_EQ(mem.read8(5099), 0xABu);
    EXPECT_EQ(mem.read8(99), 0u);
    EXPECT_EQ(mem.read8(5100), 0u);
}

TEST(PhysMem, WrappingAddressPanics)
{
    hw::PhysMem mem(1 * sim::kGiB);
    constexpr sim::Addr kTop = ~sim::Addr(0);
    std::uint8_t buf[32] = {};
    // addr + len wraps past 2^64 to a small, in-range value.
    EXPECT_THROW(mem.write8(kTop, 7), sim::PanicError);
    EXPECT_THROW(mem.read8(kTop), sim::PanicError);
    EXPECT_THROW(mem.write64(kTop - 3, 7), sim::PanicError);
    EXPECT_THROW(mem.read(kTop - 15, buf, sizeof(buf)), sim::PanicError);
    EXPECT_THROW(mem.write(kTop - 15, buf, sizeof(buf)), sim::PanicError);
    EXPECT_THROW(mem.fill(kTop - 15, 7, sizeof(buf)), sim::PanicError);
    EXPECT_EQ(mem.pagesAllocated(), 0u);

    // The last byte is still reachable, and one past it is not.
    mem.write8(mem.size() - 1, 7);
    EXPECT_EQ(mem.read8(mem.size() - 1), 7u);
    EXPECT_THROW(mem.read8(mem.size()), sim::PanicError);
    EXPECT_THROW(mem.read16(mem.size() - 1), sim::PanicError);
    EXPECT_EQ(mem.pagesAllocated(), 1u);
}

class PhysMemProperty : public ::testing::TestWithParam<int>
{
};

/** Mixed typed and bulk accesses clustered at page edges, leaf (2 MiB)
 *  edges and the end of memory, checked byte for byte against a map. */
TEST_P(PhysMemProperty, MatchesByteModel)
{
    constexpr sim::Bytes kPage = 4096;
    constexpr sim::Bytes kLeaf = 2 * sim::kMiB;
    constexpr sim::Bytes kSize = 3 * kLeaf + 3 * kPage + 5;
    sim::Rng rng(GetParam() * 977);
    hw::PhysMem mem(kSize);
    std::map<sim::Addr, std::uint8_t> model;
    std::set<sim::Addr> pages;

    auto expected = [&](sim::Addr a) -> std::uint8_t {
        auto it = model.find(a);
        return it == model.end() ? 0 : it->second;
    };
    auto store = [&](sim::Addr a, std::uint8_t v) {
        model[a] = v;
        pages.insert(a / kPage);
    };
    // An address for an access of @p len bytes, near an edge.
    auto pick = [&](sim::Bytes len) -> sim::Addr {
        std::int64_t a = 0;
        std::int64_t jitter = std::int64_t(rng.uniformInt(0, len + 16)) -
                              std::int64_t(len + 8);
        switch (rng.uniformInt(0, 3)) {
          case 0:
            a = std::int64_t(rng.uniformInt(1, kSize / kPage) * kPage) +
                jitter;
            break;
          case 1:
            a = std::int64_t(rng.uniformInt(1, kSize / kLeaf) * kLeaf) +
                jitter;
            break;
          case 2:
            a = std::int64_t(kSize - len) -
                std::int64_t(rng.uniformInt(0, 8));
            break;
          default:
            a = std::int64_t(rng.uniformInt(0, kSize - len));
            break;
        }
        return sim::Addr(
            std::clamp<std::int64_t>(a, 0, std::int64_t(kSize - len)));
    };

    std::vector<std::uint8_t> buf;
    for (int op = 0; op < 400; ++op) {
        unsigned width = 1u << rng.uniformInt(0, 3);
        switch (rng.uniformInt(0, 4)) {
          case 0: { // typed write
            sim::Addr a = pick(width);
            std::uint64_t v = rng.next();
            switch (width) {
              case 1: mem.write8(a, std::uint8_t(v)); break;
              case 2: mem.write16(a, std::uint16_t(v)); break;
              case 4: mem.write32(a, std::uint32_t(v)); break;
              default: mem.write64(a, v); break;
            }
            for (unsigned i = 0; i < width; ++i)
                store(a + i, std::uint8_t(v >> (8 * i)));
            break;
          }
          case 1: { // typed read
            sim::Addr a = pick(width);
            std::uint64_t want = 0;
            for (unsigned i = 0; i < width; ++i)
                want |= std::uint64_t(expected(a + i)) << (8 * i);
            std::uint64_t got = 0;
            switch (width) {
              case 1: got = mem.read8(a); break;
              case 2: got = mem.read16(a); break;
              case 4: got = mem.read32(a); break;
              default: got = mem.read64(a); break;
            }
            ASSERT_EQ(got, want) << "read" << width * 8 << " @" << a;
            break;
          }
          case 2: { // bulk write
            sim::Bytes len = rng.uniformInt(1, 3 * kPage);
            sim::Addr a = pick(len);
            buf.resize(len);
            for (auto &b : buf)
                b = std::uint8_t(rng.next());
            mem.write(a, buf.data(), len);
            for (sim::Bytes i = 0; i < len; ++i)
                store(a + i, buf[i]);
            break;
          }
          case 3: { // bulk read
            sim::Bytes len = rng.uniformInt(1, 3 * kPage);
            sim::Addr a = pick(len);
            buf.assign(len, 0xEE);
            mem.read(a, buf.data(), len);
            for (sim::Bytes i = 0; i < len; ++i)
                ASSERT_EQ(buf[i], expected(a + i)) << "byte @" << a + i;
            break;
          }
          default: { // fill
            sim::Bytes len = rng.uniformInt(1, 3 * kPage);
            sim::Addr a = pick(len);
            auto v = std::uint8_t(rng.next());
            mem.fill(a, v, len);
            for (sim::Bytes i = 0; i < len; ++i)
                store(a + i, v);
            break;
          }
        }
        ASSERT_EQ(mem.pagesAllocated(), pages.size()) << "op " << op;
    }
    for (const auto &[a, v] : model)
        ASSERT_EQ(mem.read8(a), v) << "byte @" << a;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PhysMemProperty, ::testing::Range(1, 6));

// --- e1000 wire codec ---

/** The per-byte header encoding the NIC, driver and ports used before
 *  the shared codec: MACs then ether type, big-endian. */
void
writeHeaderPerByte(hw::PhysMem &mem, sim::Addr buf, const net::Frame &f)
{
    for (int i = 0; i < 6; ++i) {
        mem.write8(buf + i, static_cast<std::uint8_t>(f.dst >> (8 * (5 - i))));
        mem.write8(buf + 6 + i,
                   static_cast<std::uint8_t>(f.src >> (8 * (5 - i))));
    }
    mem.write8(buf + 12, static_cast<std::uint8_t>(f.etherType >> 8));
    mem.write8(buf + 13, static_cast<std::uint8_t>(f.etherType));
}

TEST(E1000Wire, RoundTripKeepsTheHeaderLayout)
{
    using hw::e1000::kWireHeader;
    struct Case
    {
        net::MacAddr dst;
        sim::Bytes payload;
        sim::Bytes padding;
        sim::Addr buf;
    };
    const Case cases[] = {
        {0x0A0B0C0D0E0FULL, 0, 0, 0x1000},
        // Broadcast, with the header straddling a page edge.
        {net::kBroadcastMac, 1, 504, 0x3000 - 5},
        // A full page of header + payload, maximal padding.
        {0x020000000007ULL, 4082, sim::Bytes(0xFFFF) << 3, 0x10000},
    };
    hw::PhysMem mem(1 * sim::kMiB);
    hw::PhysMem perByte(1 * sim::kMiB);
    for (const Case &c : cases) {
        net::Frame f;
        f.dst = c.dst;
        f.src = 0x112233445566ULL;
        f.etherType = 0x88B5;
        for (sim::Bytes i = 0; i < c.payload; ++i)
            f.payload.push_back(std::uint8_t(i * 7 + 1));
        f.padding = c.padding;

        hw::e1000::writeWireFrame(mem, c.buf, f);
        writeHeaderPerByte(perByte, c.buf, f);
        std::array<std::uint8_t, kWireHeader> got{}, want{};
        mem.read(c.buf, got.data(), got.size());
        perByte.read(c.buf, want.data(), want.size());
        EXPECT_EQ(got, want) << "dst " << std::hex << c.dst;

        auto len = static_cast<std::uint16_t>(kWireHeader + c.payload);
        auto special = static_cast<std::uint16_t>(f.padding >> 3);
        net::Frame g = hw::e1000::readWireFrame(mem, c.buf, len, special);
        EXPECT_EQ(g.dst, f.dst);
        EXPECT_EQ(g.src, f.src);
        EXPECT_EQ(g.etherType, f.etherType);
        EXPECT_EQ(g.payload, f.payload);
        EXPECT_EQ(g.padding, f.padding);
    }

    // The layout itself, byte by byte.
    const std::array<std::uint8_t, kWireHeader> first = {
        0x0A, 0x0B, 0x0C, 0x0D, 0x0E, 0x0F, 0x11,
        0x22, 0x33, 0x44, 0x55, 0x66, 0x88, 0xB5};
    std::array<std::uint8_t, kWireHeader> got{};
    mem.read(0x1000, got.data(), got.size());
    EXPECT_EQ(got, first);
    mem.read(0x3000 - 5, got.data(), got.size());
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(got[i], 0xFF);
}

TEST(E1000Wire, DescriptorWireSizeMatchesTheFrame)
{
    hw::PhysMem mem(1 * sim::kMiB);
    for (std::uint16_t len : {0, 13, 14, 46, 60, 1514, 2048}) {
        for (std::uint16_t special : {0, 1, 63, 0xFFFF}) {
            EXPECT_EQ(hw::e1000::wireSize(len, special),
                      hw::e1000::readWireFrame(mem, 0x1000, len, special)
                          .wireSize())
                << "len " << len << " special " << special;
        }
    }
}

// --- DiskStore ---

TEST(DiskStore, UnwrittenReadsAsZeroToken)
{
    hw::DiskStore s;
    EXPECT_EQ(s.baseAt(123), 0u);
    EXPECT_EQ(s.tokenAt(123), 0u);
}

TEST(DiskStore, TokenBaseRoundTrip)
{
    const std::uint64_t base = 0xAA55000000000001ULL;
    for (sim::Lba lba : {0ull, 1ull, 77777ull, (1ull << 40)}) {
        auto token = hw::sectorToken(base, lba);
        EXPECT_EQ(hw::baseFromToken(token, lba), base);
    }
}

TEST(DiskStore, LargeWriteIsOneExtent)
{
    hw::DiskStore s;
    s.write(0, 64ull << 20, 7); // a 32 GiB image: one extent
    EXPECT_EQ(s.extentCount(), 1u);
    EXPECT_TRUE(s.rangeHasBase(0, 64ull << 20, 7));
}

TEST(DiskStore, OverwriteSplits)
{
    hw::DiskStore s;
    s.write(0, 1000, 7);
    s.write(400, 100, 9);
    EXPECT_TRUE(s.rangeHasBase(0, 400, 7));
    EXPECT_TRUE(s.rangeHasBase(400, 100, 9));
    EXPECT_TRUE(s.rangeHasBase(500, 500, 7));
    EXPECT_EQ(s.extentCount(), 3u);
}

class DiskStoreProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(DiskStoreProperty, MatchesReferenceMap)
{
    sim::Rng rng(GetParam() * 131);
    hw::DiskStore s;
    std::map<sim::Lba, std::uint64_t> ref;
    constexpr sim::Lba kSpace = 600;

    for (int op = 0; op < 250; ++op) {
        sim::Lba a = rng.uniformInt(0, kSpace - 1);
        std::uint64_t n = rng.uniformInt(1, 40);
        std::uint64_t base = rng.uniformInt(1, 5) << 32 | 1;
        s.write(a, n, base);
        for (sim::Lba p = a; p < a + n; ++p)
            ref[p] = base;
    }
    for (sim::Lba p = 0; p < kSpace + 50; ++p) {
        auto it = ref.find(p);
        ASSERT_EQ(s.baseAt(p), it == ref.end() ? 0 : it->second)
            << "lba " << p;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiskStoreProperty,
                         ::testing::Range(1, 9));

// --- IoBus ---

TEST(IoBus, RoutesToDevice)
{
    hw::IoBus bus;
    std::uint64_t last_write = 0;
    bus.addDevice(hw::IoSpace::Pio, 0x100, 8,
                  hw::IoDevice{"dev",
                               [](sim::Addr o, unsigned) {
                                   return o * 10;
                               },
                               [&](sim::Addr, std::uint64_t v,
                                   unsigned) { last_write = v; }});
    EXPECT_EQ(bus.guestRead(hw::IoSpace::Pio, 0x103, 1), 30u);
    bus.guestWrite(hw::IoSpace::Pio, 0x100, 42, 1);
    EXPECT_EQ(last_write, 42u);
}

TEST(IoBus, UnmappedReadsFloatHigh)
{
    hw::IoBus bus;
    EXPECT_EQ(bus.guestRead(hw::IoSpace::Pio, 0x9999, 1), ~0ULL);
}

TEST(IoBus, OverlappingDevicesRejected)
{
    hw::IoBus bus;
    bus.addDevice(hw::IoSpace::Mmio, 0x1000, 0x100, hw::IoDevice{});
    EXPECT_THROW(
        bus.addDevice(hw::IoSpace::Mmio, 0x10F0, 0x10, hw::IoDevice{}),
        sim::FatalError);
}

struct CountingInterceptor : hw::IoInterceptor
{
    int reads = 0, writes = 0;
    bool swallow = false;

    bool
    interceptRead(sim::Addr, unsigned, std::uint64_t &v) override
    {
        ++reads;
        v = 0x55;
        return swallow;
    }
    bool
    interceptWrite(sim::Addr, std::uint64_t, unsigned) override
    {
        ++writes;
        return swallow;
    }
};

TEST(IoBus, InterceptorSeesGuestAccessesOnly)
{
    hw::IoBus bus;
    int dev_reads = 0;
    bus.addDevice(hw::IoSpace::Pio, 0x1F0, 8,
                  hw::IoDevice{"ide",
                               [&](sim::Addr, unsigned) {
                                   ++dev_reads;
                                   return 7ull;
                               },
                               nullptr});
    CountingInterceptor icpt;
    bus.intercept(hw::IoSpace::Pio, 0x1F0, 8, &icpt);

    // Guest access exits and forwards (swallow=false).
    EXPECT_EQ(bus.guestRead(hw::IoSpace::Pio, 0x1F7, 1), 7u);
    EXPECT_EQ(icpt.reads, 1);
    EXPECT_EQ(dev_reads, 1);

    // VMM access never exits.
    EXPECT_EQ(bus.vmmRead(hw::IoSpace::Pio, 0x1F7, 1), 7u);
    EXPECT_EQ(icpt.reads, 1);

    // Swallowed access does not reach the device.
    icpt.swallow = true;
    EXPECT_EQ(bus.guestRead(hw::IoSpace::Pio, 0x1F7, 1), 0x55u);
    EXPECT_EQ(dev_reads, 2);

    EXPECT_TRUE(bus.anyInterceptActive());
    bus.removeIntercept(hw::IoSpace::Pio, 0x1F0, 8);
    EXPECT_FALSE(bus.anyInterceptActive());
    EXPECT_EQ(bus.guestRead(hw::IoSpace::Pio, 0x1F7, 1), 7u);
    EXPECT_EQ(icpt.reads, 2); // no more exits
}

// --- Disk service model ---

TEST(Disk, SequentialFasterThanRandom)
{
    sim::EventQueue eq;
    hw::Disk disk(eq, "disk", hw::DiskParams{});

    auto time_reads = [&](bool sequential) {
        sim::Tick start = eq.now();
        int done = 0;
        for (int i = 0; i < 32; ++i) {
            hw::DiskRequest r;
            r.lba = sequential ? sim::Lba(i) * 2048
                               : sim::Lba((i * 7919) % 512) * 131072;
            r.sectors = 2048;
            r.done = [&]() { ++done; };
            disk.submit(std::move(r));
        }
        eq.run();
        EXPECT_EQ(done, 32);
        return eq.now() - start;
    };

    sim::Tick seq = time_reads(true);
    sim::Tick rnd = time_reads(false);
    EXPECT_LT(seq * 3 / 2, rnd); // clearly slower under seeks
}

TEST(Disk, SequentialThroughputNearMediaRate)
{
    sim::EventQueue eq;
    hw::DiskParams p;
    hw::Disk disk(eq, "disk", p);
    const int n = 64;
    int done = 0;
    for (int i = 0; i < n; ++i) {
        hw::DiskRequest r;
        r.lba = sim::Lba(i) * 2048;
        r.sectors = 2048;
        r.done = [&]() { ++done; };
        disk.submit(std::move(r));
    }
    eq.run();
    double mbps = sim::toMBps(sim::Bytes(n) * sim::kMiB, eq.now());
    EXPECT_NEAR(mbps, p.readMBps, p.readMBps * 0.05);
}

TEST(Disk, CacheHitIsFast)
{
    sim::EventQueue eq;
    hw::Disk disk(eq, "disk", hw::DiskParams{});
    // Random read to park the head away, then re-read one sector.
    sim::Tick second = 0;
    hw::DiskRequest a;
    a.lba = 900000;
    a.sectors = 1;
    a.done = [&]() {
        // Move the head far away...
        hw::DiskRequest b;
        b.lba = 100;
        b.sectors = 64;
        b.done = [&]() {
            sim::Tick t = eq.now();
            // ...then re-read the cached sector: no seek.
            hw::DiskRequest c;
            c.lba = 900000;
            c.sectors = 1;
            c.done = [&, t]() { second = eq.now() - t; };
            disk.submit(std::move(c));
        };
        disk.submit(std::move(b));
    };
    disk.submit(std::move(a));
    eq.run();
    EXPECT_EQ(disk.cacheHits(), 1u);
    EXPECT_LE(second, disk.params().cacheHitTime + sim::kUs);
}

TEST(Disk, RequestBeyondCapacityPanics)
{
    sim::EventQueue eq;
    hw::DiskParams p;
    p.capacityBytes = 1 * sim::kMiB;
    hw::Disk disk(eq, "disk", p);
    hw::DiskRequest r;
    r.lba = 2047;
    r.sectors = 2;
    EXPECT_THROW(disk.submit(std::move(r)), sim::PanicError);
}

// --- DMA helpers ---

TEST(Dma, TokenRoundTripThroughMemory)
{
    hw::PhysMem mem(1 * sim::kMiB);
    hw::DiskStore store;
    store.write(100, 16, 0x1234000000000001ULL);

    std::vector<hw::SgEntry> sg{{0x1000, 8 * sim::kSectorSize},
                                {0x8000, 8 * sim::kSectorSize}};
    hw::dmaToMemory(mem, sg, store, 100, 16);
    EXPECT_EQ(hw::bufferTokenAt(mem, 0x1000, 0),
              hw::sectorToken(0x1234000000000001ULL, 100));
    EXPECT_EQ(mem.read64(0x8000),
              hw::sectorToken(0x1234000000000001ULL, 108));

    // Write the buffer back to a different location: same base.
    hw::DiskStore store2;
    hw::dmaFromMemory(mem, sg, store2, 100, 16);
    EXPECT_TRUE(store2.rangeHasBase(100, 16, 0x1234000000000001ULL));
    EXPECT_EQ(store2.extentCount(), 1u);
}

TEST(Dma, MisalignedSgPanics)
{
    hw::PhysMem mem(1 * sim::kMiB);
    hw::DiskStore store;
    std::vector<hw::SgEntry> sg{{0x1000, 100}}; // not sector-aligned
    EXPECT_THROW(hw::dmaToMemory(mem, sg, store, 0, 1),
                 sim::PanicError);
}

TEST(Dma, ShortSgPanics)
{
    hw::PhysMem mem(1 * sim::kMiB);
    hw::DiskStore store;
    std::vector<hw::SgEntry> sg{{0x1000, sim::kSectorSize}};
    EXPECT_THROW(hw::dmaToMemory(mem, sg, store, 0, 2),
                 sim::PanicError);
}

// --- Firmware ---

TEST(Firmware, PowerOnDelay)
{
    sim::EventQueue eq;
    hw::Firmware fw(eq, "fw", 133 * sim::kSec, 1 * sim::kGiB);
    sim::Tick booted = 0;
    fw.powerOn([&]() { booted = eq.now(); });
    eq.run();
    EXPECT_EQ(booted, 133 * sim::kSec);
}

TEST(Firmware, ReservationSplitsE820)
{
    sim::EventQueue eq;
    hw::Firmware fw(eq, "fw", 0, 4 * sim::kGiB);
    fw.reserve(0x78000000, 128 * sim::kMiB);
    EXPECT_TRUE(fw.overlapsReserved(0x78000000, 1));
    EXPECT_FALSE(fw.overlapsReserved(0x1000, 0x1000));
    EXPECT_EQ(fw.usableRam(), 4 * sim::kGiB - 128 * sim::kMiB);
    EXPECT_EQ(fw.e820().size(), 3u);
}

// --- Machine + register-level driver round trips ---

struct MachineWorld
{
    explicit MachineWorld(hw::StorageKind kind)
        : lan(eq, "lan")
    {
        hw::MachineConfig mc;
        mc.name = "m";
        mc.storage = kind;
        mc.disk.capacityBytes = 1 * sim::kGiB;
        machine = std::make_unique<hw::Machine>(eq, mc, lan, 10, lan,
                                                11);
        arena = std::make_unique<hw::MemArena>(16 * sim::kMiB,
                                               256 * sim::kMiB);
        hw::BusView view(machine->bus(), true);
        if (kind == hw::StorageKind::Ide) {
            drv = std::make_unique<guest::IdeDriver>(
                eq, "drv", view, machine->mem(), machine->intc(),
                *arena);
        } else if (kind == hw::StorageKind::Ahci) {
            drv = std::make_unique<guest::AhciDriver>(
                eq, "drv", view, machine->mem(), machine->intc(),
                *arena);
        } else {
            drv = std::make_unique<guest::NvmeDriver>(
                eq, "drv", view, machine->mem(), machine->intc(),
                *arena);
        }
        drv->initialize();
    }

    sim::EventQueue eq;
    net::Network lan;
    std::unique_ptr<hw::Machine> machine;
    std::unique_ptr<hw::MemArena> arena;
    std::unique_ptr<guest::BlockDriver> drv;
};

class ControllerTest : public ::testing::TestWithParam<hw::StorageKind>
{
};

TEST_P(ControllerTest, WriteReadRoundTrip)
{
    MachineWorld w(GetParam());
    const std::uint64_t base = 0x4242000000000001ULL;
    bool wrote = false;
    w.drv->write(1000, 256, base, [&]() { wrote = true; });
    w.eq.run();
    ASSERT_TRUE(wrote);
    EXPECT_TRUE(
        w.machine->disk().store().rangeHasBase(1000, 256, base));

    std::vector<std::uint64_t> got;
    w.drv->read(1000, 256, [&](const auto &t) { got = t; });
    w.eq.run();
    ASSERT_EQ(got.size(), 256u);
    for (std::uint32_t i = 0; i < 256; ++i)
        ASSERT_EQ(got[i], hw::sectorToken(base, 1000 + i));
}

TEST_P(ControllerTest, LargeRequestSplitsIntoChunks)
{
    MachineWorld w(GetParam());
    bool wrote = false;
    // 5000 sectors > the 2048-sector per-command cap.
    w.drv->write(0, 5000, 0x99u << 8 | 1, [&]() { wrote = true; });
    w.eq.run();
    ASSERT_TRUE(wrote);
    EXPECT_TRUE(
        w.machine->disk().store().rangeHasBase(0, 5000, 0x99u << 8 | 1));
}

TEST_P(ControllerTest, ManyInterleavedOpsComplete)
{
    MachineWorld w(GetParam());
    sim::Rng rng(99);
    int completed = 0;
    const int kOps = 60;
    for (int i = 0; i < kOps; ++i) {
        sim::Lba lba = rng.uniformInt(0, 100000) & ~7ULL;
        auto n = static_cast<std::uint32_t>(rng.uniformInt(1, 64));
        if (rng.chance(0.5)) {
            w.drv->write(lba, n, (std::uint64_t(i) << 8) | 1,
                         [&]() { ++completed; });
        } else {
            w.drv->read(lba, n,
                        [&](const auto &) { ++completed; });
        }
    }
    w.eq.run();
    EXPECT_EQ(completed, kOps);
}

INSTANTIATE_TEST_SUITE_P(Kinds, ControllerTest,
                         ::testing::Values(hw::StorageKind::Ide,
                                           hw::StorageKind::Ahci,
                                           hw::StorageKind::Nvme),
                         [](const auto &info) {
                             switch (info.param) {
                               case hw::StorageKind::Ide:
                                 return "Ide";
                               case hw::StorageKind::Ahci:
                                 return "Ahci";
                               default:
                                 return "Nvme";
                             }
                         });

// --- NIC datapath ---

TEST(Nic, DriverToDriverFrameDelivery)
{
    sim::EventQueue eq;
    net::Network lan(eq, "lan");
    hw::MachineConfig mc;
    mc.name = "a";
    hw::Machine a(eq, mc, lan, 1, lan, 2);
    mc.name = "b";
    mc.seed = 2;
    hw::Machine b(eq, mc, lan, 3, lan, 4);

    hw::MemArena arena_a(32 * sim::kMiB, 64 * sim::kMiB);
    hw::MemArena arena_b(32 * sim::kMiB, 64 * sim::kMiB);
    hw::E1000Driver da(eq, "da", hw::BusView(a.bus(), true),
                       a.guestNic(), a.mem(), arena_a,
                       hw::E1000Driver::Mode::Interrupt, &a.intc(),
                       hw::kGuestNicIrq);
    hw::E1000Driver db(eq, "db", hw::BusView(b.bus(), true),
                       b.guestNic(), b.mem(), arena_b,
                       hw::E1000Driver::Mode::Interrupt, &b.intc(),
                       hw::kGuestNicIrq);

    std::vector<std::uint8_t> got;
    db.setRxHandler([&](const net::Frame &f) { got = f.payload; });

    net::Frame f;
    f.dst = 3; // b's guest NIC MAC
    f.etherType = 0x88B5;
    f.payload = {9, 8, 7, 6, 5};
    da.sendFrame(f);
    eq.run();
    EXPECT_EQ(got, (std::vector<std::uint8_t>{9, 8, 7, 6, 5}));
}

TEST(Nic, PollingModeDelivery)
{
    sim::EventQueue eq;
    net::Network lan(eq, "lan");
    hw::MachineConfig mc;
    mc.name = "m";
    hw::Machine m(eq, mc, lan, 1, lan, 2);

    hw::MemArena arena(32 * sim::kMiB, 64 * sim::kMiB);
    hw::E1000Driver drv(eq, "poll", hw::BusView(m.bus(), false),
                        m.mgmtNic(), m.mem(), arena,
                        hw::E1000Driver::Mode::Polling);
    int rx = 0;
    drv.setRxHandler([&](const net::Frame &) { ++rx; });

    // A raw station sends to the mgmt NIC.
    net::Port &peer = lan.attach(99);
    net::Frame f;
    f.dst = 2;
    f.payload = {1};
    peer.send(f);
    eq.run();
    EXPECT_EQ(rx, 0); // nothing until the driver polls
    drv.poll();
    EXPECT_EQ(rx, 1);
}

/**
 * Ring conformance, driver to device and back: frames cross more than
 * two wraps of the 64-entry rings in order and intact (padding
 * included); the driver's TX backlog waits while its ring is full;
 * a frame that finds no posted RX descriptor counts in rxDropped.
 */
TEST(Nic, RingsWrapInOrderUnderBackpressure)
{
    sim::EventQueue eq;
    net::Network lan(eq, "lan");
    hw::MachineConfig mc;
    mc.name = "m";
    hw::Machine m(eq, mc, lan, 1, lan, 2);
    hw::MemArena arena(32 * sim::kMiB, 64 * sim::kMiB);
    hw::E1000Driver drv(eq, "poll", hw::BusView(m.bus(), false),
                        m.mgmtNic(), m.mem(), arena,
                        hw::E1000Driver::Mode::Polling);
    net::Port &peer = lan.attach(99);

    auto frame = [](net::MacAddr dst, unsigned i) {
        net::Frame f;
        f.dst = dst;
        f.etherType = 0x88B5;
        f.payload.assign(2 + i % 61, std::uint8_t(i * 7));
        f.payload[0] = std::uint8_t(i >> 8);
        f.payload[1] = std::uint8_t(i);
        f.padding = sim::Bytes(i % 64) * 8;
        return f;
    };
    auto expectFrames = [&](const std::vector<net::Frame> &got,
                            net::MacAddr dst, unsigned first) {
        for (unsigned i = 0; i < got.size(); ++i) {
            net::Frame want = frame(dst, first + i);
            EXPECT_EQ(got[i].dst, want.dst) << "frame " << first + i;
            EXPECT_EQ(got[i].etherType, want.etherType);
            EXPECT_EQ(got[i].payload, want.payload) << "frame " << first + i;
            EXPECT_EQ(got[i].padding, want.padding) << "frame " << first + i;
        }
    };

    // TX: 200 frames, over three wraps. One descriptor always stays
    // empty, so 63 fit and the rest wait in the backlog.
    constexpr unsigned kTx = 200;
    std::vector<net::Frame> atPeer;
    peer.onReceive([&](const net::Frame &f) { atPeer.push_back(f); });
    for (unsigned i = 0; i < kTx; ++i)
        drv.sendFrame(frame(99, i));
    EXPECT_EQ(drv.framesSent(), 63u);
    eq.run();
    EXPECT_EQ(atPeer.size(), 63u);
    EXPECT_EQ(drv.framesSent(), 63u) << "backlog left before a reap";
    for (int polls = 0; atPeer.size() < kTx && polls < 20; ++polls) {
        drv.poll();
        eq.run();
    }
    ASSERT_EQ(atPeer.size(), kTx);
    expectFrames(atPeer, 99, 0);

    // RX: rounds of 70 frames against an unpolled driver. 63 find a
    // posted descriptor and 7 are dropped; a poll then delivers the
    // 63 in order and hands the descriptors back.
    std::vector<net::Frame> atDriver;
    drv.setRxHandler(
        [&](const net::Frame &f) { atDriver.push_back(f); });
    for (unsigned round = 0; round < 3; ++round) {
        for (unsigned i = 0; i < 70; ++i)
            peer.send(frame(2, 1000 + round * 70 + i));
        eq.run();
        EXPECT_EQ(m.mgmtNic().framesReceived(), 63u * (round + 1));
        EXPECT_EQ(m.mgmtNic().rxDropped(), 7u * (round + 1));
        atDriver.clear();
        EXPECT_EQ(drv.poll(), 63u);
        ASSERT_EQ(atDriver.size(), 63u);
        expectFrames(atDriver, 2, 1000 + round * 70);
    }
}

// --- VMX engine ---

TEST(Vmx, NestedPagingPerCpu)
{
    sim::EventQueue eq;
    hw::VmxEngine vmx(eq, "vmx", 4);
    for (unsigned c = 0; c < 4; ++c)
        vmx.vmxon(c);
    EXPECT_TRUE(vmx.anyNestedPaging());
    vmx.disableNestedPaging(0);
    vmx.disableNestedPaging(1);
    EXPECT_TRUE(vmx.anyNestedPaging());
    vmx.disableNestedPaging(2);
    vmx.disableNestedPaging(3);
    EXPECT_FALSE(vmx.anyNestedPaging());
    EXPECT_TRUE(vmx.anyInVmx());
    for (unsigned c = 0; c < 4; ++c)
        vmx.vmxoff(c);
    EXPECT_FALSE(vmx.anyInVmx());
    EXPECT_EQ(vmx.vcpu(0).tlbInvalidations, 1u);
}

TEST(Vmx, PreemptionTimerRunsUntilFalse)
{
    sim::EventQueue eq;
    hw::VmxEngine vmx(eq, "vmx", 1);
    int fired = 0;
    vmx.startPreemptionTimer(100, [&]() { return ++fired < 5; });
    eq.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(vmx.exits(hw::ExitReason::PreemptionTimer), 5u);
    EXPECT_GT(vmx.stolenCpuTime(), 0u);
}

} // namespace
