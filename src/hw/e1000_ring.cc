#include "hw/e1000_ring.hh"

#include <array>

#include "simcore/logging.hh"

namespace hw {
namespace e1000 {

namespace {

/** Legacy descriptor layout: 16 bytes, fields at these offsets. */
constexpr sim::Bytes kDescSize = 16;
constexpr sim::Addr kDescLen = 8;      // u16 buffer length
constexpr sim::Addr kDescCmd = 11;     // u8 TX command
constexpr sim::Addr kDescStatus = 12;  // u8 status (DD, EOP)
constexpr sim::Addr kDescSpecial = 14; // u16 elided bulk, in 8 B units

constexpr std::uint8_t kTxCmdEop = 0x01;
constexpr std::uint8_t kTxCmdRs = 0x08;
constexpr std::uint8_t kDescDd = 0x01;
constexpr std::uint8_t kRxStEop = 0x02;

/** Driver buffer per descriptor. */
constexpr sim::Bytes kBufSize = 2048;

/** The frame a descriptor at @p desc points to. */
net::Frame
descFrame(const PhysMem &mem, sim::Addr desc)
{
    return readWireFrame(mem, mem.read64(desc), mem.read16(desc + kDescLen),
                         mem.read16(desc + kDescSpecial));
}

bool
descDone(const PhysMem &mem, sim::Addr desc)
{
    return mem.read8(desc + kDescStatus) & kDescDd;
}

} // namespace

net::Frame
readWireFrame(const PhysMem &mem, sim::Addr buf, std::uint16_t len,
              std::uint16_t special)
{
    std::array<std::uint8_t, kWireHeader> h;
    mem.read(buf, h.data(), h.size());
    net::Frame f;
    for (int i = 0; i < 6; ++i) {
        f.dst = (f.dst << 8) | h[i];
        f.src = (f.src << 8) | h[6 + i];
    }
    f.etherType = static_cast<std::uint16_t>((h[12] << 8) | h[13]);
    f.payload.resize(len > kWireHeader ? len - kWireHeader : 0);
    if (!f.payload.empty())
        mem.read(buf + kWireHeader, f.payload.data(), f.payload.size());
    f.padding = sim::Bytes(special) << 3;
    return f;
}

void
writeWireFrame(PhysMem &mem, sim::Addr buf, const net::Frame &frame)
{
    std::array<std::uint8_t, kWireHeader> h;
    for (int i = 0; i < 6; ++i) {
        h[i] = static_cast<std::uint8_t>(frame.dst >> (8 * (5 - i)));
        h[6 + i] = static_cast<std::uint8_t>(frame.src >> (8 * (5 - i)));
    }
    h[12] = static_cast<std::uint8_t>(frame.etherType >> 8);
    h[13] = static_cast<std::uint8_t>(frame.etherType);
    mem.write(buf, h.data(), h.size());
    if (!frame.payload.empty())
        mem.write(buf + kWireHeader, frame.payload.data(),
                  frame.payload.size());
}

// --- the device's side ---

std::uint32_t *
RegFile::reg(sim::Addr offset)
{
    switch (offset) {
      case kIcr:
        return &icr;
      case kIms:
        return &ims;
      case kRctl:
        return &rctl;
      case kTctl:
        return &tctl;
      case kRdbal:
        return &rdbal;
      case kRdlen:
        return &rdlen;
      case kRdh:
        return &rdh;
      case kRdt:
        return &rdt;
      case kTdbal:
        return &tdbal;
      case kTdlen:
        return &tdlen;
      case kTdh:
        return &tdh;
      case kTdt:
        return &tdt;
      default:
        return nullptr;
    }
}

bool
RegFile::read(sim::Addr offset, std::uint64_t &value)
{
    std::uint32_t *r = reg(offset);
    if (r == nullptr)
        return false;
    value = *r;
    if (r == &icr)
        icr = 0;
    return true;
}

bool
RegFile::write(sim::Addr offset, std::uint32_t value)
{
    if (offset == kIms) {
        ims |= value;
        return true;
    }
    if (offset == kImc) {
        ims &= ~value;
        return true;
    }
    std::uint32_t *r = reg(offset);
    if (r == nullptr || r == &icr)
        return false;
    *r = value;
    return true;
}

void
RegFile::programRings(const BusView &view, sim::Addr base) const
{
    for (auto [off, v] : {std::pair{kRdbal, rdbal}, {kRdlen, rdlen},
                          {kRdh, rdh}, {kRdt, rdt}, {kRctl, rctl},
                          {kTdbal, tdbal}, {kTdlen, tdlen}, {kTdh, tdh},
                          {kTdt, tdt}, {kTctl, tctl}})
        view.write(IoSpace::Mmio, base + off, v, 4);
}

bool
RegFile::txPending() const
{
    return tdlen / kDescSize != 0 && tdh != tdt;
}

sim::Bytes
RegFile::txHeadWire(const PhysMem &mem) const
{
    if (!txPending())
        return 0;
    sim::Addr d = sim::Addr(tdbal) + tdh * kDescSize;
    return wireSize(mem.read16(d + kDescLen), mem.read16(d + kDescSpecial));
}

RegFile::TxSlot
RegFile::txRead(const PhysMem &mem, net::Frame &frame) const
{
    sim::Addr d = sim::Addr(tdbal) + tdh * kDescSize;
    frame = descFrame(mem, d);
    return TxSlot{d, unsigned(tdlen / kDescSize),
                  (mem.read8(d + kDescCmd) & kTxCmdRs) != 0};
}

void
RegFile::txComplete(PhysMem &mem, const TxSlot &slot)
{
    mem.write8(slot.desc + kDescStatus,
               static_cast<std::uint8_t>(
                   mem.read8(slot.desc + kDescStatus) | kDescDd));
    tdh = (tdh + 1) % slot.count;
}

bool
RegFile::rxFill(PhysMem &mem, const net::Frame &frame)
{
    unsigned count = rdlen / kDescSize;
    if (!(rctl & kRctlEn) || count == 0 || rdh == rdt)
        return false;
    sim::Addr d = sim::Addr(rdbal) + rdh * kDescSize;
    writeWireFrame(mem, mem.read64(d), frame);
    mem.write16(d + kDescLen, static_cast<std::uint16_t>(
                                  kWireHeader + frame.payload.size()));
    mem.write8(d + kDescStatus,
               static_cast<std::uint8_t>(kDescDd | kRxStEop));
    mem.write16(d + kDescSpecial,
                static_cast<std::uint16_t>(frame.padding >> 3));
    rdh = (rdh + 1) % count;
    return true;
}

// --- the driver's side ---

DriverRing::DriverRing(PhysMem &mem_, MemArena &arena, unsigned size)
    : mem(mem_), size_(size),
      txRing(arena.alloc(size * kDescSize, 128)),
      rxRing(arena.alloc(size * kDescSize, 128)),
      txBufs(arena.alloc(size * kBufSize, 4096)),
      rxBufs(arena.alloc(size * kBufSize, 4096))
{
}

void
DriverRing::program(const BusView &view, sim::Addr base, bool interrupts)
{
    txTail_ = txClean = rxHead = 0;
    for (unsigned i = 0; i < size_; ++i) {
        sim::Addr d = rxRing + i * kDescSize;
        mem.write64(d, rxBufs + i * kBufSize);
        mem.write32(d + kDescLen, 0);
        mem.write32(d + kDescStatus, 0);
    }
    RegFile r;
    r.rdbal = static_cast<std::uint32_t>(rxRing);
    r.rdlen = r.tdlen = static_cast<std::uint32_t>(size_ * kDescSize);
    r.rdt = rxTail();
    r.rctl = kRctlEn;
    r.tdbal = static_cast<std::uint32_t>(txRing);
    r.tctl = kTctlEn;
    r.programRings(view, base);
    if (interrupts)
        view.write(IoSpace::Mmio, base + kIms, kIcrTxdw | kIcrRxt0, 4);
    else
        view.write(IoSpace::Mmio, base + kImc, ~0u, 4);
}

unsigned
DriverRing::txFree() const
{
    return size_ - 1 - (txTail_ + size_ - txClean) % size_;
}

bool
DriverRing::push(const net::Frame &frame)
{
    if (txFree() == 0)
        return false;
    sim::Addr buf = txBufs + txTail_ * kBufSize;
    sim::Bytes len = kWireHeader + frame.payload.size();
    sim::panicIfNot(len <= kBufSize, "frame exceeds ring buffer: ", len);
    writeWireFrame(mem, buf, frame);

    sim::Addr d = txRing + txTail_ * kDescSize;
    mem.write64(d, buf);
    mem.write16(d + kDescLen, static_cast<std::uint16_t>(len));
    mem.write8(d + kDescCmd, kTxCmdEop | kTxCmdRs);
    mem.write8(d + kDescStatus, 0);
    mem.write16(d + kDescSpecial,
                static_cast<std::uint16_t>(frame.padding >> 3));
    txTail_ = (txTail_ + 1) % size_;
    return true;
}

unsigned
DriverRing::reap()
{
    unsigned reaped = 0;
    while (txClean != txTail_ && descDone(mem, txRing + txClean * kDescSize)) {
        txClean = (txClean + 1) % size_;
        ++reaped;
    }
    return reaped;
}

bool
DriverRing::pop(net::Frame &frame)
{
    sim::Addr d = rxRing + rxHead * kDescSize;
    if (!descDone(mem, d))
        return false;
    frame = descFrame(mem, d);
    mem.write8(d + kDescStatus, 0);
    rxHead = (rxHead + 1) % size_;
    return true;
}

std::vector<net::Frame>
DriverRing::unsent(unsigned head) const
{
    std::vector<net::Frame> frames;
    for (unsigned i = head; i != txTail_; i = (i + 1) % size_) {
        sim::Addr d = txRing + i * kDescSize;
        if (!descDone(mem, d))
            frames.push_back(descFrame(mem, d));
    }
    return frames;
}

} // namespace e1000
} // namespace hw
