#include "netmed/e1000_guest_port.hh"

#include "hw/nic.hh"
#include "hw/nic_doorbell.hh"
#include "simcore/logging.hh"

namespace netmed {

using namespace hw::e1000;
using hw::IoSpace;

namespace {

/** On-wire size of a frame from its descriptor fields alone. */
sim::Bytes
descWireSize(std::uint16_t len, std::uint16_t special)
{
    net::Frame f;
    f.payload.resize(len > 14 ? len - 14 : 0);
    f.padding = sim::Bytes(special) << 3;
    return f.wireSize();
}

} // namespace

E1000GuestPort::E1000GuestPort(std::string name, hw::IoBus &bus_,
                               hw::PhysMem &mem_,
                               sim::Addr window_base,
                               bool virtual_window, MedMode mode_,
                               sim::Addr doorbell,
                               hw::InterruptController *intc_,
                               unsigned irq_vector)
    : name_(std::move(name)), bus(bus_), mem(mem_), base(window_base),
      virtualWindow(virtual_window), mode(mode_), dbPage(doorbell),
      intc(intc_), irqVector(irq_vector)
{
    sim::fatalIf(virtualWindow && intc == nullptr,
                 name_, ": a virtual window needs an interrupt path");
}

void
E1000GuestPort::attach(GuestPortHooks hooks)
{
    sim::panicIfNot(!attached, name_, ": guest port attached twice");
    if (virtualWindow && !deviceAdded) {
        // Stub device: the bus requires a range to intercept, and
        // unvirtualized reads (STATUS) must still look like a NIC.
        bus.addDevice(
            IoSpace::Mmio, base, kMmioSize,
            hw::IoDevice{name_,
                         [](sim::Addr o, unsigned) -> std::uint64_t {
                             return o == kStatus ? 0x2 : 0;
                         },
                         [](sim::Addr, std::uint64_t, unsigned) {}});
        deviceAdded = true;
    }
    hooks_ = std::move(hooks);
    g = GuestRingState{};
    bus.intercept(IoSpace::Mmio, base, kMmioSize, this);
    attached = true;
    if (dbPage)
        hw::nicdb::init(mem, dbPage, 0, 0);
}

void
E1000GuestPort::detach()
{
    sim::panicIfNot(attached, name_, ": guest port not attached");
    bus.removeIntercept(IoSpace::Mmio, base, kMmioSize);
    attached = false;
}

bool
E1000GuestPort::syncDoorbell()
{
    if (!dbPage)
        return false;
    std::uint32_t tx = hw::nicdb::txTail(mem, dbPage);
    g.rdt = hw::nicdb::rxTail(mem, dbPage);
    bool moved = tx != g.tdt;
    g.tdt = tx;
    return moved;
}

sim::Bytes
E1000GuestPort::peekTxWire()
{
    unsigned count = g.tdlen / kDescSize;
    if (count == 0 || g.tdh == g.tdt)
        return 0;
    sim::Addr d = sim::Addr(g.tdbal) + g.tdh * kDescSize;
    return descWireSize(mem.read16(d + 8), mem.read16(d + 14));
}

bool
E1000GuestPort::takeTx(net::Frame &frame)
{
    unsigned count = g.tdlen / kDescSize;
    if (count == 0 || g.tdh == g.tdt)
        return false;
    sim::Addr d = sim::Addr(g.tdbal) + g.tdh * kDescSize;
    sim::Addr buf = mem.read64(d);
    std::uint16_t len = mem.read16(d + 8);
    std::uint16_t special = mem.read16(d + 14);

    frame = readWireFrame(mem, buf, len, special);

    // Complete the guest descriptor.
    mem.write8(d + 12,
               static_cast<std::uint8_t>(mem.read8(d + 12) | kDescDd));
    g.tdh = (g.tdh + 1) % count;
    return true;
}

bool
E1000GuestPort::deliverRx(const net::Frame &frame)
{
    unsigned count = g.rdlen / kDescSize;
    if (!(g.rctl & kRctlEn) || count == 0 || g.rdh == g.rdt)
        return false; // guest not ready: drop, as hardware would
    sim::Addr d = sim::Addr(g.rdbal) + g.rdh * kDescSize;
    sim::Addr buf = mem.read64(d);
    writeWireFrame(mem, buf, frame);
    mem.write16(d + 8, static_cast<std::uint16_t>(
                           kWireHeader + frame.payload.size()));
    mem.write8(d + 12,
               static_cast<std::uint8_t>(kDescDd | kRxStEop));
    mem.write16(d + 14,
                static_cast<std::uint16_t>(frame.padding >> 3));
    g.rdh = (g.rdh + 1) % count;
    return true;
}

void
E1000GuestPort::postCause(std::uint32_t cause)
{
    if (dbPage)
        hw::nicdb::postCause(mem, dbPage, cause);
    else
        g.icr |= cause;
    if (intc && (g.ims & cause))
        intc->raise(irqVector);
}

void
E1000GuestPort::postTxCause()
{
    postCause(kIcrTxdw);
}

void
E1000GuestPort::postRxCause()
{
    postCause(kIcrRxt0);
}

GuestRingState
E1000GuestPort::rings() const
{
    return g;
}

bool
E1000GuestPort::interceptRead(sim::Addr addr, unsigned size,
                              std::uint64_t &value)
{
    (void)size;
    switch (addr - base) {
      case kIcr: {
        // Guest ISR entry: sync the shadow RX into the guest ring
        // before the guest looks, then hand over the causes.
        if (hooks_.rxSync)
            hooks_.rxSync();
        value = g.icr;
        g.icr = 0;
        return true;
      }
      case kTdh:
        value = g.tdh;
        return true;
      case kTdt:
        value = g.tdt;
        return true;
      case kRdh:
        value = g.rdh;
        return true;
      case kRdt:
        value = g.rdt;
        return true;
      case kTdbal:
        value = g.tdbal;
        return true;
      case kRdbal:
        value = g.rdbal;
        return true;
      case kIms:
        value = g.ims;
        return true;
      default:
        // Real window: STATUS etc. pass through to the device.
        // Virtual window: the stub device answers.
        return false;
    }
}

bool
E1000GuestPort::interceptWrite(sim::Addr addr, std::uint64_t value,
                               unsigned size)
{
    (void)size;
    auto v = static_cast<std::uint32_t>(value);
    switch (addr - base) {
      case kTdbal:
        g.tdbal = v;
        return true;
      case kTdlen:
        g.tdlen = v;
        return true;
      case kTdh:
        g.tdh = v;
        return true;
      case kTdt:
        g.tdt = v;
        if (hooks_.txKick)
            hooks_.txKick();
        // The guest expects a TX-done interrupt; the real device
        // raises one for the shadow descriptors carrying its frames,
        // and virtual windows get a virtual edge.
        if (dbPage)
            hw::nicdb::postCause(mem, dbPage, kIcrTxdw);
        else
            g.icr |= kIcrTxdw;
        if (virtualWindow && intc && (g.ims & kIcrTxdw))
            intc->raise(irqVector);
        return true;
      case kRdbal:
        g.rdbal = v;
        return true;
      case kRdlen:
        g.rdlen = v;
        return true;
      case kRdh:
        g.rdh = v;
        return true;
      case kRdt:
        g.rdt = v;
        return true;
      case kRctl:
        g.rctl = v;
        return true;
      case kTctl:
        g.tctl = v;
        return true;
      case kIms:
        g.ims |= v;
        return true;
      case kImc:
        g.ims &= ~v;
        return true;
      default:
        return false;
    }
}

} // namespace netmed
