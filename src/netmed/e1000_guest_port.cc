#include "netmed/e1000_guest_port.hh"

#include "hw/nic_doorbell.hh"
#include "simcore/logging.hh"

namespace netmed {

using namespace hw::e1000;
using hw::IoSpace;

E1000GuestPort::E1000GuestPort(std::string name, hw::IoBus &bus_,
                               hw::PhysMem &mem_,
                               sim::Addr window_base,
                               bool virtual_window,
                               sim::Addr doorbell,
                               hw::InterruptController *intc_,
                               unsigned irq_vector)
    : name_(std::move(name)), bus(bus_), mem(mem_), base(window_base),
      virtualWindow(virtual_window), dbPage(doorbell),
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
                             return o == kStatus ? kStatusLinkUp
                                                 : 0;
                         },
                         [](sim::Addr, std::uint64_t, unsigned) {}});
        deviceAdded = true;
    }
    hooks_ = std::move(hooks);
    regs_ = hw::e1000::RegFile{};
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
    regs_.rdt = hw::nicdb::rxTail(mem, dbPage);
    bool moved = tx != regs_.tdt;
    regs_.tdt = tx;
    return moved;
}

bool
E1000GuestPort::takeTx(net::Frame &frame)
{
    if (!regs_.txPending())
        return false;
    regs_.txComplete(mem, regs_.txRead(mem, frame));
    return true;
}

void
E1000GuestPort::postCause(std::uint32_t cause)
{
    if (dbPage)
        hw::nicdb::postCause(mem, dbPage, cause);
    else
        regs_.icr |= cause;
    if (intc && (regs_.ims & cause))
        intc->raise(irqVector);
}

bool
E1000GuestPort::interceptRead(sim::Addr addr, unsigned size,
                              std::uint64_t &value)
{
    (void)size;
    // Guest ISR entry: sync the shadow RX into the guest ring before
    // the guest looks at the causes.
    if (addr - base == kIcr && hooks_.rxSync)
        hooks_.rxSync();
    // Registers outside the file (STATUS etc.) go to the device on the
    // real window and to the stub on a virtual one.
    return regs_.read(addr - base, value);
}

bool
E1000GuestPort::interceptWrite(sim::Addr addr, std::uint64_t value,
                               unsigned size)
{
    (void)size;
    if (!regs_.write(addr - base, static_cast<std::uint32_t>(value)))
        return false;
    if (addr - base == kTdt) {
        if (hooks_.txKick)
            hooks_.txKick();
        // The guest expects a TX-done interrupt; the real device
        // raises one for the shadow descriptors carrying its frames,
        // and virtual windows get a virtual edge.
        if (dbPage)
            hw::nicdb::postCause(mem, dbPage, kIcrTxdw);
        else
            regs_.icr |= kIcrTxdw;
        if (virtualWindow && intc && (regs_.ims & kIcrTxdw))
            intc->raise(irqVector);
    }
    return true;
}

} // namespace netmed
