#include "hw/e1000_driver.hh"

#include "hw/nic_doorbell.hh"
#include "simcore/logging.hh"

namespace hw {

using namespace e1000;

E1000Driver::E1000Driver(sim::EventQueue &eq, std::string name,
                         BusView view_, E1000Nic &nic_, PhysMem &mem_,
                         MemArena &arena, Mode mode_,
                         InterruptController *intc_p,
                         unsigned irq_vector)
    : E1000Driver(eq, std::move(name), view_, nic_.mmioBase(),
                  nic_.port().mac(), nic_.port().config().mtu, mem_,
                  arena, mode_, intc_p, irq_vector)
{
}

E1000Driver::E1000Driver(sim::EventQueue &eq, std::string name,
                         BusView view_, sim::Addr mmio_base,
                         net::MacAddr mac, sim::Bytes mtu,
                         PhysMem &mem_, MemArena &arena, Mode mode_,
                         InterruptController *intc_p,
                         unsigned irq_vector)
    : sim::SimObject(eq, std::move(name)),
      view(view_), mem(mem_), mode(mode_), base(mmio_base),
      mac_(mac), mtu_(mtu), ring(mem_, arena, kRingSize)
{
    // Polling mode masks every cause (paper §4.3).
    ring.program(view, base, mode == Mode::Interrupt);

    if (mode == Mode::Interrupt) {
        sim::fatalIf(intc_p == nullptr,
                     "interrupt-mode driver needs a controller");
        intc = intc_p;
        irqVector = irq_vector;
        irqHandler = intc->registerHandler(
            irq_vector, [this]() { serviceIrq(); });
    }
}

E1000Driver::~E1000Driver()
{
    if (intc && irqHandler)
        intc->unregisterHandler(irqVector, irqHandler);
}

void
E1000Driver::attachDoorbell(sim::Addr page)
{
    dbPage = page;
    // Publish the current tails so the poller's mirrors line up with
    // the trapped setup writes that already happened.
    nicdb::init(mem, page, ring.txTail(), ring.rxTail());
}

net::MacAddr
E1000Driver::localMac() const
{
    return mac_;
}

sim::Bytes
E1000Driver::mtu() const
{
    return mtu_;
}

void
E1000Driver::sendFrame(net::Frame frame)
{
    frame.src = localMac();
    txBacklog.push_back(std::move(frame));
    pumpTx();
}

void
E1000Driver::pumpTx()
{
    bool queued = false;
    while (!txBacklog.empty() && ring.push(txBacklog.front())) {
        txBacklog.pop_front();
        ++numTx;
        queued = true;
    }
    if (queued) {
        if (dbPage)
            nicdb::ringTx(mem, dbPage, ring.txTail());
        else
            view.write(IoSpace::Mmio, base + kTdt, ring.txTail(), 4);
    }
}

unsigned
E1000Driver::poll()
{
    ring.reap();
    pumpTx();

    // Deliver received frames, handing each descriptor back first.
    unsigned delivered = 0;
    net::Frame f;
    while (ring.pop(f)) {
        if (dbPage)
            nicdb::ringRx(mem, dbPage, ring.rxTail());
        else
            view.write(IoSpace::Mmio, base + kRdt, ring.rxTail(), 4);
        ++numRx;
        ++delivered;
        if (rx)
            rx(f);
    }
    return delivered;
}

void
E1000Driver::serviceIrq()
{
    // Read-to-clear the cause register, then service both directions.
    // On the exitless path the causes live in the doorbell page.
    if (dbPage)
        nicdb::takeCauses(mem, dbPage);
    else
        view.read(IoSpace::Mmio, base + kIcr, 4);
    poll();
}

} // namespace hw
