#include "hw/nic.hh"

#include "simcore/logging.hh"

namespace hw {

using namespace e1000;

const char *
nicModelName(NicModel model)
{
    switch (model) {
      case NicModel::Pro1000:
        return "Intel PRO/1000";
      case NicModel::X540:
        return "Intel X540";
      case NicModel::Rtl816x:
        return "Realtek RTL816x";
      case NicModel::NetXtreme:
        return "Broadcom NetXtreme";
    }
    return "unknown";
}

double
nicModelSpeed(NicModel model)
{
    return model == NicModel::X540 ? 10e9 : 1e9;
}

E1000Nic::E1000Nic(sim::EventQueue &eq, std::string name,
                   NicModel model, IoBus &bus_, PhysMem &mem_,
                   net::Port &port, sim::Addr mmio_base, IrqLine irq_)
    : sim::SimObject(eq, std::move(name)),
      model_(model), bus(bus_), mem(mem_), port_(port),
      base(mmio_base), irq(irq_)
{
    bus.addDevice(IoSpace::Mmio, base, kMmioSize,
                  IoDevice{this->name(),
                           [this](sim::Addr o, unsigned s) {
                               return mmioRead(o, s);
                           },
                           [this](sim::Addr o, std::uint64_t v,
                                  unsigned s) { mmioWrite(o, v, s); }});
    port_.onReceive([this](const net::Frame &f) { onFrame(f); });
}

std::uint64_t
E1000Nic::mmioRead(sim::Addr offset, unsigned size)
{
    (void)size;
    std::uint64_t v = 0;
    if (!regs.read(offset, v))
        v = offset == kStatus ? kStatusLinkUp : 0;
    return v;
}

void
E1000Nic::mmioWrite(sim::Addr offset, std::uint64_t value,
                    unsigned size)
{
    (void)size;
    if (regs.write(offset, static_cast<std::uint32_t>(value)) &&
        offset == kTdt && (regs.tctl & kTctlEn))
        processTx();
}

void
E1000Nic::processTx()
{
    if (txInProgress || !regs.txPending())
        return;
    txInProgress = true;

    // Per-frame DMA/processing cost before the frame hits the wire.
    schedule(2 * sim::kUs, [this]() {
        txInProgress = false;
        if (!regs.txPending())
            return;

        net::Frame frame;
        RegFile::TxSlot slot = regs.txRead(mem, frame);

        auto finish = [this, slot](net::Frame f) {
            port_.send(std::move(f));
            ++numTx;
            regs.txComplete(mem, slot);
            if (slot.irq)
                raiseIrq(kIcrTxdw);
            processTx();
        };

        // Software-passthrough pacing: the tap books the frame on its
        // budget and the descriptor completes only once the frame may
        // hit the wire.
        if (txTap) {
            sim::Tick allowed = txTap(frame, now());
            if (allowed > now()) {
                txInProgress = true;
                schedule(allowed - now(),
                         [this, finish,
                          frame = std::move(frame)]() mutable {
                             txInProgress = false;
                             finish(std::move(frame));
                         });
                return;
            }
        }
        finish(std::move(frame));
    });
}

void
E1000Nic::onFrame(const net::Frame &frame)
{
    if (rxTap && rxTap(frame)) {
        // Steered away (the VMM's traffic); the rings never see it.
        ++numRxSteered;
        return;
    }
    if (!regs.rxFill(mem, frame)) {
        // RX disabled, or no receive descriptor available.
        ++numRxDropped;
        return;
    }
    ++numRx;
    raiseIrq(kIcrRxt0);
}

void
E1000Nic::raiseIrq(std::uint32_t cause)
{
    regs.icr |= cause;
    if (regs.ims & cause)
        irq.raise();
}

} // namespace hw
