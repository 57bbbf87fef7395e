#include "hw/nic.hh"

#include <array>

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

namespace e1000 {

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

} // namespace e1000

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
    switch (offset) {
      case kCtrl:
        return 0;
      case kStatus:
        return 0x2; // link up
      case kIcr: {
        std::uint32_t v = icr;
        icr = 0; // read-to-clear
        return v;
      }
      case kIms:
        return ims;
      case kRctl:
        return rctl;
      case kTctl:
        return tctl;
      case kRdbal:
        return rdbal;
      case kRdlen:
        return rdlen;
      case kRdh:
        return rdh;
      case kRdt:
        return rdt;
      case kTdbal:
        return tdbal;
      case kTdlen:
        return tdlen;
      case kTdh:
        return tdh;
      case kTdt:
        return tdt;
      default:
        return 0;
    }
}

void
E1000Nic::mmioWrite(sim::Addr offset, std::uint64_t value,
                    unsigned size)
{
    (void)size;
    auto v = static_cast<std::uint32_t>(value);
    switch (offset) {
      case kIms:
        ims |= v;
        break;
      case kImc:
        ims &= ~v;
        break;
      case kRctl:
        rctl = v;
        break;
      case kTctl:
        tctl = v;
        break;
      case kRdbal:
        rdbal = v;
        break;
      case kRdlen:
        rdlen = v;
        break;
      case kRdh:
        rdh = v;
        break;
      case kRdt:
        rdt = v;
        break;
      case kTdbal:
        tdbal = v;
        break;
      case kTdlen:
        tdlen = v;
        break;
      case kTdh:
        tdh = v;
        break;
      case kTdt:
        tdt = v;
        if (tctl & kTctlEn)
            processTx();
        break;
      default:
        break;
    }
}

void
E1000Nic::processTx()
{
    if (txInProgress)
        return;
    unsigned count = tdlen / kDescSize;
    if (count == 0 || tdh == tdt)
        return;
    txInProgress = true;

    // Per-frame DMA/processing cost before the frame hits the wire.
    schedule(2 * sim::kUs, [this]() {
        txInProgress = false;
        unsigned count2 = tdlen / kDescSize;
        if (count2 == 0 || tdh == tdt)
            return;

        sim::Addr desc = sim::Addr(tdbal) + tdh * kDescSize;
        sim::Addr buf = mem.read64(desc);
        std::uint16_t length = mem.read16(desc + 8);
        std::uint8_t cmd = mem.read8(desc + 11);
        std::uint16_t special = mem.read16(desc + 14);

        net::Frame frame = readWireFrame(mem, buf, length, special);

        auto finish = [this, desc, cmd, count2](net::Frame f) {
            port_.send(std::move(f));
            ++numTx;

            // Write back DD and advance head.
            mem.write8(desc + 12, static_cast<std::uint8_t>(
                                      mem.read8(desc + 12) |
                                      kDescDd));
            tdh = (tdh + 1) % count2;
            if (cmd & kTxCmdRs)
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
    if (!(rctl & kRctlEn)) {
        ++numRxDropped;
        return;
    }
    unsigned count = rdlen / kDescSize;
    if (count == 0 || rdh == rdt) {
        // No receive descriptors available.
        ++numRxDropped;
        return;
    }

    sim::Addr desc = sim::Addr(rdbal) + rdh * kDescSize;
    sim::Addr buf = mem.read64(desc);

    writeWireFrame(mem, buf, frame);

    auto length =
        static_cast<std::uint16_t>(kWireHeader + frame.payload.size());
    mem.write16(desc + 8, length);
    mem.write8(desc + 12,
               static_cast<std::uint8_t>(kDescDd | kRxStEop));
    mem.write16(desc + 14,
                static_cast<std::uint16_t>(frame.padding >> 3));

    rdh = (rdh + 1) % count;
    ++numRx;
    raiseIrq(kIcrRxt0);
}

void
E1000Nic::raiseIrq(std::uint32_t cause)
{
    icr |= cause;
    if (ims & cause)
        irq.raise();
}

} // namespace hw
