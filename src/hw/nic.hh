/**
 * @file
 * An e1000-class NIC model with legacy descriptor rings.
 *
 * One register model serves the four adapter families the BMcast
 * prototype wrote drivers for (Intel PRO/1000 and X540, Realtek
 * RTL816x, Broadcom NetXtreme); they differ here only in name and
 * default link speed, mirroring the paper's observation that the
 * minimal send/receive-with-polling driver surface is small and
 * similar across parts.
 *
 * Descriptor rings live in simulated physical memory and are walked
 * by real register-programmed head/tail indices. The register file and
 * the device's walk over the rings are e1000::RegFile
 * (hw/e1000_ring.hh), the one device-side ring model: this device
 * drives it with DMA timing and TX pacing, and the shared-NIC
 * mediator (shadow rings, §6) drives the same type over each guest's
 * virtualized register window. The driver's side of every ring —
 * hw::E1000Driver's and the mediator's shadow rings — is the one
 * e1000::DriverRing.
 */

#ifndef HW_NIC_HH
#define HW_NIC_HH

#include <cstdint>
#include <functional>
#include <string>

#include "hw/e1000_ring.hh"
#include "hw/interrupts.hh"
#include "hw/io_bus.hh"
#include "hw/phys_mem.hh"
#include "net/network.hh"
#include "simcore/sim_object.hh"

namespace hw {

/** Adapter families supported by the BMcast prototype. */
enum class NicModel { Pro1000, X540, Rtl816x, NetXtreme };

/** Marketing name of a family. */
const char *nicModelName(NicModel model);

/** Default link speed of a family in bits per second. */
double nicModelSpeed(NicModel model);

/** The NIC device: the physical side of one e1000::RegFile. */
class E1000Nic : public sim::SimObject
{
  public:
    E1000Nic(sim::EventQueue &eq, std::string name, NicModel model,
             IoBus &bus, PhysMem &mem, net::Port &port,
             sim::Addr mmioBase, IrqLine irq);

    /** @name Register interface (invoked via the IoBus). */
    /// @{
    std::uint64_t mmioRead(sim::Addr offset, unsigned size);
    void mmioWrite(sim::Addr offset, std::uint64_t value, unsigned size);
    /// @}

    NicModel model() const { return model_; }
    net::Port &port() { return port_; }
    sim::Addr mmioBase() const { return base; }

    /**
     * @name Software-passthrough taps (netmed tier).
     * The taps are the only mediation the VMM retains when a guest
     * owns the real rings: the TX tap paces an outgoing frame (it
     * returns the earliest tick the frame may hit the wire — a
     * token-bucket admit, charged exactly once per frame), the RX tap
     * may consume an incoming frame before the rings see it (steering
     * the VMM's own traffic away from the guest). Unset taps leave
     * the device bit-identical to the tap-less model.
     */
    /// @{
    using TxTap = std::function<sim::Tick(const net::Frame &,
                                          sim::Tick now)>;
    using RxTap = std::function<bool(const net::Frame &)>;
    void setTxTap(TxTap t) { txTap = std::move(t); }
    void setRxTap(RxTap t) { rxTap = std::move(t); }
    /** Frames the RX tap consumed (steered to the VMM). */
    std::uint64_t rxSteered() const { return numRxSteered; }
    /// @}

    std::uint64_t framesTransmitted() const { return numTx; }
    std::uint64_t framesReceived() const { return numRx; }
    std::uint64_t rxDropped() const { return numRxDropped; }

  private:
    void processTx();
    void onFrame(const net::Frame &frame);
    void raiseIrq(std::uint32_t cause);

    NicModel model_;
    IoBus &bus;
    PhysMem &mem;
    net::Port &port_;
    sim::Addr base;
    IrqLine irq;

    e1000::RegFile regs;

    bool txInProgress = false;

    TxTap txTap;
    RxTap rxTap;

    std::uint64_t numTx = 0;
    std::uint64_t numRx = 0;
    std::uint64_t numRxDropped = 0;
    std::uint64_t numRxSteered = 0;
};

} // namespace hw

#endif // HW_NIC_HH
