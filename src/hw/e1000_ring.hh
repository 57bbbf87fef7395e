/**
 * @file
 * The e1000 legacy descriptor-ring model, written once for each side
 * of a ring.
 *
 *  - RegFile is the device's side: the ring and interrupt registers,
 *    and the walk a device makes over the rings (head TX descriptor
 *    to frame, DD write-back, RX fill). hw::E1000Nic holds one for
 *    the physical device; the shared-NIC mediator holds one per guest
 *    for the register window it virtualizes (netmed::E1000GuestPort).
 *  - DriverRing is the driver's side: descriptor and buffer memory,
 *    programming it into a register window, and push / reap / pop.
 *    hw::E1000Driver owns one; the mediator's shadow rings are
 *    another.
 *
 * Neither side schedules events or rings a doorbell: when a
 * descriptor is read or completed, and whether a tail travels through
 * MMIO or the exitless doorbell page, stays with the caller.
 */

#ifndef HW_E1000_RING_HH
#define HW_E1000_RING_HH

#include <cstdint>
#include <vector>

#include "hw/io_bus.hh"
#include "hw/mem_arena.hh"
#include "hw/phys_mem.hh"
#include "net/frame.hh"

namespace hw {
namespace e1000 {

/** Register offsets (subset of the 8254x map). */
constexpr sim::Addr kCtrl = 0x0000;
constexpr sim::Addr kStatus = 0x0008;
constexpr sim::Addr kIcr = 0x00C0; //!< read-to-clear
constexpr sim::Addr kIms = 0x00D0;
constexpr sim::Addr kImc = 0x00D8;
constexpr sim::Addr kRctl = 0x0100;
constexpr sim::Addr kTctl = 0x0400;
constexpr sim::Addr kRdbal = 0x2800;
constexpr sim::Addr kRdlen = 0x2808;
constexpr sim::Addr kRdh = 0x2810;
constexpr sim::Addr kRdt = 0x2818;
constexpr sim::Addr kTdbal = 0x3800;
constexpr sim::Addr kTdlen = 0x3808;
constexpr sim::Addr kTdh = 0x3810;
constexpr sim::Addr kTdt = 0x3818;

constexpr sim::Addr kMmioSize = 0x8000;

/** STATUS value: link up. */
constexpr std::uint32_t kStatusLinkUp = 0x2;

/** Interrupt cause bits. */
constexpr std::uint32_t kIcrTxdw = 0x01;
constexpr std::uint32_t kIcrRxt0 = 0x80;

/** RCTL/TCTL enable bits. */
constexpr std::uint32_t kRctlEn = 0x02;
constexpr std::uint32_t kTctlEn = 0x02;

/** Bytes of the Ethernet header at the start of a descriptor buffer. */
constexpr sim::Bytes kWireHeader = 14;

/**
 * Parse the frame in a descriptor buffer: the wire header at @p buf
 * (destination and source MACs, then the ether type, all big-endian),
 * followed by @p len - 14 payload bytes. The descriptor's special
 * field carries the elided bulk bytes (see net/frame.hh):
 * padding = special << 3.
 */
net::Frame readWireFrame(const PhysMem &mem, sim::Addr buf,
                         std::uint16_t len, std::uint16_t special);

/**
 * Write @p frame's wire header and payload at @p buf, in the layout
 * readWireFrame() parses. The descriptor (length, special) is the
 * caller's.
 */
void writeWireFrame(PhysMem &mem, sim::Addr buf, const net::Frame &frame);

/** readWireFrame(mem, buf, len, special).wireSize(), without the read. */
constexpr sim::Bytes
wireSize(std::uint16_t len, std::uint16_t special)
{
    return net::wireSize((len > kWireHeader ? len - kWireHeader : 0) +
                         (sim::Bytes(special) << 3));
}

/** One e1000 register file and the device's walk over its rings. */
struct RegFile
{
    std::uint32_t icr = 0, ims = 0, rctl = 0, tctl = 0;
    std::uint32_t rdbal = 0, rdlen = 0, rdh = 0, rdt = 0;
    std::uint32_t tdbal = 0, tdlen = 0, tdh = 0, tdt = 0;

    /**
     * Read register @p offset into @p value; ICR is read-to-clear.
     * @return false for an offset the file does not hold (CTRL,
     * STATUS, IMC, unmapped): the caller answers those.
     */
    bool read(sim::Addr offset, std::uint64_t &value);

    /**
     * Write register @p offset: IMS sets mask bits, IMC clears them.
     * @return false for an offset the file does not hold (ICR
     * included): the caller decides what such a write does.
     */
    bool write(sim::Addr offset, std::uint32_t value);

    /**
     * Program this file's RX then TX ring registers (base, length,
     * head, tail, control) into the window at @p base.
     */
    void programRings(const BusView &view, sim::Addr base) const;

    /** A TX descriptor is waiting: TDH != TDT on a non-empty ring. */
    bool txPending() const;

    /** On-wire size of the head TX frame; 0 when none is pending. */
    sim::Bytes txHeadWire(const PhysMem &mem) const;

    /** A TX descriptor the device has read but not written back. */
    struct TxSlot
    {
        sim::Addr desc = 0;
        unsigned count = 0; //!< ring length when the descriptor was read
        bool irq = false;   //!< RS: report completion with TXDW
    };

    /** Read the head TX descriptor (txPending() holds) into @p frame. */
    TxSlot txRead(const PhysMem &mem, net::Frame &frame) const;

    /** Write DD back to @p slot's descriptor and advance TDH. */
    void txComplete(PhysMem &mem, const TxSlot &slot);

    /**
     * Fill the head RX descriptor with @p frame and advance RDH.
     * @return false, touching nothing, when RX is disabled or the
     * driver has posted no free descriptor.
     */
    bool rxFill(PhysMem &mem, const net::Frame &frame);

  private:
    std::uint32_t *reg(sim::Addr offset);
};

/**
 * The driver's side of one TX/RX ring pair. One TX descriptor always
 * stays empty, so TDH == TDT means an idle ring; one RX descriptor is
 * always the driver's, so RDH == RDT means a full one.
 */
class DriverRing
{
  public:
    /** Rings of @p size descriptors, and their buffers, from @p arena. */
    DriverRing(PhysMem &mem, MemArena &arena, unsigned size);

    /**
     * Reset both rings, hand every RX descriptor but one to the
     * device, and program the register window at @p base through
     * @p view. @p interrupts arms TXDW and RXT0; otherwise every
     * cause is masked (a polled device).
     */
    void program(const BusView &view, sim::Addr base, bool interrupts);

    /** TX descriptors free for push(). */
    unsigned txFree() const;

    /**
     * Copy @p frame into the next TX descriptor. @return false when
     * the ring is full. The caller rings TDT with txTail().
     */
    bool push(const net::Frame &frame);

    /** TDT covering every pushed frame. */
    unsigned txTail() const { return txTail_; }

    /** Reclaim TX descriptors the device completed. @return count. */
    unsigned reap();

    /**
     * Pop the next completed RX descriptor into @p frame and return
     * it to the device. @return false when none is complete. The
     * caller rings RDT with rxTail().
     */
    bool pop(net::Frame &frame);

    /** RDT: the descriptor most recently handed back. */
    unsigned rxTail() const { return (rxHead + size_ - 1) % size_; }

    /**
     * Frames in TX descriptors [@p head, txTail()) that the device has
     * not completed: pushed, but not yet on the wire.
     */
    std::vector<net::Frame> unsent(unsigned head) const;

  private:
    PhysMem &mem;
    unsigned size_;
    sim::Addr txRing, rxRing, txBufs, rxBufs;
    unsigned txTail_ = 0; //!< next TX descriptor to fill
    unsigned txClean = 0; //!< next TX descriptor to reclaim
    unsigned rxHead = 0;  //!< next RX descriptor to examine
};

} // namespace e1000
} // namespace hw

#endif // HW_E1000_RING_HH
