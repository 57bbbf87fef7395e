/**
 * @file
 * Ethernet frame representation.
 *
 * Frames carry real byte payloads; higher layers (the AoE protocol in
 * src/aoe) serialize into and parse out of these bytes, so protocol
 * encode/decode paths are genuinely exercised.
 */

#ifndef NET_FRAME_HH
#define NET_FRAME_HH

#include <cstdint>
#include <vector>

#include "simcore/types.hh"

namespace net {

/** A 48-bit MAC address, stored in the low bits of a u64. */
using MacAddr = std::uint64_t;

/** Destination address for broadcast frames. */
constexpr MacAddr kBroadcastMac = 0xFFFFFFFFFFFFULL;

/** Ethernet framing overhead: header (14) + FCS (4). */
constexpr sim::Bytes kEthOverhead = 18;

/** Preamble + inter-frame gap, charged on the wire. */
constexpr sim::Bytes kEthWireExtra = 20;

/** Bytes on the wire for @p wirePayload L2 payload bytes (framing,
 *  min 64, + preamble/IFG). */
constexpr sim::Bytes
wireSize(sim::Bytes wirePayload)
{
    sim::Bytes sz = wirePayload + kEthOverhead;
    return (sz < 64 ? 64 : sz) + kEthWireExtra;
}

/** An L2 frame. */
struct Frame
{
    MacAddr src = 0;
    MacAddr dst = 0;
    std::uint16_t etherType = 0;
    std::vector<std::uint8_t> payload;

    /**
     * Bytes that are on the wire but elided from @ref payload. The
     * simulation represents a 512-byte data sector by its 8-byte
     * content token (see hw/disk_store.hh); the remaining 504 bytes
     * per sector are declared here so that serialization delays and
     * MTU checks stay exact. Zero for ordinary frames.
     */
    sim::Bytes padding = 0;

    /** L2 payload length as it would appear on the wire. */
    sim::Bytes wirePayload() const { return payload.size() + padding; }

    /** Bytes on the wire (payload + framing, min 64, + preamble/IFG). */
    sim::Bytes wireSize() const { return net::wireSize(wirePayload()); }
};

} // namespace net

#endif // NET_FRAME_HH
