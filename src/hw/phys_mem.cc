#include "hw/phys_mem.hh"

#include <algorithm>

#include "simcore/logging.hh"

namespace hw {

PhysMem::Page &
PhysMem::materialize(sim::Addr addr)
{
    std::size_t d = addr >> kLeafShift;
    if (d >= dir.size())
        dir.resize(d + 1);
    if (!dir[d])
        dir[d] = std::make_unique<Leaf>();
    auto &slot = dir[d]->pages[(addr >> kPageShift) & (kLeafPages - 1)];
    if (!slot) {
        slot = std::make_unique<Page>(); // value-initialized: zeros
        ++numPages;
    }
    return *slot;
}

void
PhysMem::readPages(sim::Addr addr, void *out, sim::Bytes len) const
{
    sim::panicIfNot(inRange(addr, len),
                    "phys read out of range: ", addr, "+", len);
    auto *dst = static_cast<std::uint8_t *>(out);
    while (len > 0) {
        sim::Bytes off = addr & (kPageSize - 1);
        sim::Bytes chunk = std::min<sim::Bytes>(len, kPageSize - off);
        if (const Page *page = findPage(addr))
            std::memcpy(dst, page->data() + off, chunk);
        else
            std::memset(dst, 0, chunk);
        dst += chunk;
        addr += chunk;
        len -= chunk;
    }
}

void
PhysMem::writePages(sim::Addr addr, const void *in, sim::Bytes len)
{
    sim::panicIfNot(inRange(addr, len),
                    "phys write out of range: ", addr, "+", len);
    auto *src = static_cast<const std::uint8_t *>(in);
    while (len > 0) {
        sim::Bytes off = addr & (kPageSize - 1);
        sim::Bytes chunk = std::min<sim::Bytes>(len, kPageSize - off);
        std::memcpy(touchPage(addr).data() + off, src, chunk);
        src += chunk;
        addr += chunk;
        len -= chunk;
    }
}

void
PhysMem::fill(sim::Addr addr, std::uint8_t value, sim::Bytes len)
{
    sim::panicIfNot(inRange(addr, len),
                    "phys fill out of range: ", addr, "+", len);
    while (len > 0) {
        sim::Bytes off = addr & (kPageSize - 1);
        sim::Bytes chunk = std::min<sim::Bytes>(len, kPageSize - off);
        std::memset(touchPage(addr).data() + off, value, chunk);
        addr += chunk;
        len -= chunk;
    }
}

} // namespace hw
