/**
 * @file
 * Sparse physical memory for a simulated machine.
 *
 * Backing pages (4 KiB) are materialized, zero-filled, on first write,
 * so a 96-GB machine costs only what is actually touched (DMA buffers,
 * descriptor rings, command tables). Reads of untouched memory return
 * zeros and allocate nothing.
 *
 * Pages are found through a two-level radix table: a directory with
 * one slot per 2 MiB region (addr >> 21), grown on demand to the
 * highest region written, whose non-null entries are leaves of 512
 * page pointers (bits 12..20). A lookup is two indexed loads, with no
 * hashing. The hit path of an access that lies on one page is inline;
 * materializing a page and accesses that straddle a page stay out of
 * line.
 *
 * Every access is range-checked as `len <= size() && addr <= size() -
 * len`, which cannot wrap: an access past the end, including one whose
 * `addr + len` overflows 2^64, panics (sim::PanicError).
 */

#ifndef HW_PHYS_MEM_HH
#define HW_PHYS_MEM_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "simcore/types.hh"

namespace hw {

/** Byte-addressable sparse physical memory. */
class PhysMem
{
  public:
    explicit PhysMem(sim::Bytes size) : size_(size) {}

    /** Total installed memory. */
    sim::Bytes size() const { return size_; }

    /** Read @p len bytes at @p addr into @p out. */
    void
    read(sim::Addr addr, void *out, sim::Bytes len) const
    {
        if (!onOnePage(addr, len))
            readPages(addr, out, len);
        else if (const Page *p = findPage(addr))
            std::memcpy(out, p->data() + (addr & (kPageSize - 1)), len);
        else
            std::memset(out, 0, len);
    }

    /** Write @p len bytes from @p in at @p addr. */
    void
    write(sim::Addr addr, const void *in, sim::Bytes len)
    {
        if (onOnePage(addr, len))
            std::memcpy(touchPage(addr).data() + (addr & (kPageSize - 1)),
                        in, len);
        else
            writePages(addr, in, len);
    }

    /** Fill a range with a byte value. */
    void fill(sim::Addr addr, std::uint8_t value, sim::Bytes len);

    /** Typed helpers (little-endian, as x86). */
    std::uint8_t read8(sim::Addr a) const { return readT<std::uint8_t>(a); }
    std::uint16_t read16(sim::Addr a) const { return readT<std::uint16_t>(a); }
    std::uint32_t read32(sim::Addr a) const { return readT<std::uint32_t>(a); }
    std::uint64_t read64(sim::Addr a) const { return readT<std::uint64_t>(a); }

    void write8(sim::Addr a, std::uint8_t v) { writeT(a, v); }
    void write16(sim::Addr a, std::uint16_t v) { writeT(a, v); }
    void write32(sim::Addr a, std::uint32_t v) { writeT(a, v); }
    void write64(sim::Addr a, std::uint64_t v) { writeT(a, v); }

    /** Number of pages currently materialized (for tests/telemetry). */
    std::size_t pagesAllocated() const { return numPages; }

  private:
    static constexpr unsigned kPageShift = 12;
    static constexpr unsigned kLeafShift = 21;
    static constexpr sim::Bytes kPageSize = sim::Bytes(1) << kPageShift;
    static constexpr std::size_t kLeafPages =
        std::size_t(1) << (kLeafShift - kPageShift);

    using Page = std::array<std::uint8_t, kPageSize>;

    /** The page pointers of one 2 MiB region. */
    struct Leaf
    {
        std::array<std::unique_ptr<Page>, kLeafPages> pages;
    };

    bool
    inRange(sim::Addr addr, sim::Bytes len) const
    {
        return len <= size_ && addr <= size_ - len;
    }

    /** True when [a, a+len) is non-empty, in range and on one page. */
    bool
    onOnePage(sim::Addr a, sim::Bytes len) const
    {
        return len != 0 && inRange(a, len) &&
               len <= kPageSize - (a & (kPageSize - 1));
    }

    /** Page holding @p addr, or nullptr if never written. */
    Page *
    findPage(sim::Addr addr) const
    {
        std::size_t d = addr >> kLeafShift;
        if (d >= dir.size() || !dir[d])
            return nullptr;
        return dir[d]->pages[(addr >> kPageShift) & (kLeafPages - 1)]
            .get();
    }

    /** Page holding @p addr, materialized if needed. */
    Page &
    touchPage(sim::Addr addr)
    {
        Page *p = findPage(addr);
        return p ? *p : materialize(addr);
    }

    Page &materialize(sim::Addr addr);

    /** @name Range-checked page walks, for empty accesses and those
     *  that straddle a page or lie out of range (which panic). */
    /// @{
    void readPages(sim::Addr addr, void *out, sim::Bytes len) const;
    void writePages(sim::Addr addr, const void *in, sim::Bytes len);
    /// @}

    template <typename T>
    T
    readT(sim::Addr a) const
    {
        T v;
        read(a, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    writeT(sim::Addr a, T v)
    {
        write(a, &v, sizeof(T));
    }

    sim::Bytes size_;
    std::vector<std::unique_ptr<Leaf>> dir;
    std::size_t numPages = 0;
};

} // namespace hw

#endif // HW_PHYS_MEM_HH
