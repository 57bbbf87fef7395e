#include "store/catalog.hh"

#include <algorithm>
#include <set>

#include "simcore/logging.hh"

namespace store {

namespace {

/** Extract a chunk's payload runs from @p scratch. */
ChunkPayload
payloadFrom(const hw::DiskStore &scratch, sim::Lba chunk_start,
            std::uint32_t span)
{
    ChunkPayload p;
    p.sectors = span;
    scratch.forEachBase(
        chunk_start, span,
        [&](sim::Lba lba, std::uint64_t count, std::uint64_t base) {
            if (base == 0)
                return; // gaps are implicit
            p.runs.push_back(ChunkPayload::Run{
                static_cast<std::uint32_t>(lba - chunk_start),
                static_cast<std::uint32_t>(count), base});
        });
    return p;
}

} // namespace

const ImageDesc &
ImageCatalog::insert(const std::string &name, ImageDesc desc)
{
    auto [it, ok] = images_.emplace(name, std::move(desc));
    sim::fatalIf(!ok, "duplicate store image ", name);
    return it->second;
}

const ImageDesc &
ImageCatalog::addFlat(const std::string &name, std::uint16_t major,
                      sim::Lba sectors, std::uint64_t base)
{
    sim::fatalIf(sectors == 0 || base == 0,
                 "flat image needs sectors and a content base");
    ImageDesc desc;
    desc.major = major;
    desc.sectors = sectors;
    std::size_t n = chunkCount(sectors);
    desc.chunks.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        sim::Lba cs = chunkStartLba(i);
        auto span = static_cast<std::uint32_t>(
            std::min<sim::Lba>(kChunkSectors, sectors - cs));
        ChunkPayload p;
        p.sectors = span;
        p.runs.push_back(ChunkPayload::Run{0, span, base});
        desc.chunks.push_back(store_.addImageRef(cs, std::move(p)));
    }
    return insert(name, std::move(desc));
}

const ImageDesc &
ImageCatalog::addOverlay(const std::string &name, std::uint16_t major,
                         const std::string &base_image,
                         const std::vector<DeltaRun> &deltas)
{
    const ImageDesc *base = find(base_image);
    sim::fatalIf(base == nullptr, "overlay base ", base_image,
                 " not in catalog");

    // Which chunks do the deltas touch?
    std::set<std::size_t> touched;
    for (const DeltaRun &d : deltas) {
        sim::fatalIf(d.count == 0 ||
                         d.lba + d.count > base->sectors,
                     "overlay delta outside the base image");
        for (std::size_t c = chunkIndexOf(d.lba);
             c <= chunkIndexOf(d.lba + d.count - 1); ++c)
            touched.insert(c);
    }

    ImageDesc desc;
    desc.major = major;
    desc.sectors = base->sectors;
    desc.chunks = base->chunks;
    // Untouched chunks share the base's digests: re-reference them.
    for (std::size_t i = 0; i < desc.chunks.size(); ++i) {
        if (touched.count(i))
            continue;
        const ChunkPayload *p = store_.find(desc.chunks[i]);
        sim::panicIfNot(p != nullptr, "base chunk vanished");
        store_.addImageRef(chunkStartLba(i), *p);
    }
    // Touched chunks: base content with the deltas applied on top.
    for (std::size_t i : touched) {
        sim::Lba cs = chunkStartLba(i);
        const ChunkPayload *bp = store_.find(base->chunks[i]);
        sim::panicIfNot(bp != nullptr, "base chunk vanished");
        hw::DiskStore scratch;
        bp->fill(cs, scratch);
        for (const DeltaRun &d : deltas) {
            sim::Lba lo = std::max(d.lba, cs);
            sim::Lba hi = std::min<sim::Lba>(d.lba + d.count,
                                             cs + bp->sectors);
            if (lo < hi)
                scratch.write(lo, hi - lo, d.base);
        }
        desc.chunks[i] = store_.addImageRef(
            cs, payloadFrom(scratch, cs, bp->sectors));
    }
    return insert(name, std::move(desc));
}

void
ImageCatalog::remove(const std::string &name)
{
    auto it = images_.find(name);
    sim::fatalIf(it == images_.end(), "removing unknown image ",
                 name);
    for (Digest d : it->second.chunks)
        store_.unrefImage(d);
    images_.erase(it);
}

const ImageDesc *
ImageCatalog::find(const std::string &name) const
{
    auto it = images_.find(name);
    return it == images_.end() ? nullptr : &it->second;
}

Digest
ImageCatalog::digestAt(const std::string &name,
                       std::size_t chunk_idx) const
{
    const ImageDesc *desc = find(name);
    sim::panicIfNot(desc != nullptr && chunk_idx < desc->chunks.size(),
                    "digestAt out of range");
    return desc->chunks[chunk_idx];
}

void
ImageCatalog::fillChunk(const std::string &name, std::size_t chunk_idx,
                        hw::DiskStore &out) const
{
    const ChunkPayload *p = store_.find(digestAt(name, chunk_idx));
    sim::panicIfNot(p != nullptr, "fillChunk: chunk vanished");
    p->fill(chunkStartLba(chunk_idx), out);
}

void
ImageCatalog::materialize(const std::string &name,
                          hw::DiskStore &out) const
{
    const ImageDesc *desc = find(name);
    sim::panicIfNot(desc != nullptr, "materialize: unknown image");
    for (std::size_t i = 0; i < desc->chunks.size(); ++i)
        fillChunk(name, i, out);
}

bool
ImageCatalog::verifyDisk(const std::string &name,
                         const hw::DiskStore &disk) const
{
    const ImageDesc *desc = find(name);
    sim::panicIfNot(desc != nullptr, "verifyDisk: unknown image");
    for (std::size_t i = 0; i < desc->chunks.size(); ++i) {
        const ChunkPayload *p = store_.find(desc->chunks[i]);
        sim::panicIfNot(p != nullptr, "verifyDisk: chunk vanished");
        sim::Lba cs = chunkStartLba(i);
        for (const ChunkPayload::Run &r : p->runs) {
            if (!disk.rangeHasBase(cs + r.offset, r.count, r.base))
                return false;
        }
    }
    return true;
}

bool
ImageCatalog::tokensMatch(const std::string &name, sim::Lba lba,
                          const std::vector<std::uint64_t> &tokens) const
{
    const std::size_t idx = chunkIndexOf(lba);
    const ChunkPayload *p = store_.find(digestAt(name, idx));
    sim::panicIfNot(p != nullptr, "tokensMatch: chunk vanished");
    const auto off = static_cast<std::uint32_t>(lba - chunkStartLba(idx));
    sim::panicIfNot(off + tokens.size() <= p->sectors,
                    "tokensMatch: range crosses a chunk boundary");
    for (std::uint32_t i = 0; i < tokens.size(); ++i) {
        if (tokens[i] != hw::sectorToken(p->baseAt(off + i), lba + i))
            return false;
    }
    return true;
}

} // namespace store
