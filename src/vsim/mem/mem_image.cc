#include "mem_image.hh"

#include <algorithm>
#include <vector>

#include "vsim/base/logging.hh"

namespace vsim::mem
{

MemImage::MemImage(const MemImage &other)
{
    *this = other;
}

MemImage &
MemImage::operator=(const MemImage &other)
{
    if (this == &other)
        return *this;
    pages.clear();
    for (const auto &[key, page] : other.pages)
        pages.emplace(key, std::make_unique<Page>(*page));
    return *this;
}

const MemImage::Page *
MemImage::findPage(std::uint64_t addr) const
{
    auto it = pages.find(addr >> kPageBits);
    return it == pages.end() ? nullptr : it->second.get();
}

MemImage::Page &
MemImage::touchPage(std::uint64_t addr)
{
    auto &slot = pages[addr >> kPageBits];
    if (!slot) {
        slot = std::make_unique<Page>();
        slot->fill(0);
    }
    return *slot;
}

std::uint8_t
MemImage::readByte(std::uint64_t addr) const
{
    const Page *page = findPage(addr);
    return page ? (*page)[addr & (kPageSize - 1)] : 0;
}

void
MemImage::writeByte(std::uint64_t addr, std::uint8_t value)
{
    touchPage(addr)[addr & (kPageSize - 1)] = value;
}

std::uint64_t
MemImage::read(std::uint64_t addr, int size) const
{
    VSIM_ASSERT(size == 1 || size == 2 || size == 4 || size == 8,
                "bad access size ", size);
    std::uint64_t value = 0;
    const std::uint64_t off = addr & (kPageSize - 1);
    if (off + static_cast<unsigned>(size) <= kPageSize) {
        // Inside one page (which also rules out wrapping past 2^64):
        // one page lookup for the whole access.
        const Page *page = findPage(addr);
        if (!page)
            return 0;
        for (int i = 0; i < size; ++i)
            value |= static_cast<std::uint64_t>((*page)[off + i])
                     << (8 * i);
        return value;
    }
    for (int i = 0; i < size; ++i)
        value |= static_cast<std::uint64_t>(readByte(addr + i)) << (8 * i);
    return value;
}

void
MemImage::write(std::uint64_t addr, std::uint64_t value, int size)
{
    VSIM_ASSERT(size == 1 || size == 2 || size == 4 || size == 8,
                "bad access size ", size);
    const std::uint64_t off = addr & (kPageSize - 1);
    if (off + static_cast<unsigned>(size) <= kPageSize) {
        Page &page = touchPage(addr);
        for (int i = 0; i < size; ++i)
            page[off + i] = static_cast<std::uint8_t>(value >> (8 * i));
        return;
    }
    for (int i = 0; i < size; ++i)
        writeByte(addr + i, static_cast<std::uint8_t>(value >> (8 * i)));
}

void
MemImage::writeBlock(std::uint64_t addr, const std::uint8_t *data,
                     std::size_t len)
{
    // One page lookup per page touched. The address wraps past 2^64
    // exactly as the per-byte definition's addr + i does.
    while (len > 0) {
        const std::uint64_t off = addr & (kPageSize - 1);
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(len, kPageSize - off));
        std::copy_n(data, n, touchPage(addr).begin() + off);
        addr += n;
        data += n;
        len -= n;
    }
}

void
MemImage::save(StateWriter &w) const
{
    w.tag("MEMI");
    std::vector<std::uint64_t> keys;
    keys.reserve(pages.size());
    for (const auto &[key, page] : pages)
        keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    w.u64(keys.size());
    for (std::uint64_t key : keys) {
        w.u64(key);
        w.bytes(pages.at(key)->data(), kPageSize);
    }
}

void
MemImage::restore(StateReader &r)
{
    r.tag("MEMI");
    pages.clear();
    std::uint64_t prev = 0;
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t key = r.u64();
        // save() writes page numbers strictly increasing; anything
        // else (a duplicate would silently drop a page) is corrupt.
        if (i > 0 && key <= prev)
            VSIM_FATAL("memory image: page ", key, " follows page ",
                       prev, "; page numbers must strictly increase");
        prev = key;
        auto page = std::make_unique<Page>();
        r.bytes(page->data(), kPageSize);
        pages.emplace(key, std::move(page));
    }
}

} // namespace vsim::mem
