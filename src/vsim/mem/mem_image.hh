/**
 * @file
 * Sparse, paged physical-memory image.
 *
 * Backs both the architectural memory of the functional core and the
 * committed memory seen by the out-of-order core's loads. Reads of
 * unmapped memory return zero (wrong-path accesses must never fault,
 * paper §5.1 models wrong-path side effects); writes allocate pages
 * on demand.
 */

#ifndef VSIM_MEM_MEM_IMAGE_HH
#define VSIM_MEM_MEM_IMAGE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "vsim/base/state_io.hh"

namespace vsim::mem
{

class MemImage
{
  public:
    static constexpr std::uint64_t kPageBits = 12;
    static constexpr std::uint64_t kPageSize = 1ull << kPageBits;

    MemImage() = default;

    // Deep-copyable so pre-execution can run on a scratch copy.
    MemImage(const MemImage &other);
    MemImage &operator=(const MemImage &other);
    MemImage(MemImage &&) = default;
    MemImage &operator=(MemImage &&) = default;

    std::uint8_t readByte(std::uint64_t addr) const;
    void writeByte(std::uint64_t addr, std::uint8_t value);

    /**
     * Little-endian read of @p size in {1,2,4,8} bytes. An access
     * inside one page costs one page lookup; one that straddles a
     * page (or wraps past 2^64) reads byte by byte.
     */
    std::uint64_t read(std::uint64_t addr, int size) const;

    /** Little-endian write of @p size in {1,2,4,8} bytes. */
    void write(std::uint64_t addr, std::uint64_t value, int size);

    /** Bulk copy-in used by the program loader. */
    void writeBlock(std::uint64_t addr, const std::uint8_t *data,
                    std::size_t len);

    /** Number of mapped pages (for tests/stats). */
    std::size_t mappedPages() const { return pages.size(); }

    /**
     * Serialize the full image (page numbers sorted, so the byte
     * stream is deterministic regardless of hash-map iteration
     * order) / rebuild it from a stream. Part of SimSnapshot.
     * restore() throws FatalError on a duplicate or out-of-order
     * page number, as on any other malformed stream.
     */
    void save(StateWriter &w) const;
    void restore(StateReader &r);

  private:
    using Page = std::array<std::uint8_t, kPageSize>;

    const Page *findPage(std::uint64_t addr) const;
    Page &touchPage(std::uint64_t addr);

    std::unordered_map<std::uint64_t, std::unique_ptr<Page>> pages;
};

} // namespace vsim::mem

#endif // VSIM_MEM_MEM_IMAGE_HH
