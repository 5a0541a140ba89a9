/**
 * @file
 * Unit tests for the memory subsystem: sparse memory image semantics
 * and the set-associative cache timing model (hits, LRU eviction,
 * dirty write-back counting, hierarchy latencies).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "vsim/base/logging.hh"
#include "vsim/base/state_io.hh"
#include "vsim/mem/cache.hh"
#include "vsim/mem/mem_image.hh"

namespace
{

using namespace vsim::mem;

TEST(MemImage, UnmappedReadsZero)
{
    MemImage m;
    EXPECT_EQ(m.read(0xdeadbeef, 8), 0u);
    EXPECT_EQ(m.mappedPages(), 0u);
}

TEST(MemImage, ReadBackWritten)
{
    MemImage m;
    m.write(0x1000, 0x1122334455667788ull, 8);
    EXPECT_EQ(m.read(0x1000, 8), 0x1122334455667788ull);
    // Little-endian byte order.
    EXPECT_EQ(m.read(0x1000, 1), 0x88u);
    EXPECT_EQ(m.read(0x1007, 1), 0x11u);
    EXPECT_EQ(m.read(0x1002, 2), 0x5566u);
    EXPECT_EQ(m.read(0x1004, 4), 0x11223344u);
}

TEST(MemImage, CrossPageAccess)
{
    MemImage m;
    const std::uint64_t addr = MemImage::kPageSize - 4;
    m.write(addr, 0xa1b2c3d4e5f60718ull, 8);
    EXPECT_EQ(m.read(addr, 8), 0xa1b2c3d4e5f60718ull);
    EXPECT_EQ(m.mappedPages(), 2u);
}

TEST(MemImage, DeepCopyIsIndependent)
{
    MemImage a;
    a.write(0x2000, 42, 8);
    MemImage b = a;
    b.write(0x2000, 43, 8);
    EXPECT_EQ(a.read(0x2000, 8), 42u);
    EXPECT_EQ(b.read(0x2000, 8), 43u);
}

TEST(MemImage, WriteBlock)
{
    MemImage m;
    const std::uint8_t bytes[] = {1, 2, 3, 4, 5};
    m.writeBlock(0x3000, bytes, sizeof(bytes));
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(m.readByte(0x3000 + i), bytes[i]);
}

// ---- page-at-a-time fast path vs the per-byte definition ----------------

/** The per-byte definition of MemImage::read. */
std::uint64_t
readPerByte(const MemImage &m, std::uint64_t addr, int size)
{
    std::uint64_t value = 0;
    for (int i = 0; i < size; ++i)
        value |= static_cast<std::uint64_t>(m.readByte(addr + i)) << (8 * i);
    return value;
}

/** The per-byte definition of MemImage::write. */
void
writePerByte(MemImage &m, std::uint64_t addr, std::uint64_t value, int size)
{
    for (int i = 0; i < size; ++i)
        m.writeByte(addr + i, static_cast<std::uint8_t>(value >> (8 * i)));
}

/** Distinct nonzero bytes over [base, base + len). */
void
fillPattern(MemImage &m, std::uint64_t base, std::uint64_t len)
{
    for (std::uint64_t i = 0; i < len; ++i)
        m.writeByte(base + i, static_cast<std::uint8_t>(i * 7 + 1));
}

TEST(MemImage, PageTailAccessesMatchPerByteDefinition)
{
    const std::uint64_t page = 5 * MemImage::kPageSize;
    const std::uint64_t next = page + MemImage::kPageSize;
    const std::uint64_t value = 0x0102030405060708ull;
    for (bool nextMapped : {false, true}) {
        for (std::uint64_t off = MemImage::kPageSize - 8;
             off < MemImage::kPageSize; ++off) {
            for (int size : {1, 2, 4, 8}) {
                SCOPED_TRACE(testing::Message()
                             << "next page mapped " << nextMapped
                             << ", offset " << off << ", size " << size);
                MemImage fast;
                fillPattern(fast, page, MemImage::kPageSize);
                if (nextMapped)
                    fillPattern(fast, next, MemImage::kPageSize);
                MemImage ref = fast;
                const std::uint64_t addr = page + off;

                EXPECT_EQ(fast.read(addr, size),
                          readPerByte(fast, addr, size));

                fast.write(addr, value, size);
                writePerByte(ref, addr, value, size);
                EXPECT_EQ(fast.mappedPages(), ref.mappedPages());
                for (std::uint64_t a = page;
                     a < next + MemImage::kPageSize; ++a)
                    ASSERT_EQ(fast.readByte(a), ref.readByte(a))
                        << "byte " << a;
                EXPECT_EQ(fast.read(addr, size),
                          readPerByte(ref, addr, size));
            }
        }
    }
}

TEST(MemImage, AccessWrapsPast64BitsToPageZero)
{
    const std::uint64_t addr = ~0ull - 3; // 2^64 - 4
    const std::uint64_t value = 0x8877665544332211ull;
    MemImage m;
    EXPECT_EQ(m.read(addr, 8), 0u);
    m.write(addr, value, 8);
    EXPECT_EQ(m.mappedPages(), 2u);
    EXPECT_EQ(m.read(addr, 8), value);
    EXPECT_EQ(m.read(addr, 8), readPerByte(m, addr, 8));
    // The low four bytes sit at the top of memory, the high four at
    // address 0 of page 0.
    EXPECT_EQ(m.read(addr, 4), 0x44332211u);
    EXPECT_EQ(m.read(0, 4), 0x88776655u);
    EXPECT_EQ(m.readByte(4), 0u);

    MemImage ref;
    writePerByte(ref, addr, value, 8);
    for (std::uint64_t a : {~0ull - 3, ~0ull - 2, ~0ull - 1, ~0ull, 0ull,
                            1ull, 2ull, 3ull, 4ull})
        EXPECT_EQ(m.readByte(a), ref.readByte(a)) << "byte " << a;
}

TEST(MemImage, WriteBlockAcrossThreePages)
{
    const std::uint64_t addr = 0x7000 + MemImage::kPageSize - 96;
    std::vector<std::uint8_t> data(MemImage::kPageSize + 200);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 13 + 5);
    MemImage m;
    m.writeBlock(addr, data.data(), data.size());
    EXPECT_EQ(m.mappedPages(), 3u);
    for (std::size_t i = 0; i < data.size(); ++i)
        ASSERT_EQ(m.readByte(addr + i), data[i]) << "byte " << i;
    EXPECT_EQ(m.readByte(addr - 1), 0u);
    EXPECT_EQ(m.readByte(addr + data.size()), 0u);
}

// ---- snapshot decoder --------------------------------------------------

/** A MEMI section holding one page per entry of @p pageNumbers. */
std::vector<std::uint8_t>
memSection(const std::vector<std::uint64_t> &pageNumbers)
{
    vsim::StateWriter w;
    w.tag("MEMI");
    w.u64(pageNumbers.size());
    std::vector<std::uint8_t> page(MemImage::kPageSize);
    for (std::uint64_t key : pageNumbers) {
        page.assign(page.size(), static_cast<std::uint8_t>(key));
        w.u64(key);
        w.bytes(page.data(), page.size());
    }
    return w.take();
}

TEST(MemImage, RestoreRejectsDuplicateOrDescendingPages)
{
    {
        const std::vector<std::uint8_t> bytes = memSection({3, 9});
        vsim::StateReader r(bytes);
        MemImage m;
        m.restore(r);
        EXPECT_EQ(m.mappedPages(), 2u);
        EXPECT_EQ(m.readByte(9 * MemImage::kPageSize), 9u);
    }
    for (const std::vector<std::uint64_t> &keys :
         {std::vector<std::uint64_t>{4, 4},
          std::vector<std::uint64_t>{2, 7, 5},
          std::vector<std::uint64_t>{1, 0}}) {
        const std::vector<std::uint8_t> bytes = memSection(keys);
        vsim::StateReader r(bytes);
        MemImage m;
        EXPECT_THROW(m.restore(r), vsim::FatalError);
    }
}

CacheConfig
smallCache()
{
    CacheConfig cfg;
    cfg.name = "test";
    cfg.sizeBytes = 256; // 8 blocks
    cfg.assoc = 2;       // 4 sets
    cfg.blockBytes = 32;
    return cfg;
}

TEST(Cache, ColdMissThenHit)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0x0, false));
    EXPECT_TRUE(c.access(0x0, false));
    EXPECT_TRUE(c.access(0x1f, false)); // same block
    EXPECT_FALSE(c.access(0x20, false)); // next block
    EXPECT_EQ(c.stats().total(), 4u);
    EXPECT_EQ(c.stats().hits(), 2u);
}

TEST(Cache, LruEvictsLeastRecent)
{
    Cache c(smallCache());
    // Three blocks mapping to set 0 (4 sets * 32B = 128B stride).
    c.access(0 * 128, false);
    c.access(1 * 128, false);
    // Touch block 0 so block 1 becomes LRU.
    c.access(0 * 128, false);
    // Block 2 evicts block 1.
    c.access(2 * 128, false);
    EXPECT_TRUE(c.probe(0 * 128));
    EXPECT_FALSE(c.probe(1 * 128));
    EXPECT_TRUE(c.probe(2 * 128));
}

TEST(Cache, DirtyEvictionCountsWriteback)
{
    Cache c(smallCache());
    c.access(0 * 128, true); // dirty
    c.access(1 * 128, false);
    c.access(2 * 128, false); // evicts dirty block 0
    EXPECT_EQ(c.writebacks(), 1u);
    // Clean eviction adds nothing.
    c.access(3 * 128, false);
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(Cache, ProbeDoesNotDisturbState)
{
    Cache c(smallCache());
    c.access(0, false);
    const auto hits_before = c.stats().hits();
    EXPECT_TRUE(c.probe(0));
    EXPECT_FALSE(c.probe(0x20));
    EXPECT_EQ(c.stats().hits(), hits_before);
}

TEST(Cache, FlushDropsEverything)
{
    Cache c(smallCache());
    c.access(0, true);
    c.flush();
    EXPECT_FALSE(c.probe(0));
}

TEST(Cache, FlushCountsDirtyWritebacks)
{
    Cache c(smallCache());
    c.access(0, true);    // dirty
    c.access(32, false);  // clean
    c.access(64, true);   // dirty
    EXPECT_EQ(c.writebacks(), 0u);
    c.flush();
    EXPECT_EQ(c.writebacks(), 2u); // both dirty lines drained
    // A second flush finds an empty cache: no double counting.
    c.flush();
    EXPECT_EQ(c.writebacks(), 2u);
    // A write hit followed by a flush counts exactly once.
    c.access(0, false);
    c.access(0, true);
    c.flush();
    EXPECT_EQ(c.writebacks(), 3u);
}

TEST(Cache, AccessReportsEvictedBlock)
{
    Cache c(smallCache());
    Eviction ev;
    c.access(0 * 128, true, &ev); // set 0, filled empty way
    EXPECT_FALSE(ev.valid);
    c.access(1 * 128, false, &ev);
    EXPECT_FALSE(ev.valid);
    c.access(2 * 128, false, &ev); // evicts dirty block 0
    EXPECT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(ev.addr, 0u);
    c.access(2 * 128, true, &ev); // hit: nothing displaced
    EXPECT_FALSE(ev.valid);
    c.access(3 * 128, false, &ev); // evicts block 1*128, clean
    EXPECT_TRUE(ev.valid);
    EXPECT_FALSE(ev.dirty);
    EXPECT_EQ(ev.addr, 1u * 128u);
}

TEST(Cache, DistinctSetsDoNotConflict)
{
    Cache c(smallCache());
    for (int i = 0; i < 4; ++i)
        c.access(static_cast<std::uint64_t>(i) * 32, false);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(c.probe(static_cast<std::uint64_t>(i) * 32)) << i;
}

TEST(Hierarchy, PaperLatencies)
{
    CacheConfig l2_cfg;
    l2_cfg.name = "l2";
    l2_cfg.sizeBytes = 1 << 20;
    l2_cfg.assoc = 4;
    l2_cfg.blockBytes = 64;
    Cache l2(l2_cfg);

    CacheConfig l1_cfg;
    l1_cfg.name = "l1d";
    l1_cfg.sizeBytes = 64 << 10;
    l1_cfg.assoc = 4;
    l1_cfg.blockBytes = 32;

    HierarchyLatencies lat; // 2 / 12 / 36
    CacheHierarchy h(l1_cfg, l2, lat);

    // Cold: L1 miss, L2 miss -> 36.
    EXPECT_EQ(h.access(0x4000, false), 36);
    // Now resident in both -> L1 hit -> 2.
    EXPECT_EQ(h.access(0x4000, false), 2);
    // Evict nothing; a different block in the same L2 line: L1 miss,
    // L2 hit (64B L2 blocks cover two 32B L1 blocks) -> 12.
    EXPECT_EQ(h.access(0x4020, false), 12);
}

TEST(Hierarchy, L1DirtyEvictionInstallsInL2)
{
    CacheConfig l2_cfg;
    l2_cfg.name = "l2";
    l2_cfg.sizeBytes = 1 << 20;
    l2_cfg.assoc = 4;
    l2_cfg.blockBytes = 64;
    Cache l2(l2_cfg);

    HierarchyLatencies lat;
    CacheHierarchy h(smallCache(), l2, lat); // tiny 2-way L1

    h.access(0 * 128, true);  // write: L1 block 0 dirty, L2 installs
    h.access(1 * 128, false); // fills the set's other way
    h.access(2 * 128, false); // evicts dirty block 0 -> L2 write

    // Three demand fills (cold L2 misses) plus the writeback of the
    // L1 victim, which hits the block the first demand fill installed.
    EXPECT_EQ(l2.stats().total(), 4u);
    EXPECT_EQ(l2.stats().hits(), 1u);
    // The writeback dirtied the L2 copy: flushing the L2 must drain
    // exactly that one dirty line.
    EXPECT_EQ(l2.writebacks(), 0u);
    l2.flush();
    EXPECT_EQ(l2.writebacks(), 1u);
}

TEST(Hierarchy, CleanL1EvictionDoesNotTouchL2)
{
    CacheConfig l2_cfg;
    l2_cfg.name = "l2";
    l2_cfg.sizeBytes = 1 << 20;
    l2_cfg.assoc = 4;
    l2_cfg.blockBytes = 64;
    Cache l2(l2_cfg);

    HierarchyLatencies lat;
    CacheHierarchy h(smallCache(), l2, lat);

    h.access(0 * 128, false); // clean
    h.access(1 * 128, false);
    h.access(2 * 128, false); // evicts clean block 0: no L2 write
    EXPECT_EQ(l2.stats().total(), 3u); // demand fills only
    l2.flush();
    EXPECT_EQ(l2.writebacks(), 0u);
}

TEST(Hierarchy, L2SharedBetweenL1s)
{
    CacheConfig l2_cfg;
    l2_cfg.name = "l2";
    l2_cfg.sizeBytes = 1 << 20;
    l2_cfg.assoc = 4;
    l2_cfg.blockBytes = 64;
    Cache l2(l2_cfg);

    CacheConfig l1_cfg = smallCache();
    HierarchyLatencies lat;
    CacheHierarchy hi(l1_cfg, l2, lat);
    CacheHierarchy hd(l1_cfg, l2, lat);

    EXPECT_EQ(hi.access(0x8000, false), 36); // fills shared L2
    EXPECT_EQ(hd.access(0x8000, false), 12); // other L1 misses, L2 hits
}

} // namespace
