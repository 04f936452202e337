/**
 * @file
 * Tests for the page table and TLB models.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <set>
#include <unordered_map>

#include "common/rng.hh"
#include "mem/page_table.hh"

namespace d2m
{
namespace
{

TEST(PageTable, TranslationIsStable)
{
    PageTable pt;
    const Addr a = pt.translate(0, 0x1000'1234);
    EXPECT_EQ(pt.translate(0, 0x1000'1234), a);
    EXPECT_EQ(pt.translate(0, 0x1000'1000), a - 0x234);
}

TEST(PageTable, OffsetPreserved)
{
    PageTable pt;
    const Addr a = pt.translate(0, 0x2000'0abc);
    EXPECT_EQ(a & 0xfff, 0xabcu);
}

TEST(PageTable, AsidsAreDisjoint)
{
    PageTable pt;
    const Addr a0 = pt.translate(0, 0x5000'0000);
    const Addr a1 = pt.translate(1, 0x5000'0000);
    EXPECT_NE(a0 >> 12, a1 >> 12);
}

TEST(PageTable, SameAsidShares)
{
    PageTable pt;
    // Two "cores" touching the same (asid, vaddr) get the same frame:
    // this is what makes data shared.
    EXPECT_EQ(pt.translate(0, 0x5000'0040), pt.translate(0, 0x5000'0040));
}

TEST(PageTable, FramesNeverCollide)
{
    for (PageTable::Mode mode :
         {PageTable::Mode::Identity, PageTable::Mode::Demand}) {
        PageTable pt(12, mode);
        std::set<std::uint64_t> frames;
        for (Addr v = 0; v < 256; ++v) {
            const Addr pa = pt.translate(0, v << 12);
            EXPECT_TRUE(frames.insert(pa >> 12).second)
                << "frame reused for page " << v;
        }
    }
}

TEST(PageTable, IdentityPreservesStrideAlignment)
{
    // The identity mode models huge-page allocation: power-of-two
    // virtual strides stay power-of-two physical strides, which is
    // what makes the Section IV-D conflict pathology reproducible.
    PageTable pt;
    const Addr a0 = pt.translate(0, 0x1000'0000);
    const Addr a1 = pt.translate(0, 0x1002'0000);  // +128 KiB
    EXPECT_EQ(a1 - a0, 0x2'0000u);
}

TEST(PageTable, DemandModeSequentializes)
{
    PageTable pt(12, PageTable::Mode::Demand);
    const Addr a0 = pt.translate(0, 0x1000'0000);
    const Addr a1 = pt.translate(0, 0x1002'0000);
    EXPECT_EQ(a1 - a0, 0x1000u);  // consecutive frames
}

TEST(Tlb, HitAfterFill)
{
    stats::StatGroup root("root");
    SimObject parent("sys");
    Tlb tlb("tlb", &parent, 4);
    EXPECT_FALSE(tlb.lookup(0, 0x1000));
    EXPECT_TRUE(tlb.lookup(0, 0x1000));
    EXPECT_TRUE(tlb.lookup(0, 0x1abc));  // same page
    EXPECT_EQ(tlb.hits.value(), 2u);
    EXPECT_EQ(tlb.misses.value(), 1u);
}

TEST(Tlb, LruEviction)
{
    SimObject parent("sys");
    Tlb tlb("tlb", &parent, 2);
    tlb.lookup(0, 0x1000);  // miss, fill A
    tlb.lookup(0, 0x2000);  // miss, fill B
    tlb.lookup(0, 0x1000);  // hit A (B becomes LRU)
    tlb.lookup(0, 0x3000);  // miss, evicts B
    EXPECT_TRUE(tlb.lookup(0, 0x1000));
    EXPECT_FALSE(tlb.lookup(0, 0x2000));  // was evicted
}

TEST(Tlb, AsidsDistinguished)
{
    SimObject parent("sys");
    Tlb tlb("tlb", &parent, 8);
    tlb.lookup(0, 0x1000);
    EXPECT_FALSE(tlb.lookup(1, 0x1000));  // different asid: miss
}

TEST(Tlb, ZeroEntriesRejected)
{
    SimObject parent("sys");
    EXPECT_EXIT(Tlb("tlb", &parent, 0), ::testing::ExitedWithCode(1),
                "needs at least one entry");
}

/** Textbook LRU the TLB must agree with on every lookup. */
class ReferenceLru
{
  public:
    explicit ReferenceLru(std::size_t entries) : entries_(entries) {}

    bool
    lookup(AsId asid, Addr vaddr)
    {
        const std::uint64_t key = (vaddr >> 12) * 3 + asid;  // asid < 3
        if (auto it = where_.find(key); it != where_.end()) {
            order_.splice(order_.begin(), order_, it->second);
            return true;
        }
        if (order_.size() == entries_) {
            where_.erase(order_.back());
            order_.pop_back();
        }
        order_.push_front(key);
        where_[key] = order_.begin();
        return false;
    }

  private:
    std::size_t entries_;
    std::list<std::uint64_t> order_;  //!< Front = most recent.
    std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
        where_;
};

enum class Trace { Uniform, Cyclic, HotCold };

TEST(TlbProperty, MatchesReferenceLru)
{
    for (unsigned entries : {1u, 2u, 3u, 64u, 1024u}) {
        for (Trace trace : {Trace::Uniform, Trace::Cyclic, Trace::HotCold}) {
            SCOPED_TRACE(testing::Message()
                         << "entries=" << entries
                         << " trace=" << static_cast<int>(trace));
            SimObject parent("sys");
            Tlb tlb("tlb", &parent, entries);
            ReferenceLru ref(entries);
            Rng rng(0x71b0000ull + entries * 3 + static_cast<int>(trace));
            // Footprints straddle the capacity so hits and misses mix.
            const std::uint64_t pages = entries + entries / 2 + 2;
            const std::uint64_t hot = entries / 2 + 1;
            std::uint64_t hits = 0;
            std::uint64_t misses = 0;
            for (std::uint64_t i = 0; i < 40'000; ++i) {
                std::uint64_t page;
                switch (trace) {
                  case Trace::Uniform:
                    page = rng.next() % pages;
                    break;
                  case Trace::Cyclic:
                    page = i % pages;
                    break;
                  default:
                    page = rng.next() % 10 != 0
                               ? rng.next() % hot
                               : hot + rng.next() % (8 * entries);
                    break;
                }
                const AsId asid = static_cast<AsId>(rng.next() % 3);
                const Addr vaddr = (page << 12) | (rng.next() & 0xfff);
                const bool hit = tlb.lookup(asid, vaddr);
                ASSERT_EQ(hit, ref.lookup(asid, vaddr)) << "lookup " << i;
                ++(hit ? hits : misses);
            }
            EXPECT_EQ(tlb.hits.value(), hits);
            EXPECT_EQ(tlb.misses.value(), misses);
        }
    }
}

TEST(TlbProperty, CyclicSweeps)
{
    for (unsigned entries : {1u, 2u, 3u, 64u, 1024u}) {
        SCOPED_TRACE(testing::Message() << "entries=" << entries);
        SimObject parent("sys");
        // One page more than fits: LRU always evicts the next page.
        Tlb over("over", &parent, entries);
        for (int pass = 0; pass < 4; ++pass) {
            for (Addr p = 0; p <= entries; ++p)
                ASSERT_FALSE(over.lookup(1, p << 12));
        }
        EXPECT_EQ(over.hits.value(), 0u);

        // Exactly what fits: everything hits after the first pass.
        Tlb fit("fit", &parent, entries);
        for (Addr p = 0; p < entries; ++p)
            ASSERT_FALSE(fit.lookup(2, p << 12));
        for (int pass = 0; pass < 3; ++pass) {
            for (Addr p = 0; p < entries; ++p)
                ASSERT_TRUE(fit.lookup(2, p << 12));
        }
        EXPECT_EQ(fit.misses.value(), entries);
        EXPECT_EQ(fit.hits.value(), 3u * entries);
    }
}

} // namespace
} // namespace d2m
