/**
 * @file
 * Virtual memory substrate: a demand-allocating page table shared by
 * all systems, and a small TLB model.
 *
 * The baselines translate on every access through a per-core L1 TLB;
 * D2M's MD1 is virtually tagged, so it only translates on MD1 misses
 * through TLB2 (paper Section II-A / Figure 1).
 */

#ifndef D2M_MEM_PAGE_TABLE_HH
#define D2M_MEM_PAGE_TABLE_HH

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/flat_map.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "mem/geometry.hh"
#include "sim/sim_object.hh"

namespace d2m
{

/**
 * Forward page table mapping (asid, vpage) to a physical frame.
 *
 * Two allocation modes:
 *  - identity (default): frame = vpage + asid * 16M. This models
 *    huge-page / THP-style allocation where virtual alignment is
 *    preserved physically — required for the power-of-two-stride
 *    conflict pathology that dynamic indexing targets (Section IV-D;
 *    the paper runs full-system Linux where large buffers land in
 *    aligned allocations).
 *  - demand: sequentially allocated 4K frames in touch order.
 */
class PageTable
{
  public:
    enum class Mode { Identity, Demand };

    explicit PageTable(unsigned page_shift = 12,
                       Mode mode = Mode::Identity)
        : pageShift_(page_shift), mode_(mode)
    {}

    unsigned pageShift() const { return pageShift_; }

    /** Translate @p vaddr in @p asid (demand mode allocates a frame on
     * first touch). */
    Addr
    translate(AsId asid, Addr vaddr)
    {
        const std::uint64_t vpage = vaddr >> pageShift_;
        const Addr offset = vaddr & ((Addr(1) << pageShift_) - 1);
        std::uint64_t frame;
        if (mode_ == Mode::Identity) {
            frame = vpage + (std::uint64_t(asid) << 24);
        } else {
            const Key key{asid, vpage};
            auto it = map_.find(key);
            if (it == map_.end()) {
                frame = nextFrame_++;
                map_.emplace(key, frame);
            } else {
                frame = it->second;
            }
        }
        return (frame << pageShift_) | offset;
    }

  private:
    struct Key
    {
        AsId asid;
        std::uint64_t vpage;
        bool operator==(const Key &) const = default;
    };

    struct KeyHash
    {
        std::uint64_t
        operator()(const Key &k) const
        {
            return flatHashMix((std::uint64_t(k.asid) << 48) ^ k.vpage);
        }
    };

    unsigned pageShift_;
    Mode mode_;
    std::uint64_t nextFrame_ = 1;  // frame 0 reserved
    FlatMap<Key, std::uint64_t, KeyHash> map_;
};

/**
 * A fully-associative, exact-LRU TLB. Models hit/miss behaviour only;
 * the translation itself always comes from the shared PageTable.
 *
 * Recency is an intrusive doubly linked list over a fixed node array
 * (head = MRU, tail = LRU) indexed by a pre-sized FlatMap, so both a
 * hit (unlink + push front) and a miss (evict the tail) are O(1).
 */
class Tlb : public SimObject
{
  public:
    Tlb(std::string name, SimObject *parent, unsigned entries,
        unsigned page_shift = 12)
        : SimObject(std::move(name), parent),
          hits(this, "hits", "TLB hits"),
          misses(this, "misses", "TLB misses (page walks)"),
          pageShift_(page_shift)
    {
        fatal_if(entries == 0, "TLB %s needs at least one entry",
                 this->name().c_str());
        nodes_.resize(entries);
        slotOf_.reserve(entries);
    }

    /** @return true on hit; on miss the entry is filled (LRU victim). */
    bool
    lookup(AsId asid, Addr vaddr)
    {
        const std::uint64_t tag =
            (std::uint64_t(asid) << 48) ^ (vaddr >> pageShift_);
        // The last tag looked up is always at the head, so a repeat
        // hits without a hash probe and without reordering.
        if (used_ != 0 && nodes_[head_].tag == tag) [[likely]] {
            ++hits;
            return true;
        }
        if (auto it = slotOf_.find(tag); it != slotOf_.end()) {
            moveToFront(it->second);
            ++hits;
            return true;
        }
        ++misses;
        std::uint32_t n;
        if (used_ < nodes_.size()) {
            n = used_++;
            pushFront(n);
        } else {
            n = tail_;
            slotOf_.erase(nodes_[n].tag);
            if (n != head_)
                moveToFront(n);
        }
        nodes_[n].tag = tag;
        slotOf_.emplace(tag, n);
        return false;
    }

    stats::Counter hits;
    stats::Counter misses;

  private:
    /** Array-of-structs so a hit's unlink touches one line per node. */
    struct Node
    {
        std::uint64_t tag = 0;
        std::uint32_t prev = 0;  //!< Toward the head (unused at head).
        std::uint32_t next = 0;  //!< Toward the tail (unused at tail).
    };

    /** Link the unlinked node @p n in as the new head. */
    void
    pushFront(std::uint32_t n)
    {
        nodes_[n].next = head_;
        nodes_[head_].prev = n;
        head_ = n;
    }

    /** Move the linked, non-head node @p n to the head. */
    void
    moveToFront(std::uint32_t n)
    {
        assert(n != head_);
        const Node &x = nodes_[n];
        nodes_[x.prev].next = x.next;
        if (n == tail_)
            tail_ = x.prev;
        else
            nodes_[x.next].prev = x.prev;
        pushFront(n);
    }

    unsigned pageShift_;
    std::vector<Node> nodes_;
    std::uint32_t used_ = 0;  //!< Nodes filled so far (fill order).
    std::uint32_t head_ = 0;
    std::uint32_t tail_ = 0;
    FlatMap<std::uint64_t, std::uint32_t> slotOf_;
};

} // namespace d2m

#endif // D2M_MEM_PAGE_TABLE_HH
