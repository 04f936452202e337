#include "d2m/d2m_system.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "fault/d2m_fault_model.hh"
#include "obs/debug.hh"

namespace d2m
{

namespace
{

/** Map a ServiceLevel onto the coverage-matrix data-level index. */
unsigned
dataLevelIndex(ServiceLevel level)
{
    switch (level) {
      case ServiceLevel::L1: return 0;
      case ServiceLevel::L2: return 1;
      case ServiceLevel::LLC_NEAR:
      case ServiceLevel::LLC_FAR: return 2;
      case ServiceLevel::MEMORY: return 3;
      case ServiceLevel::REMOTE: return 4;
    }
    return 3;
}

} // namespace

D2mSystem::D2mSystem(std::string name, const SystemParams &params)
    : MemorySystem(std::move(name), params, params.lat.nocHop),
      lineShift_(params.lineShift()),
      regionShift_(params.regionShift()),
      regionLinesLog_(floorLog2(params.regionLines)),
      nearSide_(params.nearSideLlc),
      codec_(params.numNodes, params.nearSideLlc ? params.numNodes : 1,
             params.nearSideLlc ? params.llc.assoc / params.numNodes
                                : params.llc.assoc),
      scrambler_(params.dynamicIndexing, params.seed ^ 0xd2d2d2d2ull),
      stats_("hier", this),
      events_("events", this)
{
    fatal_if(params.regionLines > maxRegionLines,
             "region lines (%u) exceed the fixed LI-vector size",
             params.regionLines);
    fatal_if(params.nearSideLlc && params.llc.assoc % params.numNodes != 0,
             "NS-LLC requires llc ways divisible by node count");

    const unsigned lshift = lineShift_;
    nodes_.resize(params.numNodes);
    for (unsigned n = 0; n < params.numNodes; ++n) {
        const std::string prefix = "node" + std::to_string(n);
        NodeCtx &ctx = nodes_[n];
        ctx.tlb2 = std::make_unique<Tlb>(prefix + ".tlb2", this,
                                         params.tlb2Entries,
                                         params.pageShift);
        // MD1 capacity is split between the I and D sides (footnote 2).
        ctx.md1i = std::make_unique<RegionStore<Md1Entry>>(
            prefix + ".md1i", this, params.md1Entries / 2, params.md1Assoc);
        ctx.md1d = std::make_unique<RegionStore<Md1Entry>>(
            prefix + ".md1d", this, params.md1Entries / 2, params.md1Assoc);
        ctx.md2 = std::make_unique<RegionStore<Md2Entry>>(
            prefix + ".md2", this, params.md2Entries, params.md2Assoc);
        ctx.l1i = std::make_unique<TaglessCache>(
            prefix + ".l1i", this, params.l1Lines(params.l1i),
            params.l1i.assoc, lshift);
        ctx.l1d = std::make_unique<TaglessCache>(
            prefix + ".l1d", this, params.l1Lines(params.l1d),
            params.l1d.assoc, lshift);
        if (params.l2.present()) {
            ctx.l2 = std::make_unique<TaglessCache>(
                prefix + ".l2", this, params.l1Lines(params.l2),
                params.l2.assoc, lshift);
        }
    }

    const unsigned slices = nearSide_ ? params.numNodes : 1;
    const std::uint32_t lines_per_slice =
        params.l1Lines(params.llc) / slices;
    const std::uint32_t ways_per_slice = params.llc.assoc / slices;
    for (unsigned s = 0; s < slices; ++s) {
        llc_.push_back(std::make_unique<TaglessCache>(
            "llc" + std::to_string(s), this, lines_per_slice,
            ways_per_slice, lshift, params.dynamicIndexing));
    }

    md3_ = std::make_unique<RegionStore<Md3Entry>>(
        "md3", this, params.md3Entries, params.md3Assoc);

    if (nearSide_) {
        placement_ = std::make_unique<PressurePlacementPolicy>(
            slices, params.nsRemoteAllocShare, params.seed ^ 0x9157ull);
    } else {
        placement_ = std::make_unique<FarSidePlacementPolicy>();
    }
    if (params.replication)
        replication_ = std::make_unique<PaperReplicationPolicy>();
    else
        replication_ = std::make_unique<NoReplicationPolicy>();

    nextPressureEpoch_ = params.nsPressurePeriod;

    if (faults_) {
        faultModel_ = std::make_unique<D2mFaultModel>(*this);
        faults_->bindHost(faultModel_.get());
    }
}

D2mSystem::~D2mSystem() = default;

const char *
D2mSystem::configName() const
{
    if (!nearSide_)
        return "D2M-FS";
    return params_.replication ? "D2M-NS-R" : "D2M-NS";
}

RegionClass
D2mSystem::regionClass(std::uint64_t pregion) const
{
    const Md3Entry *e3 = md3_->probe(pregion);
    return classify(e3 != nullptr, e3 ? e3->pb : 0);
}

void
D2mSystem::lockRegion(std::uint64_t pregion)
{
    // The blocking mechanism serializes region transactions (Appendix;
    // modeled after WildFire-style deterministic directories). With
    // atomic transaction execution locks never contend; acquisitions
    // are still counted for the hash-collision sizing argument.
    (void)pregion;
    ++events_.lockAcquisitions;
}

// ===================================================================
// Metadata management
// ===================================================================

D2mSystem::ActiveMd
D2mSystem::activeMdFor(NodeId node, std::uint64_t pregion,
                       bool charge_energy)
{
    ActiveMd amd;
    amd.pregion = pregion;
    Md2Entry *e2 = nodes_[node].md2->probe(pregion);
    if (!e2)
        return amd;
    amd.md2 = e2;
    if (charge_energy)
        energy_.count(Structure::Md2);
    if (e2->activeInMd1) {
        Md1Entry &e1 =
            md1For(node, e2->md1SideI).at(e2->md1Set, e2->md1Way);
        panic_if(!e1.valid || e1.pregion != pregion,
                 "MD2 tracking pointer names a stale MD1 entry");
        amd.md1 = &e1;
        if (charge_energy)
            energy_.count(Structure::Md1);
    }
    return amd;
}

void
D2mSystem::setPrivate(ActiveMd &md, bool value)
{
    md.md2->privateBit = value;
    if (md.md1)
        md.md1->privateBit = value;
}

void
D2mSystem::evictMd1Entry(NodeId node, bool side_i, Md1Entry &e1)
{
    // MD1 eviction copies the live LIs back into the MD2 entry, which
    // becomes active (footnote 1). Cached lines stay where they are.
    Md2Entry *e2 = nodes_[node].md2->probe(e1.pregion);
    panic_if(!e2, "MD1 entry without a backing MD2 entry");
    e2->li = e1.li;
    e2->privateBit = e1.privateBit;
    e2->activeInMd1 = false;
    e2->md1SideI = side_i;
    energy_.count(Structure::Md2);
    e1.valid = false;
}

Md1Entry &
D2mSystem::promoteToMd1(NodeId node, bool side_i, AsId asid, Addr vaddr,
                        Md2Entry &e2)
{
    auto &md1 = md1For(node, side_i);
    const std::uint64_t key = md1Key(asid, vaddr);
    Md1Entry &slot = md1.victimFor(key);
    if (slot.valid)
        evictMd1Entry(node, side_i, slot);
    md1.bind(slot, key);
    slot.pregion = e2.key;
    slot.privateBit = e2.privateBit;
    slot.scramble = e2.scramble;
    slot.li = e2.li;
    md1.markInstalled(slot);
    const auto [set, way] = md1.positionOf(slot);
    e2.activeInMd1 = true;
    e2.md1SideI = side_i;
    e2.md1Set = set;
    e2.md1Way = way;
    energy_.count(Structure::Md1);
    return slot;
}

D2mSystem::ActiveMd
D2mSystem::lookupMetadata(NodeId node, const MemAccess &acc, bool side_i,
                          Cycles &lat, unsigned &md_level)
{
    NodeCtx &ctx = nodes_[node];
    auto &md1 = md1For(node, side_i);

    // MD1 lookup replaces the TLB: virtually tagged, charged like one.
    energy_.count(Structure::Md1);
    if (Md1Entry *e1 = md1.find(md1Key(acc.asid, acc.vaddr))) [[likely]] {
        md_level = 0;
        ++events_.md1Hits;
        DTRACE(MD, this, "node%u MD1-%c hit region 0x%llx", node,
               side_i ? 'I' : 'D',
               static_cast<unsigned long long>(e1->pregion));
        ActiveMd amd;
        amd.md1 = e1;
        amd.md2 = ctx.md2->probe(e1->pregion);
        amd.pregion = e1->pregion;
        panic_if(!amd.md2, "MD1 inclusion in MD2 violated");
        return amd;
    }

    // MD1 miss: physical path through TLB2 and MD2 (Figure 1).
    energy_.count(Structure::Tlb2);
    lat += params_.lat.tlb2;
    if (!ctx.tlb2->lookup(acc.asid, acc.vaddr)) {
        energy_.count(Structure::PageWalk);
        lat += params_.lat.pageWalk;
    }
    const Addr paddr = pageTable_.translate(acc.asid, acc.vaddr);
    const std::uint64_t pregion = paddr >> regionShift_;

    energy_.count(Structure::Md2);
    lat += params_.lat.md2;
    if (Md2Entry *e2 = ctx.md2->find(pregion)) {
        md_level = 1;
        ++events_.md2Hits;
        DTRACE(MD, this, "node%u MD2 hit region 0x%llx (promote to "
               "MD1-%c)", node,
               static_cast<unsigned long long>(pregion),
               side_i ? 'I' : 'D');
        if (e2->activeInMd1) {
            // Active in the other side's MD1 (footnote 2): migrate.
            // L1-kind LIs are flushed first since the LI encoding
            // cannot name the other side's L1.
            const bool old_side = e2->md1SideI;
            Md1Entry &e1 = md1For(node, old_side).at(e2->md1Set,
                                                     e2->md1Way);
            TaglessCache &old_l1 = l1For(node, old_side);
            for (unsigned i = 0; i < params_.regionLines; ++i) {
                if (e1.li[i].kind == LiKind::L1) {
                    const Addr la =
                        (pregion << regionLinesLog_) | i;
                    const std::uint32_t set =
                        old_l1.setFor(la, e1.scramble);
                    evictL1Slot(node, old_side, set, e1.li[i].way);
                }
            }
            evictMd1Entry(node, old_side, e1);
        }
        Md1Entry &e1 = promoteToMd1(node, side_i, acc.asid, acc.vaddr, *e2);
        ActiveMd amd;
        amd.md1 = &e1;
        amd.md2 = e2;
        amd.pregion = pregion;
        return amd;
    }

    md_level = 2;
    return caseD(node, side_i, acc.asid, acc.vaddr, pregion, lat);
}

D2mSystem::ActiveMd
D2mSystem::caseD(NodeId node, bool side_i, AsId asid, Addr vaddr,
                 std::uint64_t pregion, Cycles &lat)
{
    ++stats_.dirIndirections;
    ++events_.md3Lookups;
    DTRACE(MD, this, "node%u MD miss region 0x%llx: case D through MD3",
           node, static_cast<unsigned long long>(pregion));
    lat += noc_.send(node, farSide(), MsgType::ReadMM);
    energy_.count(Structure::Md3);
    lat += params_.lat.md3;
    lockRegion(pregion);

    LiVector lis{};
    bool priv = false;
    std::uint32_t scramble = 0;

    Md3Entry *e3 = md3_->find(pregion);
    if (!e3) {
        // D4: uncached -> private. Allocate an MD3 entry.
        ++events_.d4;
        auto cost = [this](const Md3Entry &e) {
            unsigned tracked = 0;
            for (unsigned i = 0; i < params_.regionLines; ++i)
                if (e.li[i].kind == LiKind::Llc)
                    ++tracked;
            return static_cast<double>(4 * popCountU64(e.pb) + tracked);
        };
        Md3Entry &slot = md3_->victimFor(pregion, cost);
        if (slot.valid)
            globalMd3Evict(slot);
        md3_->bind(slot, pregion);
        slot.pb = std::uint64_t(1) << node;
        slot.scramble = scrambler_.next();
        DTRACE(Index, this,
               "region 0x%llx assigned index scramble 0x%x (node%u, D4)",
               static_cast<unsigned long long>(pregion), slot.scramble,
               node);
        for (auto &li : slot.li)
            li = LocationInfo::invalid();  // private: MD3 LIs invalid
        md3_->markInstalled(slot);
        for (auto &li : lis)
            li = LocationInfo::mem();
        priv = true;
        scramble = slot.scramble;
    } else {
        scramble = e3->scramble;
        const RegionClass cls = classify(true, e3->pb);
        switch (cls) {
          case RegionClass::Untracked:
            // D1: untracked -> private. The node inherits MD3's LIs.
            ++events_.d1;
            lis = e3->li;
            for (auto &li : lis) {
                if (li.isInvalid())
                    li = LocationInfo::mem();
            }
            for (auto &li : e3->li)
                li = LocationInfo::invalid();
            e3->pb = std::uint64_t(1) << node;
            priv = true;
            break;
          case RegionClass::Private: {
            // D2: private -> shared. Pull metadata from the owner.
            ++events_.d2;
            ++events_.privateToShared;
            DTRACE(Coherence, this,
                   "region 0x%llx reclassified private -> shared "
                   "(node%u joins)",
                   static_cast<unsigned long long>(pregion), node);
            NodeId owner = 0;
            while (!((e3->pb >> owner) & 1))
                ++owner;
            noc_.send(farSide(), owner, MsgType::GetMD);
            ActiveMd amd_o = activeMdFor(owner, pregion);
            panic_if(!amd_o.tracked(), "PB bit without MD2 entry");
            setPrivate(amd_o, false);
            // Convert owner-local LIs to globally meaningful ones.
            for (unsigned i = 0; i < params_.regionLines; ++i) {
                const Addr la = (pregion << regionLinesLog_) | i;
                LocationInfo li = amd_o.li()[i];
                LocationInfo global = li;
                // Walk the owner's local chain; a local master means
                // "in node owner", a replica chain ends at the master.
                bool local_master = false;
                while (liIsLocal(owner, li, la, amd_o.scramble())) {
                    TaglessLine *slot = nullptr;
                    if (li.kind == LiKind::L1) {
                        TaglessCache &l1 = l1For(owner, amd_o.sideI());
                        slot = &l1.at(l1.setFor(la, amd_o.scramble()),
                                      li.way);
                    } else if (li.kind == LiKind::L2) {
                        slot = &nodes_[owner].l2->at(
                            nodes_[owner].l2->setFor(la, amd_o.scramble()),
                            li.way);
                    } else {
                        std::uint32_t set = 0;
                        slot = &llcAt(li, la, amd_o.scramble(), &set);
                    }
                    if (slot->master) {
                        local_master = true;
                        break;
                    }
                    li = slot->rp;
                }
                if (local_master) {
                    global = LocationInfo::inNode(owner);
                } else {
                    global = li;
                }
                e3->li[i] = global;
            }
            noc_.send(owner, farSide(), MsgType::MDReply);
            lat += 2 * params_.lat.nocHop + params_.lat.md2;
            lis = e3->li;
            e3->pb |= std::uint64_t(1) << node;
            priv = false;
            break;
          }
          case RegionClass::Shared:
            // D3: shared -> shared.
            ++events_.d3;
            lis = e3->li;
            e3->pb |= std::uint64_t(1) << node;
            priv = false;
            break;
          case RegionClass::Uncached:
            panic("valid MD3 entry classified uncached");
        }
    }

    // Allocate the node's MD2 entry (spilling a victim region). The
    // replacement favors regions with few cachelines present
    // (Section II-A).
    NodeCtx &ctx = nodes_[node];
    auto cost2 = [this, node](const Md2Entry &e) {
        const LiVector &lis =
            e.activeInMd1
                ? md1For(node, e.md1SideI).at(e.md1Set, e.md1Way).li
                : e.li;
        unsigned local = 0;
        for (unsigned i = 0; i < params_.regionLines; ++i) {
            if (lis[i].isLocalCache())
                ++local;
        }
        return static_cast<double>(local);
    };
    Md2Entry &slot2 = ctx.md2->victimFor(pregion, cost2);
    if (slot2.valid)
        nodeRegionEvict(node, slot2.key);
    ctx.md2->bind(slot2, pregion);
    slot2.privateBit = priv;
    slot2.scramble = scramble;
    slot2.li = lis;
    slot2.activeInMd1 = false;
    slot2.md1SideI = side_i;
    ctx.md2->markInstalled(slot2);
    energy_.count(Structure::Md2);

    lat += noc_.send(farSide(), node, MsgType::MDReply);

    Md1Entry &e1 = promoteToMd1(node, side_i, asid, vaddr, slot2);
    noc_.send(node, farSide(), MsgType::Done);

    ActiveMd amd;
    amd.md1 = &e1;
    amd.md2 = &slot2;
    amd.pregion = pregion;
    return amd;
}

// ===================================================================
// Local copy chains
// ===================================================================

bool
D2mSystem::liIsLocal(NodeId node, const LocationInfo &li, Addr line_addr,
                     std::uint32_t scramble)
{
    switch (li.kind) {
      case LiKind::L1:
      case LiKind::L2:
        return true;
      case LiKind::Llc: {
        if (!nearSide_ || li.node != node)
            return false;
        std::uint32_t set = 0;
        TaglessLine &slot = llcAt(li, line_addr, scramble, &set);
        return slot.valid && slot.lineAddr == line_addr && !slot.master &&
               slot.ownerNode == node;
      }
      default:
        return false;
    }
}

D2mSystem::DropResult
D2mSystem::dropLocalCopies(NodeId node, ActiveMd &md, unsigned line_idx,
                           Addr line_addr)
{
    DropResult result;
    while (true) {
        LocationInfo li = md.li()[line_idx];
        if (!liIsLocal(node, li, line_addr, md.scramble()))
            break;
        TaglessLine *slot = nullptr;
        if (li.kind == LiKind::L1) {
            TaglessCache &l1 = l1For(node, md.sideI());
            slot = &l1.at(l1.setFor(line_addr, md.scramble()), li.way);
        } else if (li.kind == LiKind::L2) {
            slot = &nodes_[node].l2->at(
                nodes_[node].l2->setFor(line_addr, md.scramble()), li.way);
        } else {
            std::uint32_t set = 0;
            slot = &llcAt(li, line_addr, md.scramble(), &set);
        }
        panic_if(!slot->valid || slot->lineAddr != line_addr,
                 "LI chain determinism violated");
        result.droppedAny = true;
        if (slot->master) {
            result.droppedMaster = true;
            result.masterValue = slot->value;
            result.masterDirty = slot->dirty;
        }
        md.li()[line_idx] = slot->rp;
        slot->invalidate();
    }
    return result;
}

std::uint64_t
D2mSystem::readLocalValue(NodeId node, ActiveMd &md, unsigned line_idx,
                          Addr line_addr, Cycles &lat)
{
    const LocationInfo li = md.li()[line_idx];
    if (li.kind == LiKind::L1) {
        TaglessCache &l1 = l1For(node, md.sideI());
        TaglessLine &slot =
            l1.at(l1.setFor(line_addr, md.scramble()), li.way);
        panic_if(!slot.valid || slot.lineAddr != line_addr,
                 "LI determinism violated (L1)");
        energy_.count(Structure::L1Data);
        lat += params_.lat.l1Hit;
        return slot.value;
    }
    if (li.kind == LiKind::L2) {
        TaglessCache &l2 = *nodes_[node].l2;
        TaglessLine &slot =
            l2.at(l2.setFor(line_addr, md.scramble()), li.way);
        panic_if(!slot.valid || slot.lineAddr != line_addr,
                 "LI determinism violated (L2)");
        energy_.count(Structure::L2Data);
        lat += params_.lat.l2;
        return slot.value;
    }
    if (li.kind == LiKind::Llc) {
        std::uint32_t set = 0;
        TaglessLine &slot = llcAt(li, line_addr, md.scramble(), &set);
        panic_if(!slot.valid || slot.lineAddr != line_addr,
                 "LI determinism violated (LLC)");
        energy_.count(Structure::LlcData);
        lat += params_.lat.llc;
        return slot.value;
    }
    panic("readLocalValue on a non-local LI");
}

TaglessLine &
D2mSystem::llcAt(const LocationInfo &li, Addr line_addr,
                 std::uint32_t scramble, std::uint32_t *set_out)
{
    panic_if(li.kind != LiKind::Llc, "llcAt on a non-LLC LI");
    TaglessCache &slice = *llc_[li.node];
    const std::uint32_t set = slice.setFor(line_addr, scramble);
    if (set_out)
        *set_out = set;
    return slice.at(set, li.way);
}

// ===================================================================
// Evictions
// ===================================================================

LocationInfo
D2mSystem::allocateVictimInLlc(NodeId node, Addr line_addr,
                               std::uint32_t scramble)
{
    const std::uint32_t slice = placement_->chooseSlice(node);
    TaglessCache &arr = *llc_[slice];
    const std::uint32_t set = arr.setFor(line_addr, scramble);
    const std::uint32_t way = arr.victimWay(set);
    evictLlcSlot(slice, set, way);
    placement_->recordReplacement(slice);
    return LocationInfo::inLlc(slice, way);
}

void
D2mSystem::evictLlcSlot(std::uint32_t slice, std::uint32_t set,
                        std::uint32_t way)
{
    TaglessLine &slot = llc_[slice]->at(set, way);
    if (!slot.valid)
        return;
    const Addr line_addr = slot.lineAddr;
    const std::uint64_t pregion = regionOf(line_addr);
    const unsigned idx = lineIdxOf(line_addr);

    if (!slot.master) {
        // Replica: silent for the system; the owning node's pointers
        // are repaired locally (replicas live in the owner's slice).
        const NodeId owner = slot.ownerNode;
        panic_if(owner == invalidNode, "replica without an owner");
        ActiveMd amd = activeMdFor(owner, pregion);
        panic_if(!amd.tracked(), "replica inclusion in MD2 violated");
        const LocationInfo here = LocationInfo::inLlc(slice, way);
        LocationInfo li = amd.li()[idx];
        if (li == here) {
            amd.li()[idx] = slot.rp;
        } else if (li.kind == LiKind::L1 || li.kind == LiKind::L2) {
            TaglessLine *holder = nullptr;
            if (li.kind == LiKind::L1) {
                TaglessCache &l1 = l1For(owner, amd.sideI());
                holder = &l1.at(l1.setFor(line_addr, amd.scramble()),
                                li.way);
            } else {
                holder = &nodes_[owner].l2->at(
                    nodes_[owner].l2->setFor(line_addr, amd.scramble()),
                    li.way);
            }
            if (holder->valid && holder->lineAddr == line_addr &&
                holder->rp == here) {
                holder->rp = slot.rp;
            }
        }
        slot.invalidate();
        return;
    }

    // Master eviction from the LLC.
    Md3Entry *e3 = md3_->probe(pregion);
    panic_if(!e3, "MD3 inclusion violated: LLC line without MD3 entry");
    energy_.count(Structure::Md3);
    noc_.send(sliceEndpoint(slice), farSide(), MsgType::EvictReq);

    if (slot.dirty) {
        memory_.write(line_addr, slot.value);
        noc_.send(sliceEndpoint(slice), farSide(), MsgType::MemWrite);
    }

    const RegionClass cls = classify(true, e3->pb);
    const LocationInfo new_loc = LocationInfo::mem();
    switch (cls) {
      case RegionClass::Untracked:
        // Evictable without any metadata coherence (Section IV-A).
        e3->li[idx] = new_loc;
        break;
      case RegionClass::Private: {
        NodeId owner = 0;
        while (!((e3->pb >> owner) & 1))
            ++owner;
        noc_.send(farSide(), owner, MsgType::NewMaster);
        newMasterAtNode(owner, pregion, idx, line_addr, new_loc);
        // The owner may still treat the region as shared (the private
        // bit is set lazily after spills/prunes), in which case MD3's
        // LI for this line is live metadata: keep it fresh.
        if (!e3->li[idx].isInvalid())
            e3->li[idx] = new_loc;
        break;
      }
      case RegionClass::Shared:
        for (NodeId p = 0; p < params_.numNodes; ++p) {
            if (!((e3->pb >> p) & 1))
                continue;
            noc_.send(farSide(), p, MsgType::NewMaster);
            newMasterAtNode(p, pregion, idx, line_addr, new_loc);
        }
        e3->li[idx] = new_loc;
        break;
      case RegionClass::Uncached:
        panic("LLC master in an uncached region");
    }
    slot.invalidate();
}

void
D2mSystem::newMasterAtNode(NodeId n, std::uint64_t pregion,
                           unsigned line_idx, Addr line_addr,
                           const LocationInfo &new_loc)
{
    ActiveMd amd = activeMdFor(n, pregion);
    panic_if(!amd.tracked(), "NewMaster for an untracked region");
    // Walk the node's local chain; the final pointer (LI or the
    // outermost local copy's RP) names the master (footnote 13).
    LocationInfo li = amd.li()[line_idx];
    if (!liIsLocal(n, li, line_addr, amd.scramble())) {
        amd.li()[line_idx] = new_loc;
        return;
    }
    TaglessLine *holder = nullptr;
    while (true) {
        if (li.kind == LiKind::L1) {
            TaglessCache &l1 = l1For(n, amd.sideI());
            holder = &l1.at(l1.setFor(line_addr, amd.scramble()), li.way);
        } else if (li.kind == LiKind::L2) {
            holder = &nodes_[n].l2->at(
                nodes_[n].l2->setFor(line_addr, amd.scramble()), li.way);
        } else {
            std::uint32_t set = 0;
            holder = &llcAt(li, line_addr, amd.scramble(), &set);
        }
        panic_if(!holder->valid || holder->lineAddr != line_addr,
                 "local chain determinism violated");
        if (holder->master) {
            // The node holds the master itself; nothing to repoint.
            // (Happens when the notification races with a local copy
            // that was promoted; with atomic transactions it should
            // not occur.)
            return;
        }
        if (!liIsLocal(n, holder->rp, line_addr, amd.scramble()))
            break;
        li = holder->rp;
    }
    holder->rp = new_loc;
}

bool
D2mSystem::invalidateLineAtNode(NodeId n, std::uint64_t pregion,
                                unsigned line_idx, Addr line_addr,
                                const LocationInfo &new_master)
{
    ++stats_.invalidationsReceived;
    ActiveMd amd = activeMdFor(n, pregion);
    panic_if(!amd.tracked(), "Inv for an untracked region");
    const DropResult dropped = dropLocalCopies(n, amd, line_idx, line_addr);
    panic_if(dropped.droppedMaster,
             "invalidation reached the master copy; the exclusive fetch "
             "should have consumed it");
    amd.li()[line_idx] = new_master;
    if (!dropped.droppedAny)
        ++stats_.falseInvalidations;
    return dropped.droppedAny;
}

void
D2mSystem::maybePrune(NodeId n, std::uint64_t pregion, Md3Entry &e3)
{
    if (!params_.md2Pruning)
        return;
    Md2Entry *e2 = nodes_[n].md2->probe(pregion);
    if (!e2 || e2->activeInMd1)
        return;  // MD1 active: keep (paper's heuristic condition)
    for (unsigned i = 0; i < params_.regionLines; ++i) {
        const Addr la = (pregion << regionLinesLog_) | i;
        if (liIsLocal(n, e2->li[i], la, e2->scramble))
            return;  // still holds local copies
    }
    // Drop the entry and notify MD3 so the PB bit clears.
    ++events_.md2Prunes;
    DTRACE(MD, this, "node%u MD2 prune region 0x%llx (no local copies)",
           n, static_cast<unsigned long long>(pregion));
    e2->valid = false;
    noc_.send(n, farSide(), MsgType::PruneNotify);
    e3.pb &= ~(std::uint64_t(1) << n);
}

void
D2mSystem::masterEvicted(NodeId node, TaglessLine &line, bool allow_llc)
{
    const Addr line_addr = line.lineAddr;
    const std::uint64_t pregion = regionOf(line_addr);
    const unsigned idx = lineIdxOf(line_addr);
    ActiveMd amd = activeMdFor(node, pregion, /*charge=*/false);
    panic_if(!amd.tracked(), "master eviction in an untracked region");

    // LLC-bypass extension: streaming regions (many fills, little
    // reuse) do not deserve victim locations; their masters fall back
    // to memory (the default RP target).
    if (allow_llc && params_.llcBypass &&
        amd.md2->fills >= params_.bypassMinFills &&
        amd.md2->hits < amd.md2->fills / 2) {
        allow_llc = false;
        ++events_.llcBypasses;
        DTRACE(Replacement, this,
               "node%u streaming region 0x%llx bypasses LLC "
               "(fills %llu, hits %llu)",
               node, static_cast<unsigned long long>(pregion),
               static_cast<unsigned long long>(amd.md2->fills),
               static_cast<unsigned long long>(amd.md2->hits));
    }

    LocationInfo new_loc;
    if (allow_llc) {
        // Case E/F: relocate the master to its victim location.
        new_loc = allocateVictimInLlc(node, line_addr, amd.scramble());
        std::uint32_t set = 0;
        TaglessLine &slot = llcAt(new_loc, line_addr, amd.scramble(), &set);
        slot.valid = true;
        slot.lineAddr = line_addr;
        slot.value = line.value;
        slot.dirty = line.dirty;
        slot.master = true;
        slot.ownerNode = invalidNode;
        slot.rp = LocationInfo::mem();
        llc_[new_loc.node]->markInstalled(set, new_loc.way);
        energy_.count(Structure::LlcData);
        noc_.send(node, sliceEndpoint(new_loc.node),
                  MsgType::WritebackData);
    } else {
        new_loc = LocationInfo::mem();
        if (line.dirty) {
            memory_.write(line_addr, line.value);
            noc_.send(node, farSide(), MsgType::WritebackData);
        }
    }

    if (amd.privateBit()) {
        // Case E: private region, local metadata update only.
        ++events_.e;
        DTRACE(Replacement, this,
               "node%u master evict line 0x%llx: case E -> %s",
               node, static_cast<unsigned long long>(line_addr),
               allow_llc ? "LLC victim location" : "memory");
        amd.li()[idx] = new_loc;
    } else {
        // Case F: shared region, blocking EvictReq through MD3.
        ++events_.f;
        DTRACE(Replacement, this,
               "node%u master evict line 0x%llx: case F through MD3 -> %s",
               node, static_cast<unsigned long long>(line_addr),
               allow_llc ? "LLC victim location" : "memory");
        noc_.send(node, farSide(), MsgType::EvictReq);
        energy_.count(Structure::Md3);
        lockRegion(pregion);
        Md3Entry *e3 = md3_->probe(pregion);
        panic_if(!e3, "shared region missing from MD3");
        for (NodeId p = 0; p < params_.numNodes; ++p) {
            if (p == node || !((e3->pb >> p) & 1))
                continue;
            noc_.send(farSide(), p, MsgType::NewMaster);
            newMasterAtNode(p, pregion, idx, line_addr, new_loc);
        }
        amd.li()[idx] = new_loc;
        e3->li[idx] = new_loc;
        noc_.send(node, farSide(), MsgType::Done);
    }
}

void
D2mSystem::evictL1Slot(NodeId node, bool side_i, std::uint32_t set,
                       std::uint32_t way)
{
    TaglessCache &l1 = l1For(node, side_i);
    TaglessLine &line = l1.at(set, way);
    if (!line.valid)
        return;
    const std::uint64_t pregion = regionOf(line.lineAddr);
    const unsigned idx = lineIdxOf(line.lineAddr);
    // Following the line's TP to the active MD entry costs an MD2
    // access and possibly an MD1 access (Section III-B example).
    ActiveMd amd = activeMdFor(node, pregion);
    panic_if(!amd.tracked(), "L1 line in an untracked region");

    if (!line.master) {
        if (line.rp.isMem()) {
            // The only cached copy of a memory-mastered line: give it
            // a victim location instead of dropping it, becoming the
            // new master (the paper allocates victim locations for L1
            // cachelines too, Section III-B). Shared regions serialize
            // the master change through MD3 (case F); a racing sharer
            // sees its RP repointed and drops silently later.
            masterEvicted(node, line, /*allow_llc=*/true);
            line.invalidate();
            return;
        }
        // Replicated lines replace silently; the LI falls back to the
        // RP (the master location, or a local NS replica).
        amd.li()[idx] = line.rp;
        line.invalidate();
        return;
    }

    if (nodes_[node].l2) {
        // A private L2 absorbs L1 master victims: a purely local move
        // (remote nodes track masters by NodeID only).
        TaglessCache &l2 = *nodes_[node].l2;
        const std::uint32_t l2set =
            l2.setFor(line.lineAddr, amd.scramble());
        const std::uint32_t l2way = l2.victimWay(l2set);
        evictL2Slot(node, l2set, l2way);
        TaglessLine &slot = l2.at(l2set, l2way);
        slot = line;
        l2.markInstalled(l2set, l2way);
        energy_.count(Structure::L2Data);
        amd.li()[idx] = LocationInfo::inL2(l2way);
        line.invalidate();
        return;
    }

    masterEvicted(node, line, /*allow_llc=*/true);
    line.invalidate();
}

void
D2mSystem::evictL2Slot(NodeId node, std::uint32_t set, std::uint32_t way)
{
    TaglessCache &l2 = *nodes_[node].l2;
    TaglessLine &line = l2.at(set, way);
    if (!line.valid)
        return;
    const std::uint64_t pregion = regionOf(line.lineAddr);
    const unsigned idx = lineIdxOf(line.lineAddr);
    ActiveMd amd = activeMdFor(node, pregion);
    panic_if(!amd.tracked(), "L2 line in an untracked region");
    if (!line.master && !line.rp.isMem()) {
        amd.li()[idx] = line.rp;
        line.invalidate();
        return;
    }
    // Masters, and memory-mastered replicas being promoted (see
    // evictL1Slot), move to a victim location.
    masterEvicted(node, line, /*allow_llc=*/true);
    line.invalidate();
}

void
D2mSystem::nodeRegionEvict(NodeId node, std::uint64_t pregion)
{
    ++events_.md2Spills;
    DTRACE(MD, this, "node%u MD2 spill region 0x%llx (flush local copies)",
           node, static_cast<unsigned long long>(pregion));
    ActiveMd amd = activeMdFor(node, pregion, /*charge=*/false);
    panic_if(!amd.tracked(), "evicting an untracked region");

    // Flush every local copy the region tracks (metadata inclusion).
    for (unsigned idx = 0; idx < params_.regionLines; ++idx) {
        const Addr la = (pregion << regionLinesLog_) | idx;
        while (true) {
            const LocationInfo li = amd.li()[idx];
            if (!liIsLocal(node, li, la, amd.scramble()))
                break;
            if (li.kind == LiKind::L1) {
                TaglessCache &l1 = l1For(node, amd.sideI());
                evictL1Slot(node, amd.sideI(),
                            l1.setFor(la, amd.scramble()), li.way);
            } else if (li.kind == LiKind::L2) {
                evictL2Slot(node, nodes_[node].l2->setFor(la,
                                                          amd.scramble()),
                            li.way);
            } else {
                // Own-slice replica: drop it, LI falls back to its RP.
                std::uint32_t set = 0;
                TaglessLine &slot = llcAt(li, la, amd.scramble(), &set);
                amd.li()[idx] = slot.rp;
                slot.invalidate();
            }
        }
    }

    // Spill: hand the final LIs back to MD3 and clear the PB bit.
    noc_.send(node, farSide(), MsgType::MD2Spill);
    energy_.count(Structure::Md3);
    Md3Entry *e3 = md3_->probe(pregion);
    panic_if(!e3, "MD3 inclusion violated on spill");
    if (amd.privateBit()) {
        // Private regions carried authoritative LIs only in the node.
        e3->li = amd.li();
        for (auto &li : e3->li) {
            panic_if(li.isLocalCache(),
                     "local LI survived the region flush");
        }
    }
    e3->pb &= ~(std::uint64_t(1) << node);

    if (amd.md1)
        amd.md1->valid = false;
    amd.md2->valid = false;
}

void
D2mSystem::flushNodeRegion(NodeId node, std::uint64_t pregion)
{
    ActiveMd amd = activeMdFor(node, pregion, /*charge=*/false);
    if (!amd.tracked())
        return;
    for (unsigned idx = 0; idx < params_.regionLines; ++idx) {
        const Addr la = (pregion << regionLinesLog_) | idx;
        // Drop the local chain; dirty masters go straight to memory.
        std::uint64_t master_value = 0;
        bool had_master = false;
        bool master_dirty = false;
        while (true) {
            const LocationInfo li = amd.li()[idx];
            if (!liIsLocal(node, li, la, amd.scramble()))
                break;
            TaglessLine *slot = nullptr;
            if (li.kind == LiKind::L1) {
                TaglessCache &l1 = l1For(node, amd.sideI());
                slot = &l1.at(l1.setFor(la, amd.scramble()), li.way);
            } else if (li.kind == LiKind::L2) {
                slot = &nodes_[node].l2->at(
                    nodes_[node].l2->setFor(la, amd.scramble()), li.way);
            } else {
                std::uint32_t set = 0;
                slot = &llcAt(li, la, amd.scramble(), &set);
            }
            if (slot->master) {
                had_master = true;
                master_dirty = slot->dirty;
                master_value = slot->value;
            }
            amd.li()[idx] = slot->rp;
            slot->invalidate();
        }
        if (had_master && master_dirty) {
            memory_.write(la, master_value);
            noc_.send(node, farSide(), MsgType::WritebackData);
        }
        // Private regions may track LLC masters only through the
        // owner's LIs: flush those too (the region is dying).
        if (amd.privateBit()) {
            const LocationInfo li = amd.li()[idx];
            if (li.kind == LiKind::Llc) {
                std::uint32_t set = 0;
                TaglessLine &slot = llcAt(li, la, amd.scramble(), &set);
                if (slot.valid && slot.lineAddr == la) {
                    if (slot.dirty) {
                        memory_.write(la, slot.value);
                        noc_.send(sliceEndpoint(li.node), farSide(),
                                  MsgType::MemWrite);
                    }
                    slot.invalidate();
                }
                amd.li()[idx] = LocationInfo::mem();
            }
        }
    }
    if (amd.md1)
        amd.md1->valid = false;
    amd.md2->valid = false;
}

void
D2mSystem::globalMd3Evict(Md3Entry &e3)
{
    ++events_.md3Evictions;
    const std::uint64_t pregion = e3.key;
    DTRACE(MD, this, "MD3 evict region 0x%llx (flush %u tracking nodes)",
           static_cast<unsigned long long>(pregion),
           static_cast<unsigned>(std::popcount(e3.pb)));

    // First flush every tracking node (drops replicas and private
    // masters; dirty data goes straight to memory)...
    for (NodeId p = 0; p < params_.numNodes; ++p) {
        if (!((e3.pb >> p) & 1))
            continue;
        noc_.send(farSide(), p, MsgType::RegionFlush);
        flushNodeRegion(p, pregion);
        noc_.send(p, farSide(), MsgType::FlushAck);
    }
    // ...then the LLC lines MD3 itself tracks (shared/untracked).
    for (unsigned idx = 0; idx < params_.regionLines; ++idx) {
        const LocationInfo li = e3.li[idx];
        if (li.kind != LiKind::Llc)
            continue;
        const Addr la = (pregion << regionLinesLog_) | idx;
        std::uint32_t set = 0;
        TaglessLine &slot = llcAt(li, la, e3.scramble, &set);
        if (slot.valid && slot.lineAddr == la) {
            if (slot.dirty) {
                memory_.write(la, slot.value);
                noc_.send(sliceEndpoint(li.node), farSide(),
                          MsgType::MemWrite);
            }
            slot.invalidate();
        }
    }
    e3.valid = false;
}

// ===================================================================
// Data service
// ===================================================================

std::uint64_t
D2mSystem::fetchFromMaster(NodeId node, const LocationInfo &master,
                           std::uint64_t pregion, Addr line_addr,
                           bool invalidate_master, Cycles &lat,
                           ServiceLevel &level, bool &was_mru)
{
    was_mru = false;
    // One LI hop per master indirection: the requester follows its
    // location info straight to the holder (no tag probes on the way).
    DTRACE(MD, this, "node%u LI hop for line 0x%llx -> kind %d target %u",
           node, static_cast<unsigned long long>(line_addr),
           static_cast<int>(master.kind), master.node);
    ++curLiHops_;
    switch (master.kind) {
      case LiKind::Llc: {
        const std::uint32_t slice = master.node;
        const std::uint32_t ep = sliceEndpoint(slice);
        lat += noc_.send(node, ep, MsgType::ReadReq);
        std::uint32_t set = 0;
        // The region's scramble governs LLC indexing; all trackers of
        // the region share it via their metadata.
        std::uint32_t scramble = 0;
        if (Md3Entry *e3 = md3_->probe(pregion))
            scramble = e3->scramble;
        TaglessLine &slot = llcAt(master, line_addr, scramble, &set);
        panic_if(!slot.valid || slot.lineAddr != line_addr,
                 "deterministic LI violated at LLC: line 0x%llx wanted at "
                 "slice %u set %u way %u; slot valid=%d holds 0x%llx "
                 "master=%d owner=%u; requester node %u, region 0x%llx, "
                 "class %d, scramble %u",
                 static_cast<unsigned long long>(line_addr), slice, set,
                 master.way, slot.valid,
                 static_cast<unsigned long long>(slot.lineAddr),
                 slot.master, slot.ownerNode, node,
                 static_cast<unsigned long long>(pregion),
                 static_cast<int>(regionClass(pregion)), scramble);
        energy_.count(Structure::LlcData);
        lat += params_.lat.llc;
        was_mru = llc_[slice]->isMru(set, master.way);
        llc_[slice]->touch(set, master.way);
        const std::uint64_t value = slot.value;
        level = (nearSide_ && slice == node) ? ServiceLevel::LLC_NEAR
                                             : ServiceLevel::LLC_FAR;
        if (level == ServiceLevel::LLC_NEAR)
            ++events_.llcAccessesLocal;
        else
            ++events_.llcAccessesRemote;
        if (invalidate_master) {
            panic_if(!slot.master,
                     "exclusive fetch hit a non-master LLC line");
            slot.invalidate();
        }
        lat += noc_.send(ep, node, MsgType::DataResp);
        return value;
      }
      case LiKind::Mem: {
        lat += noc_.send(node, farSide(), MsgType::ReadReq);
        lat += params_.lat.dram;
        ++stats_.dramAccesses;
        const std::uint64_t value = memory_.read(line_addr);
        level = ServiceLevel::MEMORY;
        lat += noc_.send(farSide(), node, MsgType::DataResp);
        return value;
      }
      case LiKind::Node: {
        const NodeId r = master.node;
        panic_if(r == node, "fetchFromMaster pointed at the requester");
        lat += noc_.send(node, r, MsgType::ReadReq);
        // The remote master performs its own MD lookup to locate the
        // line (Section III-A).
        ActiveMd amd_r = activeMdFor(r, pregion);
        panic_if(!amd_r.tracked(), "master node lost the region");
        lat += params_.lat.md2;
        const unsigned idx = lineIdxOf(line_addr);
        const std::uint64_t value =
            readLocalValue(r, amd_r, idx, line_addr, lat);
        if (invalidate_master) {
            dropLocalCopies(r, amd_r, idx, line_addr);
            amd_r.li()[idx] = LocationInfo::inNode(node);
        } else {
            // The requester installs a replica: the remote master
            // loses exclusivity (M/E -> O/F).
            LocationInfo li_r = amd_r.li()[idx];
            while (liIsLocal(r, li_r, line_addr, amd_r.scramble())) {
                TaglessLine *slot = nullptr;
                if (li_r.kind == LiKind::L1) {
                    TaglessCache &l1 = l1For(r, amd_r.sideI());
                    slot = &l1.at(l1.setFor(line_addr, amd_r.scramble()),
                                  li_r.way);
                } else if (li_r.kind == LiKind::L2) {
                    slot = &nodes_[r].l2->at(
                        nodes_[r].l2->setFor(line_addr, amd_r.scramble()),
                        li_r.way);
                } else {
                    std::uint32_t st = 0;
                    slot = &llcAt(li_r, line_addr, amd_r.scramble(), &st);
                }
                if (slot->master) {
                    slot->exclusive = false;
                    break;
                }
                li_r = slot->rp;
            }
        }
        level = ServiceLevel::REMOTE;
        lat += noc_.send(r, node, MsgType::DataResp);
        return value;
      }
      default:
        panic("fetchFromMaster on LI kind %d",
              static_cast<int>(master.kind));
    }
}

std::uint64_t
D2mSystem::caseC(NodeId node, ActiveMd &md, std::uint64_t pregion,
                 Addr line_addr, Cycles &lat)
{
    ++events_.c;
    ++stats_.dirIndirections;
    const unsigned idx = lineIdxOf(line_addr);
    DTRACE(Coherence, this,
           "node%u write upgrade line 0x%llx: case C through MD3",
           node, static_cast<unsigned long long>(line_addr));

    lat += noc_.send(node, farSide(), MsgType::ReadExReq);
    energy_.count(Structure::Md3);
    lat += params_.lat.md3;
    lockRegion(pregion);

    Md3Entry *e3 = md3_->probe(pregion);
    panic_if(!e3, "case C on a region absent from MD3");
    const LocationInfo master = e3->li[idx];

    std::uint64_t value = 0;
    Cycles fetch_lat = 0;
    NodeId master_node = invalidNode;
    if (master.kind == LiKind::Node && master.node == node) {
        // The requester already holds the master locally.
        value = readLocalValue(node, md, idx, line_addr, fetch_lat);
    } else {
        ServiceLevel lvl;
        bool mru = false;
        value = fetchFromMaster(node, master, pregion, line_addr,
                                /*invalidate_master=*/master.kind !=
                                    LiKind::Mem,
                                fetch_lat, lvl, mru);
        if (master.kind == LiKind::Node)
            master_node = master.node;
    }

    // Invalidate the other sharers (multicast steered by the PB bits).
    Cycles inv_lat = 0;
    const std::uint64_t pb_snapshot = e3->pb;
    for (NodeId p = 0; p < params_.numNodes; ++p) {
        if (p == node || p == master_node || !((pb_snapshot >> p) & 1))
            continue;
        noc_.send(farSide(), p, MsgType::Inv);
        DTRACE(Coherence, this,
               "node%u invalidated for line 0x%llx (writer node%u)",
               p, static_cast<unsigned long long>(line_addr), node);
        invalidateLineAtNode(p, pregion, idx, line_addr,
                             LocationInfo::inNode(node));
        noc_.send(p, node, MsgType::InvAck);
        inv_lat = 2 * params_.lat.nocHop;
        maybePrune(p, pregion, *e3);
    }

    lat += std::max(fetch_lat, inv_lat);
    e3->li[idx] = LocationInfo::inNode(node);
    noc_.send(node, farSide(), MsgType::Done);

    // Pruning may have stripped the region back to a single sharer.
    if (classify(true, e3->pb) == RegionClass::Private) {
        ++events_.sharedToPrivate;
        DTRACE(Coherence, this,
               "region 0x%llx reclassified shared -> private (node%u)",
               static_cast<unsigned long long>(pregion), node);
        setPrivate(md, true);
        for (auto &li : e3->li)
            li = LocationInfo::invalid();
    }
    return value;
}

LocationInfo
D2mSystem::replicateToLocalSlice(NodeId node, Addr line_addr,
                                 std::uint32_t scramble,
                                 std::uint64_t value,
                                 const LocationInfo &master, bool is_ifetch)
{
    TaglessCache &arr = *llc_[node];
    const std::uint32_t set = arr.setFor(line_addr, scramble);
    const std::uint32_t way = arr.victimWay(set);
    evictLlcSlot(node, set, way);
    TaglessLine &slot = arr.at(set, way);
    slot.valid = true;
    slot.lineAddr = line_addr;
    slot.value = value;
    slot.dirty = false;
    slot.master = false;
    slot.ownerNode = node;
    slot.rp = master;
    arr.markInstalled(set, way);
    energy_.count(Structure::LlcData);
    placement_->recordReplacement(node);
    if (is_ifetch)
        ++events_.replicationsInst;
    else
        ++events_.replicationsData;
    DTRACE(NSLLC, this,
           "node%u replicated %s line 0x%llx into local slice (way %u)",
           node, is_ifetch ? "inst" : "data",
           static_cast<unsigned long long>(line_addr), way);
    return LocationInfo::inLlc(node, way);
}

std::uint32_t
D2mSystem::installL1(NodeId node, bool side_i, Addr line_addr,
                     std::uint32_t scramble, std::uint64_t value,
                     bool master, bool dirty, const LocationInfo &rp,
                     bool exclusive)
{
    TaglessCache &l1 = l1For(node, side_i);
    const std::uint32_t set = l1.setFor(line_addr, scramble);
    const std::uint32_t way = l1.victimWay(set);
    evictL1Slot(node, side_i, set, way);
    TaglessLine &slot = l1.at(set, way);
    slot.valid = true;
    slot.lineAddr = line_addr;
    slot.value = value;
    slot.dirty = dirty;
    slot.master = master;
    slot.exclusive = master && exclusive;
    slot.ownerNode = invalidNode;
    slot.rp = rp;
    l1.markInstalled(set, way);
    energy_.count(Structure::L1Data);
    ++nodes_[node].md2->probe(regionOf(line_addr))->fills;
    return way;
}

void
D2mSystem::pressureEpoch(Tick now)
{
    if (!nearSide_ || now < nextPressureEpoch_)
        return;
    DTRACE(NSLLC, this, "pressure-exchange epoch at tick %llu",
           static_cast<unsigned long long>(now));
    placement_->exchangeEpoch();
    for (NodeId a = 0; a < params_.numNodes; ++a)
        noc_.multicast(a, ~std::uint64_t(0), MsgType::PressureUpdate);
    nextPressureEpoch_ = now + params_.nsPressurePeriod;
}

AccessResult
D2mSystem::access(NodeId node, const MemAccess &acc, Tick now)
{
    pressureEpoch(now);
    if (faults_) [[unlikely]]
        faults_->onAccess();

    ++stats_.accesses;
    switch (acc.type) {
      case AccessType::IFETCH: ++stats_.ifetches; break;
      case AccessType::LOAD: ++stats_.loads; break;
      case AccessType::STORE: ++stats_.stores; break;
    }

    const bool side_i = isIFetch(acc.type);
    Cycles lat = params_.lat.l1Hit;
    unsigned md_level = 0;
    ActiveMd md = lookupMetadata(node, acc, side_i, lat, md_level);

    const Addr paddr =
        (md.pregion << regionShift_) |
        (acc.vaddr & ((Addr(1) << regionShift_) - 1));
    const Addr line_addr = lineOf(paddr);

    curLiHops_ = 0;
    const AccessResult res = serviceLine(node, acc, side_i, md,
                                         md.pregion, line_addr, md_level,
                                         lat);
    stats_.accessLatency.sample(res.latency);
    return res;
}

AccessResult
D2mSystem::serviceLine(NodeId node, const MemAccess &acc, bool side_i,
                       ActiveMd md, std::uint64_t pregion, Addr line_addr,
                       unsigned md_level, Cycles lat)
{
    const unsigned idx = lineIdxOf(line_addr);
    const bool store = isWrite(acc.type);
    AccessResult res;

    LocationInfo li = md.li()[idx];
    panic_if(li.isInvalid(), "invalid LI in a node's active metadata");

    // ---- L1 hit ----------------------------------------------------
    if (li.kind == LiKind::L1) [[likely]] {
        TaglessCache &l1 = l1For(node, side_i);
        const std::uint32_t set = l1.setFor(line_addr, md.scramble());
        TaglessLine &slot = l1.at(set, li.way);
        panic_if(!slot.valid || slot.lineAddr != line_addr,
                 "deterministic LI violated at L1");
        energy_.count(Structure::L1Data);
        l1.touch(set, li.way);
        ++md.md2->hits;
        if (store) {
            if (slot.master && (md.privateBit() || slot.exclusive)) {
                // Silent upgrade: private regions never need
                // coherence, and an exclusive (M/E) master has no
                // replicas to invalidate.
                slot.value = acc.storeValue;
                slot.dirty = true;
            } else if (slot.master) {
                // Local master in O/F flavor: replicas may exist in
                // other nodes; invalidate them through MD3 (case C).
                caseC(node, md, pregion, line_addr, lat);
                slot.value = acc.storeValue;
                slot.dirty = true;
                slot.exclusive = true;
            } else {
                // Replica: obtain exclusivity, then become master.
                if (md.privateBit()) {
                    // Private region: consume the master directly
                    // (case B, hit flavor).
                    ++events_.b;
                    ++events_.directAccesses;
                    DTRACE(Coherence, this,
                           "node%u store upgrade line 0x%llx: case B "
                           "(private, hit)",
                           node,
                           static_cast<unsigned long long>(line_addr));
                    LocationInfo m = slot.rp;
                    // Chained local NS replica? Drop it first.
                    while (liIsLocal(node, m, line_addr, md.scramble())) {
                        std::uint32_t s2 = 0;
                        TaglessLine &rep =
                            llcAt(m, line_addr, md.scramble(), &s2);
                        m = rep.rp;
                        rep.invalidate();
                    }
                    if (m.kind == LiKind::Llc) {
                        ServiceLevel lvl;
                        bool mru;
                        Cycles flat = 0;
                        fetchFromMaster(node, m, pregion, line_addr,
                                        /*invalidate=*/true, flat, lvl,
                                        mru);
                        lat += flat;
                    }
                    // m == Mem: the master is memory; nothing cached to
                    // consume.
                } else {
                    caseC(node, md, pregion, line_addr, lat);
                    // Drop a chained local NS replica (now stale).
                    LocationInfo m = slot.rp;
                    while (liIsLocal(node, m, line_addr, md.scramble())) {
                        std::uint32_t s2 = 0;
                        TaglessLine &rep =
                            llcAt(m, line_addr, md.scramble(), &s2);
                        m = rep.rp;
                        rep.invalidate();
                    }
                }
                slot.master = true;
                slot.exclusive = true;
                slot.dirty = true;
                slot.value = acc.storeValue;
                slot.rp = LocationInfo::mem();
            }
            res.loadValue = slot.value;
        } else {
            res.loadValue = slot.value;
        }
        res.latency = lat;
        res.level = ServiceLevel::L1;
        events_.sampleCoverage(md_level, 0);
        return res;
    }

    // ---- L1 miss ---------------------------------------------------
    res.l1Miss = true;
    if (side_i) {
        ++stats_.l1iMisses;
        ++stats_.beyondL1I;
    } else {
        ++stats_.l1dMisses;
        ++stats_.beyondL1D;
    }
    if (md.privateBit())
        ++stats_.missesToPrivate;

    std::uint64_t value = 0;
    ServiceLevel level = ServiceLevel::MEMORY;

    if (!store) {
        // ---- Case A: direct read from the master -------------------
        if (md_level == 0)
            ++events_.aMd1;
        else if (md_level == 1)
            ++events_.aMd2;
        if (md_level < 2)
            ++events_.directAccesses;

        bool was_mru = false;
        bool install_master = false;
        bool install_dirty = false;
        LocationInfo rp_for_l1 = li;
        bool defer_rp = false;  //!< Re-derive RP after install evictions.

        if (li.kind == LiKind::L2) {
            // Local move L2 -> L1: no metadata coherence required.
            TaglessCache &l2 = *nodes_[node].l2;
            const std::uint32_t set = l2.setFor(line_addr, md.scramble());
            TaglessLine &slot = l2.at(set, li.way);
            panic_if(!slot.valid || slot.lineAddr != line_addr,
                     "deterministic LI violated at L2");
            energy_.count(Structure::L2Data);
            lat += params_.lat.l2;
            value = slot.value;
            install_master = slot.master;
            install_dirty = slot.dirty;
            rp_for_l1 = slot.rp;
            slot.invalidate();
            level = ServiceLevel::L2;
            if (side_i)
                ++stats_.nearHitsI;
            else
                ++stats_.nearHitsD;
        } else {
            value = fetchFromMaster(node, li, pregion, line_addr,
                                    /*invalidate=*/false, lat, level,
                                    was_mru);
            switch (li.kind) {
              case LiKind::Llc: ++events_.aMasterLlc; break;
              case LiKind::Mem: ++events_.aMasterMem; break;
              case LiKind::Node: ++events_.aMasterRemote; break;
              default: break;
            }
            if (li.kind == LiKind::Mem && md.privateBit()) {
                // Sole user: the fetched copy becomes the master.
                install_master = true;
                rp_for_l1 = LocationInfo::mem();
            } else {
                // Replica of a master that stays put (Appendix A: "the
                // global master location stays unchanged"). The RP is
                // derived after install: the install's own eviction
                // cascade can relocate the master (updating our LI),
                // and a pre-computed RP would go stale.
                defer_rp = true;
                rp_for_l1 = LocationInfo::mem();
            }
            if (level == ServiceLevel::LLC_NEAR) {
                if (side_i)
                    ++stats_.nearHitsI;
                else
                    ++stats_.nearHitsD;
            }
        }
        const std::uint32_t way =
            installL1(node, side_i, line_addr, md.scramble(), value,
                      install_master, install_dirty, rp_for_l1,
                      /*exclusive=*/install_master);
        if (defer_rp) {
            // The LI still names the master (possibly moved by the
            // eviction cascade above, which repaired it in place).
            LocationInfo master_now = md.li()[idx];
            panic_if(master_now.kind == LiKind::L1 ||
                         master_now.kind == LiKind::L2,
                     "master LI unexpectedly local after install");
            const bool already_local_slice =
                nearSide_ && master_now.kind == LiKind::Llc &&
                master_now.node == node;
            LocationInfo rp = master_now;
            if (nearSide_ && !md.privateBit() && !already_local_slice &&
                replication_->shouldReplicate(
                    side_i,
                    master_now.kind == LiKind::Llc &&
                        master_now.node != node,
                    was_mru)) {
                rp = replicateToLocalSlice(node, line_addr, md.scramble(),
                                           value, master_now, side_i);
            }
            l1For(node, side_i).at(
                l1For(node, side_i).setFor(line_addr, md.scramble()),
                way).rp = rp;
        }
        md.li()[idx] = LocationInfo::inL1(way);
    } else {
        // ---- Store miss: case B (private) or case C (shared) -------
        if (md.privateBit()) {
            ++events_.b;
            if (md_level < 2)
                ++events_.directAccesses;
            DTRACE(Coherence, this,
                   "node%u store upgrade line 0x%llx: case B (private)",
                   node, static_cast<unsigned long long>(line_addr));
            const DropResult dropped =
                dropLocalCopies(node, md, idx, line_addr);
            const LocationInfo master = md.li()[idx];
            if (dropped.droppedMaster) {
                value = dropped.masterValue;
                level = ServiceLevel::L2;
                lat += params_.lat.l2;
            } else if (master.kind == LiKind::Llc ||
                       master.kind == LiKind::Mem) {
                bool mru = false;
                value = fetchFromMaster(node, master, pregion, line_addr,
                                        master.kind == LiKind::Llc, lat,
                                        level, mru);
            } else {
                panic("private region master in kind %d",
                      static_cast<int>(master.kind));
            }
        } else {
            value = caseC(node, md, pregion, line_addr, lat);
            dropLocalCopies(node, md, idx, line_addr);
            level = ServiceLevel::LLC_FAR;
        }
        const std::uint32_t way =
            installL1(node, side_i, line_addr, md.scramble(),
                      acc.storeValue, /*master=*/true, /*dirty=*/true,
                      LocationInfo::mem(), /*exclusive=*/true);
        md.li()[idx] = LocationInfo::inL1(way);
        value = acc.storeValue;
    }

    stats_.missLatencyTotal += lat;
    stats_.missLatency.sample(lat);
    events_.liHopsPerMiss.sample(curLiHops_);
    events_.sampleCoverage(md_level, dataLevelIndex(level));
    res.latency = lat;
    res.level = level;
    res.loadValue = value;
    return res;
}

// ===================================================================
// Invariants / accounting
// ===================================================================

double
D2mSystem::sramKib() const
{
    return params_.totalSramKib(/*is_d2m=*/true, /*has_directory=*/false);
}

} // namespace d2m
