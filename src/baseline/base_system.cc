#include "baseline/base_system.hh"

#include "common/logging.hh"
#include "fault/base_fault_model.hh"
#include "obs/debug.hh"

namespace d2m
{

BaselineSystem::BaselineSystem(std::string name, const SystemParams &params)
    : MemorySystem(std::move(name), params, params.lat.nocHop),
      hasL2_(params.l2.present()),
      stats_("hier", this)
{
    const unsigned lshift = params.lineShift();
    nodes_.resize(params.numNodes);
    for (unsigned n = 0; n < params.numNodes; ++n) {
        const std::string prefix = "node" + std::to_string(n);
        nodes_[n].tlb = std::make_unique<Tlb>(prefix + ".tlb", this,
                                              params.tlbEntries,
                                              params.pageShift);
        nodes_[n].l1i = std::make_unique<ClassicCache>(
            prefix + ".l1i", this, params.l1Lines(params.l1i),
            params.l1i.assoc, lshift);
        nodes_[n].l1d = std::make_unique<ClassicCache>(
            prefix + ".l1d", this, params.l1Lines(params.l1d),
            params.l1d.assoc, lshift);
        if (hasL2_) {
            nodes_[n].l2 = std::make_unique<ClassicCache>(
                prefix + ".l2", this, params.l1Lines(params.l2),
                params.l2.assoc, lshift);
        }
    }
    llc_ = std::make_unique<ClassicCache>(
        "llc", this, params.l1Lines(params.llc), params.llc.assoc, lshift);

    if (faults_) {
        faultModel_ = std::make_unique<BaseFaultModel>(*this);
        faults_->bindHost(faultModel_.get());
    }
}

BaselineSystem::~BaselineSystem() = default;

ClassicCache &
BaselineSystem::l1For(NodeId node, AccessType type)
{
    return isIFetch(type) ? *nodes_[node].l1i : *nodes_[node].l1d;
}

Addr
BaselineSystem::translate(NodeId node, const MemAccess &acc, Cycles &lat)
{
    energy_.count(Structure::Tlb);
    if (!nodes_[node].tlb->lookup(acc.asid, acc.vaddr)) {
        energy_.count(Structure::PageWalk);
        lat += params_.lat.pageWalk;
    }
    return pageTable_.translate(acc.asid, acc.vaddr);
}

ClassicLine *
BaselineSystem::probeNode(NodeId n, Addr line_addr, ClassicCache **where)
{
    // Inward probes search all ways of all private levels: the
    // associative-search cost the paper attributes to coupled designs.
    energy_.count(Structure::L1Tag, nodes_[n].l1i->assoc());
    energy_.count(Structure::L1Tag, nodes_[n].l1d->assoc());
    if (hasL2_)
        energy_.count(Structure::L2Tag, nodes_[n].l2->assoc());

    // Prefer the L1 copy: within a node the L1 holds the freshest data.
    for (ClassicCache *cache : {nodes_[n].l1d.get(), nodes_[n].l1i.get(),
                                hasL2_ ? nodes_[n].l2.get() : nullptr}) {
        if (!cache)
            continue;
        if (ClassicLine *line = cache->probe(line_addr)) {
            if (where)
                *where = cache;
            return line;
        }
    }
    return nullptr;
}

bool
BaselineSystem::invalidateInNode(NodeId n, Addr line_addr,
                                 std::uint64_t &mval)
{
    ++stats_.invalidationsReceived;
    DTRACE(Coherence, this, "node%u invalidation probe for line 0x%llx",
           n, static_cast<unsigned long long>(line_addr));
    bool found = false;
    bool have_m = false;
    for (ClassicCache *cache : {nodes_[n].l1d.get(), nodes_[n].l1i.get(),
                                hasL2_ ? nodes_[n].l2.get() : nullptr}) {
        if (!cache)
            continue;
        if (ClassicLine *line = cache->probe(line_addr)) {
            found = true;
            if (line->state == Mesi::M && !have_m) {
                mval = line->value;
                have_m = true;
            }
            line->invalidate();
        }
    }
    energy_.count(Structure::L1Tag,
                  nodes_[n].l1i->assoc() + nodes_[n].l1d->assoc());
    if (hasL2_)
        energy_.count(Structure::L2Tag, nodes_[n].l2->assoc());
    if (!found)
        ++stats_.falseInvalidations;
    return have_m;
}

Cycles
BaselineSystem::invalidateSharers(ClassicLine &llc_line, NodeId except)
{
    bool any = false;
    for (NodeId n = 0; n < params_.numNodes; ++n) {
        if (n == except || !((llc_line.sharers >> n) & 1))
            continue;
        noc_.send(farSide(), n, MsgType::Inv);
        std::uint64_t mval = 0;
        if (invalidateInNode(n, llc_line.lineAddr, mval)) {
            llc_line.value = mval;
            llc_line.dirty = true;
        }
        noc_.send(n, except, MsgType::InvAck);
        any = true;
    }
    llc_line.sharers &= (std::uint64_t(1) << except);
    if (llc_line.owner != invalidNode && llc_line.owner != except)
        llc_line.owner = invalidNode;
    // Invalidations to all sharers proceed in parallel: one round trip.
    return any ? 2 * params_.lat.nocHop : 0;
}

ClassicLine &
BaselineSystem::allocateLlc(Addr line_addr, Cycles &lat)
{
    (void)lat;  // back-invalidations are off the fill critical path
    ClassicLine &victim = llc_->victimFor(line_addr);
    if (victim.valid()) {
        DTRACE(Replacement, this,
               "LLC victim line 0x%llx back-invalidated for 0x%llx",
               static_cast<unsigned long long>(victim.lineAddr),
               static_cast<unsigned long long>(line_addr));
        // Inclusion: purge every private copy of the victim.
        for (NodeId n = 0; n < params_.numNodes; ++n) {
            const bool tracked = ((victim.sharers >> n) & 1) ||
                                 victim.owner == n;
            if (!tracked)
                continue;
            noc_.send(farSide(), n, MsgType::BackInv);
            std::uint64_t mval = 0;
            if (invalidateInNode(n, victim.lineAddr, mval)) {
                victim.value = mval;
                victim.dirty = true;
                noc_.send(n, farSide(), MsgType::WritebackData);
            } else {
                noc_.send(n, farSide(), MsgType::InvAck);
            }
        }
        if (victim.dirty)
            memory_.write(victim.lineAddr, victim.value);
        energy_.count(Structure::LlcData);
        victim.invalidate();
    }
    return victim;
}

std::uint64_t
BaselineSystem::llcService(NodeId node, Addr line_addr, bool want_excl,
                           Cycles &lat, ServiceLevel &level,
                           Mesi &granted)
{
    lat += noc_.send(node, farSide(),
                     want_excl ? MsgType::ReadExReq : MsgType::ReadReq);
    // Associative LLC tag search + directory consultation.
    energy_.count(Structure::LlcTag, llc_->assoc());
    energy_.count(Structure::Directory);
    lat += params_.lat.directory;

    std::uint64_t value = 0;
    ClassicLine *line = llc_->lookup(line_addr);
    if (!line) {
        ClassicLine &slot = allocateLlc(line_addr, lat);
        value = memory_.read(line_addr);
        lat += params_.lat.dram;
        ++stats_.dramAccesses;
        llc_->install(slot, line_addr, Mesi::S, value);
        energy_.count(Structure::LlcData);
        line = &slot;
        level = ServiceLevel::MEMORY;
        lat += noc_.send(farSide(), node, MsgType::DataResp);
    } else {
        level = ServiceLevel::LLC_FAR;
        if (line->owner != invalidNode && line->owner != node) {
            // Directory indirection: forward to the remote E/M owner.
            ++stats_.dirIndirections;
            DTRACE(Coherence, this,
                   "node%u line 0x%llx forwarded to owner node%u",
                   node, static_cast<unsigned long long>(line_addr),
                   line->owner);
            const NodeId owner = line->owner;
            lat += noc_.send(farSide(), owner, MsgType::FwdReq);
            ClassicCache *where = nullptr;
            ClassicLine *copy = probeNode(owner, line_addr, &where);
            if (copy) {
                value = copy->value;
                level = ServiceLevel::REMOTE;
                if (want_excl) {
                    std::uint64_t mval = 0;
                    invalidateInNode(owner, line_addr, mval);
                    line->value = value;
                    line->dirty = true;
                    line->owner = invalidNode;
                } else {
                    // Downgrade M/E -> S with a coherent writeback.
                    const bool was_m = copy->state == Mesi::M;
                    for (ClassicCache *c :
                         {nodes_[owner].l1d.get(), nodes_[owner].l1i.get(),
                          hasL2_ ? nodes_[owner].l2.get() : nullptr}) {
                        if (!c)
                            continue;
                        if (ClassicLine *cl = c->probe(line_addr))
                            cl->state = Mesi::S;
                    }
                    if (was_m) {
                        noc_.send(owner, farSide(), MsgType::WritebackData);
                        line->value = value;
                        line->dirty = true;
                    }
                    line->owner = invalidNode;
                    line->sharers |= std::uint64_t(1) << owner;
                }
                lat += noc_.send(owner, node, MsgType::DataResp);
            } else {
                // Stale owner (silent E eviction): serve from the LLC.
                line->owner = invalidNode;
                value = line->value;
                energy_.count(Structure::LlcData);
                lat += params_.lat.llc;
                lat += noc_.send(farSide(), node, MsgType::DataResp);
            }
        } else {
            if (want_excl)
                lat += invalidateSharers(*line, node);
            value = line->value;
            energy_.count(Structure::LlcData);
            lat += params_.lat.llc;
            lat += noc_.send(farSide(), node, MsgType::DataResp);
        }
    }

    if (want_excl) {
        line->owner = node;
        line->sharers = std::uint64_t(1) << node;
        granted = Mesi::M;
    } else if (line->sharers == 0 && line->owner == invalidNode) {
        line->owner = node;  // exclusive (E) grant
        line->sharers = std::uint64_t(1) << node;
        granted = Mesi::E;
    } else {
        line->sharers |= std::uint64_t(1) << node;
        granted = Mesi::S;
    }
    return value;
}

void
BaselineSystem::evictPrivateLine(NodeId node, ClassicCache &cache,
                                 ClassicLine &victim)
{
    if (!victim.valid())
        return;
    const Addr line_addr = victim.lineAddr;
    std::uint64_t value = victim.value;
    bool dirty = victim.state == Mesi::M;

    if (hasL2_ && &cache == nodes_[node].l2.get()) {
        // L2 inclusion over the L1s: purge L1 copies first.
        for (ClassicCache *l1 :
             {nodes_[node].l1i.get(), nodes_[node].l1d.get()}) {
            if (ClassicLine *cl = l1->probe(line_addr)) {
                if (cl->state == Mesi::M) {
                    value = cl->value;
                    dirty = true;
                }
                cl->invalidate();
            }
        }
    }

    // Free the slot before the writeback so holds-checks below do not
    // see the victim itself.
    victim.invalidate();

    if (dirty) {
        if (hasL2_ && &cache != nodes_[node].l2.get()) {
            // Dirty L1 line folds into the (inclusive) L2 copy.
            if (ClassicLine *l2l = nodes_[node].l2->probe(line_addr)) {
                l2l->value = value;
                l2l->state = Mesi::M;
                energy_.count(Structure::L2Data);
                return;
            }
        }
        // Coherent writeback to the LLC.
        noc_.send(node, farSide(), MsgType::WritebackData);
        energy_.count(Structure::LlcTag, llc_->assoc());
        energy_.count(Structure::LlcData);
        ClassicLine *llcl = llc_->probe(line_addr);
        panic_if(!llcl, "inclusive LLC lost a dirty private line");
        llcl->value = value;
        llcl->dirty = true;
        if (llcl->owner == node)
            llcl->owner = invalidNode;
        const bool still_held =
            nodes_[node].l1i->probe(line_addr) != nullptr ||
            nodes_[node].l1d->probe(line_addr) != nullptr;
        if (!still_held)
            llcl->sharers &= ~(std::uint64_t(1) << node);
    }
    // Clean evictions are silent; stale directory bits are cleaned up
    // by (false) invalidations later.
}

void
BaselineSystem::installPrivate(NodeId node, AccessType type, Addr line_addr,
                               Mesi state, std::uint64_t value)
{
    if (hasL2_ && !nodes_[node].l2->probe(line_addr)) {
        ClassicLine &victim = nodes_[node].l2->victimFor(line_addr);
        evictPrivateLine(node, *nodes_[node].l2, victim);
        nodes_[node].l2->install(victim, line_addr, state, value);
        energy_.count(Structure::L2Data);
    }
    ClassicCache &l1 = l1For(node, type);
    if (!l1.probe(line_addr)) {
        ClassicLine &victim = l1.victimFor(line_addr);
        evictPrivateLine(node, l1, victim);
        l1.install(victim, line_addr, state, value);
        energy_.count(Structure::L1Data);
    }
}

AccessResult
BaselineSystem::access(NodeId node, const MemAccess &acc, Tick)
{
    if (faults_) [[unlikely]]
        faults_->onAccess();
    ++stats_.accesses;
    switch (acc.type) {
      case AccessType::IFETCH: ++stats_.ifetches; break;
      case AccessType::LOAD: ++stats_.loads; break;
      case AccessType::STORE: ++stats_.stores; break;
    }

    Cycles lat = params_.lat.l1Hit;
    const Addr paddr = translate(node, acc, lat);
    const Addr line_addr = paddr >> params_.lineShift();
    const bool store = isWrite(acc.type);

    ClassicCache &l1 = l1For(node, acc.type);
    // Perfect way prediction (paper Section V-A): one tag + one data way.
    energy_.count(Structure::L1Tag);
    energy_.count(Structure::L1Data);

    AccessResult result;
    ClassicLine *line = l1.lookup(line_addr);
    if (line) [[likely]] {
        if (store && line->state == Mesi::S) {
            // Upgrade through the directory.
            DTRACE(Coherence, this,
                   "node%u S->M upgrade line 0x%llx through directory",
                   node, static_cast<unsigned long long>(line_addr));
            lat += noc_.send(node, farSide(), MsgType::UpgradeReq);
            energy_.count(Structure::LlcTag, llc_->assoc());
            energy_.count(Structure::Directory);
            lat += params_.lat.directory;
            ClassicLine *llcl = llc_->probe(line_addr);
            panic_if(!llcl, "upgrade for a line absent from inclusive LLC");
            lat += invalidateSharers(*llcl, node);
            llcl->owner = node;
            llcl->sharers = std::uint64_t(1) << node;
            lat += noc_.send(farSide(), node, MsgType::InvAck);
            line->state = Mesi::M;
        } else if (store) {
            line->state = Mesi::M;  // silent E->M upgrade
        }
        if (store) {
            line->value = acc.storeValue;
            // Keep the inclusive L2 copy value-synced so a later
            // silent L1 eviction cannot expose stale data.
            if (hasL2_) {
                if (ClassicLine *l2l = nodes_[node].l2->probe(line_addr)) {
                    l2l->value = acc.storeValue;
                    l2l->state = Mesi::M;
                }
            }
        }
        result.latency = lat;
        result.level = ServiceLevel::L1;
        result.loadValue = line->value;
        stats_.accessLatency.sample(lat);
        return result;
    }

    // ---- L1 miss ----
    result.l1Miss = true;
    if (isIFetch(acc.type)) {
        ++stats_.l1iMisses;
        ++stats_.beyondL1I;
    } else {
        ++stats_.l1dMisses;
        ++stats_.beyondL1D;
    }

    std::uint64_t value = 0;
    bool serviced = false;
    if (hasL2_) {
        ClassicCache &l2 = *nodes_[node].l2;
        energy_.count(Structure::L2Tag, l2.assoc());
        lat += params_.lat.l2;
        if (ClassicLine *l2l = l2.lookup(line_addr)) {
            const bool perms_ok =
                !store || l2l->state == Mesi::M || l2l->state == Mesi::E;
            if (perms_ok) {
                energy_.count(Structure::L2Data);
                value = l2l->value;
                if (store)
                    l2l->state = Mesi::M;
                installPrivate(node, acc.type, line_addr, l2l->state, value);
                serviced = true;
                result.level = ServiceLevel::L2;
                if (isIFetch(acc.type))
                    ++stats_.nearHitsI;
                else
                    ++stats_.nearHitsD;
            } else {
                // S in L2, store: upgrade at the directory, then write.
                lat += noc_.send(node, farSide(), MsgType::UpgradeReq);
                energy_.count(Structure::LlcTag, llc_->assoc());
                energy_.count(Structure::Directory);
                lat += params_.lat.directory;
                ClassicLine *llcl = llc_->probe(line_addr);
                panic_if(!llcl, "upgrade miss in inclusive LLC");
                lat += invalidateSharers(*llcl, node);
                llcl->owner = node;
                llcl->sharers = std::uint64_t(1) << node;
                lat += noc_.send(farSide(), node, MsgType::InvAck);
                value = l2l->value;
                l2l->state = Mesi::M;
                installPrivate(node, acc.type, line_addr, Mesi::M, value);
                serviced = true;
                result.level = ServiceLevel::L2;
                if (isIFetch(acc.type))
                    ++stats_.nearHitsI;
                else
                    ++stats_.nearHitsD;
            }
        }
    }

    if (!serviced) {
        ServiceLevel level = ServiceLevel::LLC_FAR;
        Mesi granted = Mesi::S;
        value = llcService(node, line_addr, store, lat, level, granted);
        installPrivate(node, acc.type, line_addr, granted, value);
        result.level = level;
    }

    ClassicLine *fresh = l1.probe(line_addr);
    panic_if(!fresh, "installPrivate failed to fill the L1");
    if (store) {
        fresh->state = Mesi::M;
        fresh->value = acc.storeValue;
        if (hasL2_) {
            if (ClassicLine *l2l = nodes_[node].l2->probe(line_addr)) {
                l2l->state = Mesi::M;
                l2l->value = acc.storeValue;
            }
        }
    }
    result.latency = lat;
    result.loadValue = fresh->value;
    stats_.missLatencyTotal += lat;
    stats_.missLatency.sample(lat);
    stats_.accessLatency.sample(lat);
    return result;
}

bool
BaselineSystem::checkInvariants(std::string &why) const
{
    bool ok = true;
    // Inclusion: every valid private line must be present in the LLC.
    for (NodeId n = 0; n < params_.numNodes && ok; ++n) {
        for (const ClassicCache *cache :
             {nodes_[n].l1i.get(), nodes_[n].l1d.get(),
              hasL2_ ? nodes_[n].l2.get() : nullptr}) {
            if (!cache)
                continue;
            cache->forEachLine([&](const ClassicLine &line) {
                if (!llc_->probe(line.lineAddr)) {
                    ok = false;
                    why = "inclusion violated: line 0x" +
                          std::to_string(line.lineAddr) +
                          " cached privately but absent from LLC";
                }
                if (line.state == Mesi::M || line.state == Mesi::E) {
                    const ClassicLine *llcl = llc_->probe(line.lineAddr);
                    if (llcl && llcl->owner != n &&
                        cache != nodes_[n].l2.get()) {
                        // L1 copy may shadow an L2 entry; owner checks
                        // apply to the node, so verify node ownership.
                        if (llcl->owner != n) {
                            ok = false;
                            why = "M/E line without directory ownership";
                        }
                    }
                }
            });
        }
    }
    return ok;
}

double
BaselineSystem::sramKib() const
{
    return params_.totalSramKib(/*is_d2m=*/false, /*has_directory=*/true);
}

} // namespace d2m
