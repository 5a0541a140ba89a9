/**
 * @file
 * Backend wakeup/select/issue of the layered core. Two selection
 * implementations produce the same candidate set every cycle:
 *
 *  - Scan: the legacy O(window) rescan of every reservation station
 *    against the full wakeup conditions (canIssue).
 *  - ReadyList: the event-driven IssueScheduler; the core touches a
 *    slot whenever something a wakeup decision reads changes, and
 *    classifyWakeup() maps the entry onto ready-now / ready-at-a-
 *    known-cycle / parked-until-an-event.
 *
 * Both paths feed one integer sort of packed (prio, spec, seq) keys,
 * where the class part comes from the model's SelectionPolicy (§3.5),
 * resolved once per core; so runs are bit-identical. A load candidate
 * then gets one loadAccess() walk over its older stores, which yields
 * the ordering verdict, whether it forwards (and so whether it needs
 * a data-cache port), its value and its memory-carried dependences;
 * issueEntry() consumes that result. Ordering and ports are decided
 * in the selection loop, not in wakeup: a load blocked by them stays
 * a candidate and retries, exactly as the scan behaved.
 */

#include "ooo_core.hh"

#include <algorithm>

#include "vsim/arch/exec.hh"
#include "vsim/base/logging.hh"

namespace vsim::core
{

OooCore::LoadAccess
OooCore::loadAccess(const RsEntry &e, std::uint64_t addr) const
{
    // One pass over the older stores, oldest to youngest, answers
    // everything a load asks of the store queue:
    //
    //  - ordering (§2.1): the load may execute only once every older
    //    store address is known; bytes covered by an older store also
    //    need the store's data. Under valid-ops memory resolution that
    //    data must be *valid*; with speculative resolution
    //    (memNeedsValidOps=false) a predicted or speculative value
    //    forwards as-is and its dependence bits ride along in memDeps;
    //  - forwarding: the youngest older store covering a byte supplies
    //    it, memory supplies the rest;
    //  - memory-carried dependences (speculative resolution only): the
    //    ordering check consulted every older store's address, which
    //    may have been computed from speculative operands, so the
    //    address operands' bits ride along for every older store
    //    whether or not it overlaps; bytes taken from a store's data
    //    inherit the data operand's bits. The load's own address base
    //    is covered by its ordinary operand masks.
    //
    // A failed ordering check returns at once, with nothing else
    // filled in.
    LoadAccess a;
    const bool spec_mem = specMemResolution();
    const int size = e.inst.memSize();
    const std::uint64_t end = addr + static_cast<std::uint64_t>(size);
    const bool wraps = end <= addr;
    std::uint64_t fwd = 0;  // forwarded bytes, little-endian
    unsigned covered = 0;   // bit i: load byte i came from a store
    for (int slot : storeQueue) {
        const RsEntry &s = window[static_cast<std::size_t>(slot)];
        if (s.seq >= e.seq)
            break;
        if (!s.addrReady || s.addrReadyAt > cycle)
            return a;

        const int s_size = s.inst.memSize();
        const std::uint64_t s_end =
            s.memAddr + static_cast<std::uint64_t>(s_size);
        const Operand &data = s.src[0];
        const std::uint64_t lo = std::max(s.memAddr, addr);
        const std::uint64_t hi = std::min(s_end, end);
        const bool overlaps = lo < hi;
        if (overlaps) {
            if (data.readyAt > cycle)
                return a;
            if (spec_mem ? !data.hasValue()
                         : data.state != OperandState::Valid) {
                return a;
            }
        }
        if (spec_mem) {
            if (s.src[1].used())
                a.memDeps |= s.src[1].deps;
            if (overlaps && data.used())
                a.memDeps |= data.deps;
        }

        if (!wraps && s_end > s.memAddr) {
            // Neither range wraps past 2^64: the covered bytes are
            // exactly [lo, hi).
            if (!overlaps)
                continue;
            const unsigned n = static_cast<unsigned>(hi - lo);
            const unsigned dst = static_cast<unsigned>(lo - addr);
            const std::uint64_t mask =
                (n == 8 ? ~0ull : (1ull << (8 * n)) - 1) << (8 * dst);
            const std::uint64_t bytes =
                (data.value >> (8 * (lo - s.memAddr))) << (8 * dst);
            fwd = (fwd & ~mask) | (bytes & mask);
            covered |= ((1u << n) - 1) << dst;
            continue;
        }
        // A wrapping range: test each byte with the same modular
        // arithmetic as the per-byte definition.
        for (int i = 0; i < size; ++i) {
            const std::uint64_t b = addr + static_cast<unsigned>(i);
            if (b >= s.memAddr && b < s_end) {
                const unsigned sh = 8 * static_cast<unsigned>(i);
                fwd = (fwd & ~(0xffull << sh))
                      | ((data.value >> (8 * (b - s.memAddr))) & 0xff)
                            << sh;
                covered |= 1u << i;
            }
        }
    }

    a.ordered = true;
    a.forwarded = covered != 0;
    std::uint64_t raw = fwd;
    if (covered != (1u << size) - 1) {
        // Memory fills the bytes no store covered, from one read.
        std::uint64_t fromStores = 0;
        for (int i = 0; i < size; ++i)
            if (covered & (1u << i))
                fromStores |= 0xffull << (8 * i);
        raw |= memory.read(addr, size) & ~fromStores;
    }
    a.value = arch::loadExtend(e.inst, raw);
    return a;
}

bool
OooCore::canIssue(const RsEntry &e) const
{
    if (!e.busy || e.issued || cycle <= e.dispatchAt
        || cycle < e.reissueAt) {
        return false;
    }
    for (const Operand &o : e.src) {
        if (!o.used())
            continue;
        if (!o.hasValue() || o.readyAt > cycle)
            return false;
    }

    const bool needs_valid =
        e.inst.isBranch() || e.inst.isSystem()
            ? model.branchNeedsValidOps || !cfg.useValuePrediction
            : false;
    if (needs_valid) {
        for (const Operand &o : e.src) {
            if (!o.used())
                continue;
            if (o.state != OperandState::Valid)
                return false;
            if (o.validViaEvent
                && cycle < o.validAt + static_cast<std::uint64_t>(
                               model.verifyToBranch)) {
                return false;
            }
        }
    }

    if (e.inst.isMem() && (model.memNeedsValidOps
                           || !cfg.useValuePrediction)) {
        // Address operand: loads use src[0], stores src[1].
        const Operand &base = e.inst.isLoad() ? e.src[0] : e.src[1];
        if (base.used()) {
            if (base.state != OperandState::Valid)
                return false;
            if (base.validViaEvent
                && cycle < base.validAt + static_cast<std::uint64_t>(
                               model.verifyAddrToMem)) {
                return false;
            }
        }
    }
    return true;
}

/**
 * canIssue() recast for the ready-list scheduler: instead of a yes/no
 * at the current cycle, report *when* the entry's conditions hold
 * absent further events. Every condition is either monotone in time
 * (dispatch delay, reissue delay, operand readyAt, the verify-to-use
 * gates) — giving a Timed verdict at the max of the thresholds — or
 * requires another event to change operand state, giving Parked.
 */
WakeClass
OooCore::classifyWakeup(int slot) const
{
    const RsEntry &e = entry(slot);
    if (!e.busy || e.issued)
        return WakeClass::idle();

    std::uint64_t at = std::max(e.dispatchAt + 1, e.reissueAt);
    for (const Operand &o : e.src) {
        if (!o.used())
            continue;
        if (!o.hasValue())
            return WakeClass::parked(); // waits on the result bus
        at = std::max(at, o.readyAt);
    }

    const bool needs_valid =
        e.inst.isBranch() || e.inst.isSystem()
            ? model.branchNeedsValidOps || !cfg.useValuePrediction
            : false;
    if (needs_valid) {
        for (const Operand &o : e.src) {
            if (!o.used())
                continue;
            if (o.state != OperandState::Valid)
                return WakeClass::parked();
            if (o.validViaEvent) {
                at = std::max(at,
                              o.validAt + static_cast<std::uint64_t>(
                                              model.verifyToBranch));
            }
        }
    }

    if (e.inst.isMem() && (model.memNeedsValidOps
                           || !cfg.useValuePrediction)) {
        const Operand &base = e.inst.isLoad() ? e.src[0] : e.src[1];
        if (base.used()) {
            if (base.state != OperandState::Valid)
                return WakeClass::parked();
            if (base.validViaEvent) {
                at = std::max(at,
                              base.validAt + static_cast<std::uint64_t>(
                                                 model.verifyAddrToMem));
            }
        }
    }
    return at <= cycle ? WakeClass::ready() : WakeClass::timed(at);
}

void
OooCore::issueEntry(RsEntry &e, const LoadAccess *load)
{
    // Gather register-role values from the operand slots (the operand
    // order mirrors Inst::srcReg1/srcReg2).
    const isa::OpInfo &oi = e.inst.info();
    std::uint64_t ra_val = 0, rb_val = 0, rc_val = 0;
    if (oi.readsRa) {
        ra_val = e.src[0].value;
        if (oi.readsRb)
            rb_val = e.src[1].value;
    } else {
        if (oi.readsRb)
            rb_val = e.src[0].value;
        if (oi.readsRc)
            rc_val = e.src[1].value;
    }

    RsCold &ec = cold(e.slot);
    const arch::ExecOut out =
        arch::evaluate(e.inst, ec.pc, ra_val, rb_val, rc_val);

    int lat = cfg.aluLat;
    Completion c;
    c.slot = e.slot;
    c.seq = e.seq;
    c.value = out.value;
    c.taken = out.taken;
    c.nextPc = out.nextPc;

    switch (e.inst.info().cls) {
      case isa::ExecClass::IntAlu:
      case isa::ExecClass::Branch:
      case isa::ExecClass::System:
        lat = cfg.aluLat;
        break;
      case isa::ExecClass::IntMul:
        lat = cfg.mulLat;
        break;
      case isa::ExecClass::IntDiv:
        lat = cfg.divLat;
        break;
      case isa::ExecClass::Store:
        lat = cfg.aluLat; // address generation only
        e.memAddr = out.memAddr;
        break;
      case isa::ExecClass::Load: {
        VSIM_DEBUG_ASSERT(load && load->ordered,
                          "load issued without an ordered store-queue walk");
        e.memAddr = out.memAddr;
        e.memDeps = load->memDeps;
        // Memory-carried mask-gaining site: the invalidation sweep
        // must find this load through the subscriber lists.
        if (specMemResolution())
            subsIndex.note(e.slot, e.memDeps);
        c.value = load->value;
        if (load->forwarded) {
            lat = cfg.aluLat + cfg.storeForwardLat;
            ++stats_.loadsForwarded;
        } else {
            lat = cfg.aluLat + dcacheH.access(e.memAddr, false);
            ++dcachePortsUsed;
        }
        break;
      }
    }

    e.issued = true;
    ++e.nonce;
    ++ec.execCount;
    if (ec.execCount > 1) {
        ++stats_.reissues;
        if (statsOpen)
            invalToReissueHist->sample(cycle - ec.nullifiedAt);
    }
    c.nonce = e.nonce;
    VSIM_ASSERT(lat > 0 && static_cast<std::uint64_t>(lat) <= wheelMask,
                "latency ", lat, " outside the completion wheel");
    completionWheel[(cycle + static_cast<std::uint64_t>(lat)) & wheelMask]
        .push_back(c);
    ++stats_.issued;

    if (readyListScheduler())
        sched.remove(e.slot);

    if (tracingEnabled) {
        for (int k = 0; k < lat; ++k)
            tracer_.note(e.seq, cycle + static_cast<unsigned>(k), "EX");
    }
}

void
OooCore::issueStage()
{
    if (halted)
        return;

    // One packed key per candidate (see selectClassKey): ascending
    // order is (prio, spec, seq) order, and the slot rides in the low
    // bits.
    selectKeys.clear();
    const auto addCandidate = [&](int slot) {
        const RsEntry &e = entry(slot);
        bool spec = false;
        for (const Operand &o : e.src) {
            if (o.used() && o.state != OperandState::Valid)
                spec = true;
        }
        const bool typed = e.inst.isBranch() || e.inst.isLoad();
        selectKeys.push_back(selectClassKey[2 * typed + spec]
                             | e.seq << kSelectSlotBits
                             | static_cast<std::uint64_t>(slot));
    };

    if (readyListScheduler()) {
        const std::vector<int> &readySlots = sched.collectReady(
            cycle, [this](int slot) { return classifyWakeup(slot); });
        for (int slot : readySlots) {
            VSIM_DEBUG_ASSERT(canIssue(entry(slot)),
                              "ready-list slot fails the wakeup "
                              "conditions");
            addCandidate(slot);
        }
    } else {
        for (int slot : windowOrder) {
            if (canIssue(entry(slot)))
                addCandidate(slot);
        }
    }

    std::sort(selectKeys.begin(), selectKeys.end());

    int issued = 0;
    for (const std::uint64_t key : selectKeys) {
        if (issued >= cfg.issueWidth)
            break;
        RsEntry &e = entry(static_cast<int>(
            key & ((1u << kSelectSlotBits) - 1)));
        if (e.inst.isLoad()) {
            // The effective address comes from the base operand
            // (cheap, pure); issueEntry recomputes the same value.
            const LoadAccess load = loadAccess(
                e, e.src[0].value
                       + static_cast<std::uint64_t>(
                           static_cast<std::int64_t>(e.inst.imm)));
            if (!load.ordered)
                continue;
            // Loads that cannot forward need a data-cache port.
            if (!load.forwarded
                && dcachePortsUsed >= cfg.effDcachePorts()) {
                continue;
            }
            issueEntry(e, &load);
        } else {
            issueEntry(e, nullptr);
        }
        ++issued;
    }
}

} // namespace vsim::core
