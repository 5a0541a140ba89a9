/**
 * @file
 * Tests for the out-of-order core with value prediction disabled —
 * the paper's base processor (§2.1). Every run is implicitly checked
 * instruction-by-instruction against the functional pre-execution
 * trace inside the core, so these tests focus on timing behaviour:
 * superscalar issue, dependence serialisation, functional-unit
 * latencies, branch misprediction penalties, memory ordering and
 * store-to-load forwarding, and window-size effects.
 */

#include <gtest/gtest.h>

#include <string>

#include "vsim/assembler/assembler.hh"
#include "vsim/core/ooo_core.hh"

namespace
{

using namespace vsim;
using core::CoreConfig;
using core::OooCore;
using core::SimOutcome;

SimOutcome
runBase(const std::string &src, CoreConfig cfg = CoreConfig{})
{
    cfg.useValuePrediction = false;
    OooCore core(assembler::assemble(src), cfg);
    return core.run();
}

std::string
repeatLine(const std::string &line, int n)
{
    std::string out;
    for (int i = 0; i < n; ++i)
        out += line + "\n";
    return out;
}

TEST(Base, RunsAndChecksAgainstFunctional)
{
    const SimOutcome out = runBase(R"(
        li a0, 0
        li a1, 1
        li a2, 1001
    loop:
        add a0, a0, a1
        addi a1, a1, 1
        bne a1, a2, loop
        halt a0
    )");
    EXPECT_TRUE(out.halted);
    EXPECT_EQ(out.exitCode, 500500u);
    EXPECT_GT(out.stats.cycles, 0u);
    EXPECT_EQ(out.stats.retired, 3u + 3u * 1000u + 1u);
}

TEST(Base, OutputMatchesFunctional)
{
    const SimOutcome out = runBase(R"(
        li t0, 5
    loop:
        puti t0
        li a0, ' '
        putc a0
        addi t0, t0, -1
        bnez t0, loop
        halt
    )");
    EXPECT_EQ(out.output, "5 4 3 2 1 ");
}

/** A counted loop around @p body, iterated @p iters times. */
std::string
loopAround(const std::string &body, int iters)
{
    return "li s11, " + std::to_string(iters) + "\nbody:\n" + body
           + "addi s11, s11, -1\nbnez s11, body\nhalt\n";
}

TEST(Base, IndependentOpsExploitWidth)
{
    // 64 independent adds per iteration, looped so the i-cache warms
    // up: an 8-wide machine must sustain an IPC well above 4.
    std::string body;
    for (int i = 0; i < 8; ++i) {
        body += "addi t0, zero, 1\naddi t1, zero, 2\n"
                "addi t2, zero, 3\naddi t3, zero, 4\n"
                "addi t4, zero, 5\naddi t5, zero, 6\n"
                "addi t6, zero, 7\naddi s0, zero, 8\n";
    }
    const SimOutcome out = runBase(loopAround(body, 50));
    EXPECT_GT(out.stats.ipc(), 4.0);
}

TEST(Base, DependenceChainSerialises)
{
    // Chained adds: IPC must collapse to about 1 once warm.
    const std::string src =
        "li a0, 0\n" + loopAround(repeatLine("addi a0, a0, 1", 32), 32);
    const SimOutcome out = runBase(src);
    EXPECT_LT(out.stats.ipc(), 1.3);
    EXPECT_GT(out.stats.ipc(), 0.8);
}

TEST(Base, DivChainRespectsLatency)
{
    // Chained divides serialise at the divide latency: >= 20 cycles
    // per instruction in the chain.
    const std::string src =
        "li a0, 1000000\nli a1, 1\n"
        + loopAround(repeatLine("div a0, a0, a1", 8), 16);
    const SimOutcome out = runBase(src);
    EXPECT_GT(out.stats.cycles, 16u * 8u * 20u);
}

TEST(Base, MulLatencyBetweenAluAndDiv)
{
    const auto mul_out = runBase(
        "li a0, 3\nli a1, 1\n"
        + loopAround(repeatLine("mul a0, a0, a1", 16), 16));
    const auto alu_out = runBase(
        "li a0, 3\nli a1, 0\n"
        + loopAround(repeatLine("add a0, a0, a1", 16), 16));
    // Each chained multiply costs ~2 extra cycles over an add.
    EXPECT_GT(mul_out.stats.cycles,
              alu_out.stats.cycles + 16 * 16 * 2 - 64);
}

TEST(Base, PredictableBranchesCostLittle)
{
    // A counted loop is perfectly predictable after warmup.
    const SimOutcome out = runBase(R"(
        li a0, 0
        li a1, 2000
    loop:
        addi a0, a0, 1
        bne a0, a1, loop
        halt a0
    )");
    const double mr = out.stats.condBranches == 0
                          ? 1.0
                          : static_cast<double>(out.stats.condMispredicts)
                                / static_cast<double>(
                                      out.stats.condBranches);
    EXPECT_LT(mr, 0.02);
}

TEST(Base, UnpredictableBranchesCostCycles)
{
    // Direction depends on a xorshift PRNG bit: near-random.
    const std::string src = R"(
        li s0, 88172645463325252
        li s1, 0
        li s2, 3000
        li s3, 0
    loop:
        # xorshift step
        slli t0, s0, 13
        xor s0, s0, t0
        srli t0, s0, 7
        xor s0, s0, t0
        slli t0, s0, 17
        xor s0, s0, t0
        andi t1, s0, 1
        beqz t1, skip
        addi s3, s3, 1
    skip:
        addi s1, s1, 1
        bne s1, s2, loop
        halt s3
    )";
    const SimOutcome out = runBase(src);
    const double mr = static_cast<double>(out.stats.condMispredicts)
                      / static_cast<double>(out.stats.condBranches);
    // Half the branches are random; overall misprediction rate must be
    // substantial, and squashes observed.
    EXPECT_GT(mr, 0.15);
    EXPECT_GT(out.stats.squashes, 100u);
}

TEST(Base, StoreLoadForwardingWorks)
{
    const SimOutcome out = runBase(R"(
        .data
    buf: .space 8
        .text
        la t0, buf
        li t1, 77
        sd t1, 0(t0)
        ld a0, 0(t0)     # must forward from the store
        halt a0
    )");
    EXPECT_EQ(out.exitCode, 77u);
    EXPECT_GE(out.stats.loadsForwarded, 1u);
}

TEST(Base, PartialStoreOverlapComposedCorrectly)
{
    const SimOutcome out = runBase(R"(
        .data
    buf: .dword 0x1111111111111111
        .text
        la t0, buf
        li t1, 0xff
        sb t1, 2(t0)       # overwrite byte 2
        ld a0, 0(t0)       # bytes from memory + store
        srli a0, a0, 16
        andi a0, a0, 0xff
        halt a0
    )");
    EXPECT_EQ(out.exitCode, 0xffu);
}

// ---- store-to-load forwarding kernels --------------------------------

/**
 * Run a forwarding kernel on the base machine and on value-predicting
 * machines (every prediction confident, so store addresses and data
 * are speculated too) with valid-ops and with speculative memory
 * resolution; each at windows 16 and 256 under both wakeup
 * schedulers. The exit code is the kernel's checksum, the in-core
 * retire check against the functional trace is the oracle, and both
 * schedulers must forward the same loads.
 * @return loadsForwarded of the base machine at window 256.
 */
std::uint64_t
checkForwardingKernel(const std::string &body, std::uint64_t expected)
{
    // The leading divide holds retirement, so every store is still in
    // flight when the loads behind it issue.
    const assembler::Program prog = assembler::assemble(R"(
        .data
    buf: .dword 0x8877665544332211
         .dword 0x1111111111111111
        .text
        li t4, 7
        li t5, 700
        div t6, t5, t4
        la t0, buf
    )" + body);
    std::uint64_t base_forwarded = 0;
    const char *machines[] = {"base", "vp-valid-mem", "vp-spec-mem"};
    for (int m = 0; m < 3; ++m) {
        for (const int window : {16, 256}) {
            std::uint64_t forwarded[2] = {};
            for (const core::SchedulerKind sk :
                 {core::SchedulerKind::ReadyList,
                  core::SchedulerKind::Scan}) {
                CoreConfig cfg;
                cfg.windowSize = window;
                cfg.scheduler = sk;
                cfg.useValuePrediction = m > 0;
                cfg.confidence = core::ConfidenceKind::Always;
                cfg.model.memNeedsValidOps = m < 2;
                const SimOutcome out = OooCore(prog, cfg).run();
                const std::string what =
                    std::string(machines[m]) + " window "
                    + std::to_string(window)
                    + (sk == core::SchedulerKind::Scan ? " scan"
                                                       : " ready-list");
                EXPECT_TRUE(out.halted) << what;
                EXPECT_EQ(out.exitCode, expected) << what;
                forwarded[sk == core::SchedulerKind::Scan] =
                    out.stats.loadsForwarded;
            }
            EXPECT_EQ(forwarded[0], forwarded[1])
                << machines[m] << " window " << window;
            if (m == 0 && window == 256)
                base_forwarded = forwarded[0];
        }
    }
    return base_forwarded;
}

TEST(Forwarding, NarrowStoresUnderWideLoad)
{
    // sb, sh and sw cover bytes 0, 2-3 and 4-7; byte 1 is memory's.
    EXPECT_EQ(checkForwardingKernel(R"(
        li t1, 0xa1
        sb t1, 0(t0)
        li t1, 0xb2c3
        sh t1, 2(t0)
        li t1, 0x54e5f607
        sw t1, 4(t0)
        ld a0, 0(t0)
        halt a0
    )", 0x54e5f607b2c322a1ull), 1u);
}

TEST(Forwarding, YoungestOverlappingStoreWinsPerByte)
{
    // The sw overwrites bytes 2-5 of the older sd.
    EXPECT_EQ(checkForwardingKernel(R"(
        li t1, 0x0102030405060708
        sd t1, 0(t0)
        li t2, 0x2abbccdd
        sw t2, 2(t0)
        ld a0, 0(t0)
        halt a0
    )", 0x01022abbccdd0708ull), 1u);
}

TEST(Forwarding, LoadStraddlesStoreAndMemory)
{
    // Bytes 2-3 come from memory, bytes 4-5 from the store.
    EXPECT_EQ(checkForwardingKernel(R"(
        li t1, 0x7f5e
        sh t1, 4(t0)
        lw a0, 2(t0)
        halt a0
    )", 0x7f5e4433ull), 1u);
}

TEST(Forwarding, AdjacentStoresDoNotForward)
{
    // Stores end right below and start right above the loaded word.
    EXPECT_EQ(checkForwardingKernel(R"(
        li t1, -1
        sw t1, 0(t0)
        sb t1, 8(t0)
        lw a0, 4(t0)
        halt a0
    )", 0xffffffff88776655ull), 0u);
}

TEST(Forwarding, SignExtendsForwardedBytes)
{
    // lb/lh/lw of forwarded negative values: -128 - 32767 - 2.
    EXPECT_EQ(checkForwardingKernel(R"(
        li t1, 0x80
        sb t1, 0(t0)
        li t2, 0x8001
        sh t2, 2(t0)
        li t3, -2
        sw t3, 4(t0)
        lb a0, 0(t0)
        lh a1, 2(t0)
        lw a2, 4(t0)
        add a0, a0, a1
        add a0, a0, a2
        halt a0
    )", static_cast<std::uint64_t>(-128 - 32767 - 2)), 3u);
}

TEST(Base, LoadsWaitForStoreAddresses)
{
    // The store's address depends on a long-latency divide; the
    // following load (to a different location!) must still wait until
    // the store address resolves (conservative ordering, §2.1).
    const SimOutcome with_store = runBase(R"(
        .data
    a:  .dword 1
    b:  .dword 2
        .text
        la s0, a
        la s1, b
        li t0, 800
        li t1, 100
        div t2, t0, t1     # 8, slow
        slli t2, t2, 3     # 64: offset of nothing, but address dep
        add t3, s0, t2
        sd zero, 0(t3)     # store addr waits on divide
        ld a0, 0(s1)       # younger load must wait
        halt a0
    )");
    const SimOutcome without_store = runBase(R"(
        .data
    a:  .dword 1
    b:  .dword 2
        .text
        la s0, a
        la s1, b
        li t0, 800
        li t1, 100
        div t2, t0, t1
        slli t2, t2, 3
        add t3, s0, t2
        ld a0, 0(s1)
        halt a0
    )");
    EXPECT_EQ(with_store.exitCode, 2u);
    EXPECT_GE(with_store.stats.cycles, without_store.stats.cycles);
}

TEST(Base, DeterministicAcrossRuns)
{
    const std::string src = R"(
        li a0, 0
        li a1, 300
    loop:
        addi a0, a0, 3
        addi a1, a1, -1
        bnez a1, loop
        halt a0
    )";
    const SimOutcome a = runBase(src);
    const SimOutcome b = runBase(src);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.exitCode, b.exitCode);
}

/** Wider machines must not run slower on parallel code. */
class WidthSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(WidthSweep, ParallelKernelScales)
{
    CoreConfig cfg;
    cfg.issueWidth = GetParam();
    cfg.windowSize = 6 * GetParam();
    std::string src;
    for (int i = 0; i < 128; ++i)
        src += "addi t" + std::to_string(i % 7) + ", zero, 1\n";
    src += "halt\n";
    const SimOutcome out = runBase(src, cfg);
    EXPECT_TRUE(out.halted);
    // Issue width bounds IPC.
    EXPECT_LE(out.stats.ipc(), static_cast<double>(GetParam()) + 0.01);
}

INSTANTIATE_TEST_SUITE_P(Widths, WidthSweep,
                         ::testing::Values(4, 8, 16));

TEST(Base, TinyWindowStillCorrect)
{
    CoreConfig cfg;
    cfg.issueWidth = 2;
    cfg.windowSize = 4;
    const SimOutcome out = runBase(R"(
        li a0, 0
        li a1, 50
    loop:
        addi a0, a0, 2
        addi a1, a1, -1
        bnez a1, loop
        halt a0
    )", cfg);
    EXPECT_EQ(out.exitCode, 100u);
}

TEST(Base, RecursionWithStackCorrect)
{
    const SimOutcome out = runBase(R"(
        li a0, 12
        call fib
        halt a0
    fib:
        li t0, 2
        blt a0, t0, done
        addi sp, sp, -24
        sd ra, 0(sp)
        sd a0, 8(sp)
        addi a0, a0, -1
        call fib
        sd a0, 16(sp)
        ld a0, 8(sp)
        addi a0, a0, -2
        call fib
        ld t1, 16(sp)
        add a0, a0, t1
        ld ra, 0(sp)
        addi sp, sp, 24
        ret
    done:
        ret
    )");
    EXPECT_EQ(out.exitCode, 144u);
}

TEST(Base, WrongPathLoadsAreHarmless)
{
    // A mispredicted branch sends fetch into code that loads from a
    // pointer that is garbage on the wrong path. The machine must
    // squash it without failing.
    const SimOutcome out = runBase(R"(
        .data
    ptr: .dword 0
        .text
        li s0, 88172645463325252
        li s1, 0
        li s2, 500
        li s3, 0
        la s4, ptr
    loop:
        slli t0, s0, 13
        xor s0, s0, t0
        srli t0, s0, 7
        xor s0, s0, t0
        andi t1, s0, 1
        beqz t1, skip
        ld t2, 0(s4)      # on the wrong path t2 garbage-chases
        ld t3, 0(t2)
        add s3, s3, t3
    skip:
        addi s1, s1, 1
        bne s1, s2, loop
        halt s1
    )");
    EXPECT_EQ(out.exitCode, 500u);
}

TEST(Base, IcacheColdMissesCounted)
{
    std::string src;
    // Enough straight-line code to span several 32B i-cache blocks.
    for (int i = 0; i < 256; ++i)
        src += "addi t0, t0, 1\n";
    src += "halt t0\n";
    const SimOutcome out = runBase(src);
    EXPECT_GT(out.stats.icacheMisses, 10u);
}

TEST(Base, MaxCyclesGuardStopsRunawaySim)
{
    CoreConfig cfg;
    cfg.maxCycles = 500;
    // A long-running (but terminating) program hits the cycle guard.
    const std::string src = R"(
        li a1, 1000000
    loop:
        addi a1, a1, -1
        bnez a1, loop
        halt
    )";
    OooCore core(assembler::assemble(src), cfg);
    const SimOutcome out = core.run();
    EXPECT_FALSE(out.halted);
    EXPECT_EQ(out.stats.cycles, 500u);
}

} // namespace
