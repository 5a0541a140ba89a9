/**
 * @file
 * Tests for the value-speculation machinery: the speculative-execution
 * model's latency variables (super/great/good, §4.1), the flattened
 * verification network (§3.1/§3.2), selective invalidation and
 * nullification (§3.4), confidence gating, and the base-equivalence
 * property ("when computation does not include predicted values, all
 * models have behaviour identical to the base processor").
 *
 * Every run is also checked instruction-by-instruction against the
 * functional pre-execution inside the core, so each timing test
 * doubles as an end-to-end correctness test of speculation recovery.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "vsim/assembler/assembler.hh"
#include "vsim/base/logging.hh"
#include "vsim/core/ooo_core.hh"

namespace
{

using namespace vsim;
using assembler::Program;
using core::ConfidenceKind;
using core::CoreConfig;
using core::OooCore;
using core::SimOutcome;
using core::SpecModel;

/** Forced predictions keyed by symbol-resolved PC. */
using Forced = std::map<std::uint64_t, std::uint64_t>;

SimOutcome
runForced(const Program &prog, const SpecModel &model,
          const Forced &forced, CoreConfig cfg = CoreConfig{})
{
    cfg.useValuePrediction = true;
    cfg.model = model;
    OooCore core(prog, cfg);
    core.setPredictionOverride(
        [forced](std::uint64_t pc,
                 std::uint64_t) -> std::optional<std::uint64_t> {
            auto it = forced.find(pc);
            if (it == forced.end())
                return std::nullopt;
            return it->second;
        });
    return core.run();
}

SimOutcome
runPlain(const Program &prog, CoreConfig cfg = CoreConfig{})
{
    cfg.useValuePrediction = false;
    OooCore core(prog, cfg);
    return core.run();
}

/**
 * The Figure 1 micro-program: a three-instruction dependence chain
 * (2 depends on 1, 3 depends on 2) preceded by a long-latency
 * producer so the chain is resident in the window before input a0
 * arrives — mirroring the figure's initial condition.
 */
Program
fig1Program()
{
    return assembler::assemble(R"(
        li t0, 700
        li t1, 70
        div a0, t0, t1      # slow producer: a0 = 10
    c1: addi a1, a0, 1      # 11
    c2: addi a2, a1, 1      # 12
    c3: addi a3, a2, 1      # 13
        halt a3
    )");
}

Forced
fig1Correct(const Program &p)
{
    return {{p.symbols.at("c1"), 11}, {p.symbols.at("c2"), 12}};
}

Forced
fig1Wrong(const Program &p)
{
    return {{p.symbols.at("c1"), 99}, {p.symbols.at("c2"), 999}};
}

TEST(SpecModels, NamedModelsMatchPaperTable)
{
    const SpecModel super = SpecModel::superModel();
    EXPECT_EQ(super.execToEquality + super.equalityToInvalidate, 0);
    EXPECT_EQ(super.verifyToFreeResource, 1);
    EXPECT_EQ(super.invalidateToReissue, 0);
    EXPECT_EQ(super.verifyToBranch, 0);
    EXPECT_EQ(super.verifyAddrToMem, 0);

    const SpecModel great = SpecModel::greatModel();
    EXPECT_EQ(great.execToEquality + great.equalityToVerify, 0);
    EXPECT_EQ(great.invalidateToReissue, 1);
    EXPECT_EQ(great.verifyToBranch, 1);

    const SpecModel good = SpecModel::goodModel();
    EXPECT_EQ(good.execToEquality + good.equalityToVerify, 1);
    EXPECT_EQ(good.execToEquality + good.equalityToInvalidate, 1);

    EXPECT_EQ(SpecModel::byName("super").name, "super");
    EXPECT_EQ(SpecModel::byName("great").name, "great");
    EXPECT_EQ(SpecModel::byName("good").name, "good");
    EXPECT_THROW(SpecModel::byName("bogus"), FatalError);
}

TEST(Fig1, CorrectPredictionCollapsesChain)
{
    const Program prog = fig1Program();
    const SimOutcome base = runPlain(prog);
    const SimOutcome super =
        runForced(prog, SpecModel::superModel(), fig1Correct(prog));
    const SimOutcome great =
        runForced(prog, SpecModel::greatModel(), fig1Correct(prog));
    const SimOutcome good =
        runForced(prog, SpecModel::goodModel(), fig1Correct(prog));

    for (const SimOutcome *o : {&base, &super, &great, &good})
        EXPECT_EQ(o->exitCode, 13u);

    // Correct value prediction breaks the chain: super/great beat base.
    EXPECT_LT(super.stats.cycles, base.stats.cycles);
    EXPECT_LT(great.stats.cycles, base.stats.cycles);
    // Optimism ordering; super's edge over great here is the 0-cycle
    // operand-valid notification of the final (valid-resolving) HALT.
    EXPECT_LE(super.stats.cycles, great.stats.cycles);
    // The good model pays the extra equality/verification cycle per
    // dependence level — and, exactly as §6 observes, can end up
    // *slower than base*.
    EXPECT_GT(good.stats.cycles, great.stats.cycles);
    EXPECT_GE(good.stats.cycles + 2, base.stats.cycles);

    EXPECT_EQ(super.stats.verifyEvents, 2u);
    EXPECT_EQ(super.stats.invalidateEvents, 0u);
    EXPECT_EQ(super.stats.nullifications, 0u);
}

TEST(Fig1, MispredictionOrderingAcrossModels)
{
    const Program prog = fig1Program();
    const SimOutcome base = runPlain(prog);
    const SimOutcome super =
        runForced(prog, SpecModel::superModel(), fig1Wrong(prog));
    const SimOutcome great =
        runForced(prog, SpecModel::greatModel(), fig1Wrong(prog));
    const SimOutcome good =
        runForced(prog, SpecModel::goodModel(), fig1Wrong(prog));

    // Recovery must still produce the correct result.
    for (const SimOutcome *o : {&super, &great, &good})
        EXPECT_EQ(o->exitCode, 13u);

    // More optimistic models recover no slower.
    EXPECT_LE(super.stats.cycles, great.stats.cycles);
    EXPECT_LE(great.stats.cycles, good.stats.cycles);
    // With everything mispredicted the super model packs equality,
    // invalidation and reissue into the producer's completion cycle,
    // matching base timing exactly (Fig. 1's super-mispredict case).
    EXPECT_EQ(super.stats.cycles, base.stats.cycles);
    EXPECT_GT(good.stats.cycles, base.stats.cycles);

    // Both predictions were wrong and resolved via invalidation.
    EXPECT_EQ(super.stats.invalidateEvents, 2u);
    EXPECT_EQ(super.stats.verifyEvents, 0u);
}

TEST(Fig1, SelectiveInvalidationIsolatesPredictions)
{
    // c1 mispredicted, c2 predicted *correctly*: the invalidation of
    // c1 must nullify only c2 (its direct dependent); c3 depends on
    // c2's prediction, which later verifies, so c3 never re-executes.
    const Program prog = fig1Program();
    Forced forced = {{prog.symbols.at("c1"), 99},
                     {prog.symbols.at("c2"), 12}};
    const SimOutcome out =
        runForced(prog, SpecModel::greatModel(), forced);
    EXPECT_EQ(out.exitCode, 13u);
    EXPECT_EQ(out.stats.invalidateEvents, 1u);
    EXPECT_EQ(out.stats.verifyEvents, 1u);
    EXPECT_EQ(out.stats.nullifications, 1u); // only c2
}

TEST(Fig1, FlattenedInvalidationNullifiesAllDependentsAtOnce)
{
    // Only c1 predicted (wrongly). c2 computes speculatively from the
    // prediction, c3 from c2 — both are transitive dependents of c1
    // and must be nullified by the single flattened event.
    const Program prog = fig1Program();
    Forced forced = {{prog.symbols.at("c1"), 99}};
    const SimOutcome out =
        runForced(prog, SpecModel::greatModel(), forced);
    EXPECT_EQ(out.exitCode, 13u);
    EXPECT_EQ(out.stats.invalidateEvents, 1u);
    EXPECT_EQ(out.stats.nullifications, 2u); // c2 and c3 together
}

TEST(Spec, NoConfidentPredictionsMatchesBaseExactly)
{
    // Real confidence with 3-bit resetting counters never saturates in
    // 6 loop iterations, so no speculation happens and every model
    // must reproduce base cycles exactly.
    const Program prog = assembler::assemble(R"(
        li a0, 0
        li a1, 6
    loop:
        addi a0, a0, 7
        mul t0, a0, a0
        addi a1, a1, -1
        bnez a1, loop
        halt a0
    )");
    const SimOutcome base = runPlain(prog);
    for (const char *name : {"super", "great", "good"}) {
        CoreConfig cfg;
        cfg.useValuePrediction = true;
        cfg.model = SpecModel::byName(name);
        cfg.confidence = ConfidenceKind::Real;
        OooCore core(prog, cfg);
        const SimOutcome out = core.run();
        EXPECT_EQ(out.stats.cycles, base.stats.cycles) << name;
        EXPECT_EQ(out.exitCode, base.exitCode) << name;
        EXPECT_EQ(out.stats.nullifications, 0u) << name;
    }
}

/** A loop-carried chain whose values repeat exactly per iteration. */
Program
chainLoop(int iters)
{
    // t0 runs 5 -> 6 -> 9 -> ... -> 42 and is folded back to 5 at the
    // bottom, so iterations form one long serial dependence chain and
    // every instruction produces the same value each iteration: ideal
    // for the context predictor, fully serialised on the base machine.
    std::string src = "li a0, 5\nli s1, " + std::to_string(iters) + "\n";
    src += "loop:\n";
    src += "  addi t0, a0, 1\n";
    for (int i = 0; i < 12; ++i)
        src += "  addi t0, t0, 3\n";
    src += "  addi a0, t0, -37\n"; // back to 5: loop-carried
    src += "  addi s1, s1, -1\n  bnez s1, loop\n  halt t0\n";
    return assembler::assemble(src);
}

TEST(Spec, OraclePredictionSpeedsUpDependentLoop)
{
    const Program prog = chainLoop(400);
    const SimOutcome base = runPlain(prog);

    CoreConfig cfg;
    cfg.useValuePrediction = true;
    cfg.model = SpecModel::greatModel();
    cfg.confidence = ConfidenceKind::Oracle;
    OooCore core(prog, cfg);
    const SimOutcome vp = core.run();

    EXPECT_EQ(vp.exitCode, base.exitCode);
    EXPECT_LT(vp.stats.cycles, base.stats.cycles);
    const double speedup = static_cast<double>(base.stats.cycles)
                           / static_cast<double>(vp.stats.cycles);
    EXPECT_GT(speedup, 1.3);
    EXPECT_GT(vp.stats.verifyEvents, 100u);
}

TEST(Spec, GoodModelCanLoseToBase)
{
    // The paper's key observation: with 1-cycle verification the good
    // model serialises verification down dependence chains and can be
    // slower than great/super.
    const Program prog = chainLoop(400);
    CoreConfig cfg;
    cfg.useValuePrediction = true;
    cfg.confidence = ConfidenceKind::Oracle;

    cfg.model = SpecModel::greatModel();
    const SimOutcome great = OooCore(prog, cfg).run();
    cfg.model = SpecModel::goodModel();
    const SimOutcome good = OooCore(prog, cfg).run();

    EXPECT_GT(good.stats.cycles, great.stats.cycles);
}

TEST(Spec, AlwaysConfidenceStillCorrectUnderHeavyMisspeculation)
{
    // Unpredictable (PRNG) values with Always confidence: massive
    // misspeculation, but results must stay architecturally exact.
    const Program prog = assembler::assemble(R"(
        li s0, 88172645463325252
        li s1, 200
        li s2, 0
    loop:
        slli t0, s0, 13
        xor s0, s0, t0
        srli t0, s0, 7
        xor s0, s0, t0
        slli t0, s0, 17
        xor s0, s0, t0
        andi t1, s0, 255
        add s2, s2, t1
        addi s1, s1, -1
        bnez s1, loop
        halt s2
    )");
    const SimOutcome base = runPlain(prog);

    CoreConfig cfg;
    cfg.useValuePrediction = true;
    cfg.model = SpecModel::greatModel();
    cfg.confidence = ConfidenceKind::Always;
    const SimOutcome vp = OooCore(prog, cfg).run();

    EXPECT_EQ(vp.exitCode, base.exitCode);
    EXPECT_GT(vp.stats.invalidateEvents, 100u);
    EXPECT_GT(vp.stats.nullifications, 100u);
    EXPECT_GT(vp.stats.reissues, 100u);
}

TEST(Spec, SuperNoSlowerThanGreatUnderMisspeculation)
{
    const Program prog = assembler::assemble(R"(
        li s0, 88172645463325252
        li s1, 300
        li s2, 0
    loop:
        slli t0, s0, 13
        xor s0, s0, t0
        srli t0, s0, 7
        xor s0, s0, t0
        andi t1, s0, 63
        add s2, s2, t1
        add s2, s2, t1
        addi s1, s1, -1
        bnez s1, loop
        halt s2
    )");
    CoreConfig cfg;
    cfg.useValuePrediction = true;
    cfg.confidence = ConfidenceKind::Always;

    cfg.model = SpecModel::superModel();
    const SimOutcome super = OooCore(prog, cfg).run();
    cfg.model = SpecModel::greatModel();
    const SimOutcome great = OooCore(prog, cfg).run();

    EXPECT_EQ(super.exitCode, great.exitCode);
    EXPECT_LE(super.stats.cycles, great.stats.cycles);
}

TEST(Spec, SlowResourceReleaseHurtsTightWindow)
{
    const Program prog = chainLoop(300);
    CoreConfig cfg;
    cfg.useValuePrediction = true;
    cfg.confidence = ConfidenceKind::Oracle;
    cfg.issueWidth = 4;
    cfg.windowSize = 8; // very tight: release latency matters

    cfg.model = SpecModel::greatModel();
    const SimOutcome fast = OooCore(prog, cfg).run();

    cfg.model = SpecModel::greatModel();
    cfg.model.verifyToFreeResource = 4;
    const SimOutcome slow = OooCore(prog, cfg).run();

    EXPECT_EQ(fast.exitCode, slow.exitCode);
    EXPECT_GT(slow.stats.cycles, fast.stats.cycles);
}

TEST(Spec, VerifyToBranchLatencyDelaysDependentBranches)
{
    // The loop-carried counter is force-predicted (always correctly),
    // so the loop branch's operand becomes valid only through the
    // verification network; verifyToBranch then delays the branch's
    // issue, and under a tight window the retirement lag throttles
    // the whole loop.
    const Program prog = assembler::assemble(R"(
        li a0, 0
        li a1, 500
    p1: addi a0, a0, 1
        bne a0, a1, p1
        halt a0
    )");
    CoreConfig cfg;
    cfg.useValuePrediction = true;
    cfg.issueWidth = 4;
    cfg.windowSize = 12;

    auto run_with = [&](int lat) {
        cfg.model = SpecModel::greatModel();
        cfg.model.verifyToBranch = lat;
        OooCore core(prog, cfg);
        core.setPredictionOverride(
            [&](std::uint64_t pc, std::uint64_t correct)
                -> std::optional<std::uint64_t> {
                if (pc == prog.symbols.at("p1"))
                    return correct; // always-correct forced prediction
                return std::nullopt;
            });
        return core.run();
    };

    const SimOutcome fast = run_with(0);
    const SimOutcome slow = run_with(6);
    EXPECT_EQ(fast.exitCode, slow.exitCode);
    EXPECT_GT(slow.stats.cycles, fast.stats.cycles);
}

TEST(Spec, VerifyAddrToMemLatencyDelaysDependentLoads)
{
    const Program prog = assembler::assemble(R"(
        .data
    tab: .dword 3, 1, 4, 1, 5, 9, 2, 6
        .text
        la s0, tab
        li s1, 400
        li s2, 0
        li t0, 0
    loop:
        andi t1, s2, 7
        slli t1, t1, 3
        add t2, s0, t1     # address depends on predicted chain
        ld t3, 0(t2)
        add t0, t0, t3
        addi s2, s2, 1
        bne s2, s1, loop
        halt t0
    )");
    CoreConfig cfg;
    cfg.useValuePrediction = true;
    cfg.confidence = ConfidenceKind::Oracle;

    cfg.model = SpecModel::greatModel();
    cfg.model.verifyAddrToMem = 0;
    const SimOutcome fast = OooCore(prog, cfg).run();

    cfg.model.verifyAddrToMem = 8;
    const SimOutcome slow = OooCore(prog, cfg).run();

    EXPECT_EQ(fast.exitCode, slow.exitCode);
    EXPECT_GT(slow.stats.cycles, fast.stats.cycles);
}

// ---- speculative memory resolution (§3.2, memNeedsValidOps=false) -----

/**
 * A store whose data is (wrongly) predicted, immediately followed by a
 * load of the same address: with speculative memory resolution the
 * load forwards the wrong value long before the slow producer
 * resolves, and must be caught by the invalidation network.
 */
Program
memViolationProgram()
{
    return assembler::assemble(R"(
        .data
    buf: .dword 0
        .text
        la s0, buf
        li t0, 700
        li t1, 70
        div t2, t0, t1      # slow producer: t2 = 10
    p:  addi t3, t2, 1      # 11, force-predicted wrong
        sd t3, 0(s0)        # store of the predicted value
        ld a0, 0(s0)        # forwards the speculative data
        addi a1, a0, 1      # 12
        halt a1
    )");
}

TEST(SpecMem, MisforwardedLoadInvalidatesAndReissues)
{
    const Program prog = memViolationProgram();
    SpecModel model = SpecModel::greatModel();
    model.memNeedsValidOps = false;
    model.invalidateToReissue = 5; // make the latency observable
    const SimOutcome out =
        runForced(prog, model, {{prog.symbols.at("p"), 99}});

    // Architectural honesty: the wrong forwarded value must never
    // retire (the in-core golden check would panic; the exit code
    // seals it from the outside).
    EXPECT_TRUE(out.halted);
    EXPECT_EQ(out.exitCode, 12u);

    // The load forwarded speculatively (at least once before the
    // violation, once after the reissue).
    EXPECT_GE(out.stats.loadsForwarded, 2u);

    // Exactly one prediction resolved wrong, and the invalidation
    // nullified (at least) the store and the forwarded load.
    EXPECT_EQ(out.stats.invalidateEvents, 1u);
    EXPECT_EQ(out.stats.verifyEvents, 0u);
    EXPECT_GE(out.stats.nullifications, 2u);
    EXPECT_GE(out.stats.reissues, 2u);

    // Every reissue waited out the configured Invalidation-Reissue
    // latency.
    EXPECT_GE(out.stats.invalToReissue.count(), 2u);
    EXPECT_GE(out.stats.invalToReissue.min(), 5u);
}

TEST(SpecMem, ViolationCaughtUnderEveryInvalidationScheme)
{
    const Program prog = memViolationProgram();
    for (core::InvalScheme is :
         {core::InvalScheme::Flattened, core::InvalScheme::Hierarchical,
          core::InvalScheme::Complete}) {
        SpecModel model = SpecModel::greatModel();
        model.memNeedsValidOps = false;
        model.invalScheme = is;
        const SimOutcome out =
            runForced(prog, model, {{prog.symbols.at("p"), 99}});
        EXPECT_TRUE(out.halted) << static_cast<int>(is);
        EXPECT_EQ(out.exitCode, 12u) << static_cast<int>(is);
        EXPECT_EQ(out.stats.invalidateEvents, 1u)
            << static_cast<int>(is);
        // Recovery ran: either selective nullification or a complete
        // squash — the misforwarded load never retired silently.
        EXPECT_GT(out.stats.nullifications + out.stats.squashes, 0u)
            << static_cast<int>(is);
    }
}

TEST(SpecMem, CorrectForwardedSpeculationVerifiesInPlace)
{
    // Same program, prediction forced *correct*: the speculatively
    // forwarded load must survive verification without a reissue.
    const Program prog = memViolationProgram();
    SpecModel model = SpecModel::greatModel();
    model.memNeedsValidOps = false;
    const SimOutcome out =
        runForced(prog, model, {{prog.symbols.at("p"), 11}});
    EXPECT_TRUE(out.halted);
    EXPECT_EQ(out.exitCode, 12u);
    EXPECT_GE(out.stats.loadsForwarded, 1u);
    EXPECT_EQ(out.stats.verifyEvents, 1u);
    EXPECT_EQ(out.stats.invalidateEvents, 0u);
    EXPECT_EQ(out.stats.nullifications, 0u);
    EXPECT_EQ(out.stats.reissues, 0u);
}

TEST(SpecMem, SpecAndValidBitIdenticalWithoutPredictions)
{
    // A store/load-heavy loop run with the predictor permanently
    // silent: with no predictions there are no speculative operands,
    // so valid-ops and speculative memory resolution must make
    // identical decisions cycle for cycle.
    const Program prog = assembler::assemble(R"(
        .data
    tab: .dword 3, 1, 4, 1, 5, 9, 2, 6
        .text
        la s0, tab
        li s1, 300
        li s2, 0
        li t0, 0
    loop:
        andi t1, s2, 7
        slli t1, t1, 3
        add t2, s0, t1
        add t3, t0, s2
        sd t3, 0(t2)
        ld t4, 0(t2)     # forwards from the store just above
        add t0, t0, t4
        addi s2, s2, 1
        bne s2, s1, loop
        halt t0
    )");

    SpecModel valid_model = SpecModel::greatModel();
    SpecModel spec_model = SpecModel::greatModel();
    spec_model.memNeedsValidOps = false;
    const SimOutcome valid = runForced(prog, valid_model, {});
    const SimOutcome spec = runForced(prog, spec_model, {});

    EXPECT_TRUE(valid.halted);
    EXPECT_TRUE(spec.halted);
    EXPECT_EQ(spec.exitCode, valid.exitCode);
    EXPECT_EQ(spec.stats.cycles, valid.stats.cycles);
    EXPECT_EQ(spec.stats.issued, valid.stats.issued);
    EXPECT_EQ(spec.stats.retired, valid.stats.retired);
    EXPECT_EQ(spec.stats.fetched, valid.stats.fetched);
    EXPECT_EQ(spec.stats.loadsForwarded, valid.stats.loadsForwarded);
    EXPECT_EQ(spec.stats.dcacheMisses, valid.stats.dcacheMisses);
    EXPECT_EQ(spec.stats.nullifications, 0u);
    EXPECT_GT(valid.stats.loadsForwarded, 0u); // forwarding exercised
}

TEST(SpecMem, InvalidatedStoreAddressReblocksYoungerLoad)
{
    // The store's address comes from a value force-predicted wrong
    // (0 instead of 8), so it first resolves to buf+0 and the younger
    // load of buf+8 issues past it to memory. The invalidation resets
    // the store's address: the reissued load must wait behind the
    // store again until it reissues at buf+8, then forward 42. A load
    // that went past the store early would read memory's 0, which the
    // in-core retire check rejects.
    const Program prog = assembler::assemble(R"(
        .data
    buf: .dword 0, 0
        .text
        la s0, buf
        li t0, 700
        li t1, 70
        div t2, t0, t1      # slow producer: t2 = 10
    p:  addi t3, t2, -2     # 8, force-predicted 0
        slli t3, t3, 1
        srai t3, t3, 1      # a short chain ahead of the address
        add t4, s0, t3
        li t5, 42
        sd t5, 0(t4)        # store address from the predicted value
        ld a0, 8(s0)        # blocked behind the store, then past it
        halt a0
    )");
    for (const core::InvalScheme is :
         {core::InvalScheme::Flattened, core::InvalScheme::Hierarchical,
          core::InvalScheme::Complete}) {
        for (const core::SchedulerKind sk :
             {core::SchedulerKind::ReadyList, core::SchedulerKind::Scan}) {
            for (const int window : {16, 256}) {
                SpecModel model = SpecModel::greatModel();
                model.memNeedsValidOps = false;
                model.invalScheme = is;
                CoreConfig cfg;
                cfg.scheduler = sk;
                cfg.windowSize = window;
                const SimOutcome out = runForced(
                    prog, model, {{prog.symbols.at("p"), 0}}, cfg);
                const std::string what =
                    "scheme " + std::to_string(static_cast<int>(is))
                    + " scheduler "
                    + std::to_string(static_cast<int>(sk)) + " window "
                    + std::to_string(window);
                EXPECT_TRUE(out.halted) << what;
                EXPECT_EQ(out.exitCode, 42u) << what;
                EXPECT_EQ(out.stats.invalidateEvents, 1u) << what;
                // The final load forwarded from the reissued store.
                EXPECT_GE(out.stats.loadsForwarded, 1u) << what;
                if (is == core::InvalScheme::Complete) {
                    EXPECT_GE(out.stats.squashes, 1u) << what;
                } else {
                    // The store and the load both reissued.
                    EXPECT_GE(out.stats.reissues, 2u) << what;
                }
            }
        }
    }
}

TEST(SpecMem, SpecResolutionNoSlowerThanValidOnForwardedChain)
{
    // With an always-correct forced prediction feeding a store -> load
    // -> use chain, speculative memory resolution forwards early while
    // valid-ops waits for verification + verifyAddrToMem: spec must
    // not lose.
    const Program prog = memViolationProgram();
    SpecModel valid_model = SpecModel::greatModel();
    SpecModel spec_model = SpecModel::greatModel();
    spec_model.memNeedsValidOps = false;
    const Forced correct = {{prog.symbols.at("p"), 11}};
    const SimOutcome valid = runForced(prog, valid_model, correct);
    const SimOutcome spec = runForced(prog, spec_model, correct);
    EXPECT_EQ(valid.exitCode, 12u);
    EXPECT_EQ(spec.exitCode, 12u);
    EXPECT_LE(spec.stats.cycles, valid.stats.cycles);
}

TEST(SpecMem, HeavyMisspeculationWithMemoryStaysExact)
{
    // PRNG-driven store/load traffic under Always confidence and
    // speculative memory resolution: maximum stress on the
    // kill-and-reissue path; architectural results must stay exact.
    const Program prog = assembler::assemble(R"(
        .data
    tab: .dword 0, 0, 0, 0, 0, 0, 0, 0
        .text
        la s0, tab
        li s1, 88172645463325252
        li s2, 150
        li s3, 0
    loop:
        slli t0, s1, 13
        xor s1, s1, t0
        srli t0, s1, 7
        xor s1, s1, t0
        andi t1, s1, 7
        slli t1, t1, 3
        add t2, s0, t1
        sd s1, 0(t2)
        ld t3, 0(t2)
        add s3, s3, t3
        addi s2, s2, -1
        bnez s2, loop
        halt s3
    )");
    const SimOutcome base = runPlain(prog);

    for (const char *name : {"super", "great", "good"}) {
        CoreConfig cfg;
        cfg.useValuePrediction = true;
        cfg.model = SpecModel::byName(name);
        cfg.model.memNeedsValidOps = false;
        cfg.confidence = ConfidenceKind::Always;
        const SimOutcome out = OooCore(prog, cfg).run();
        EXPECT_TRUE(out.halted) << name;
        EXPECT_EQ(out.exitCode, base.exitCode) << name;
    }
}

TEST(Spec, PipelineTracerRecordsSpecEvents)
{
    const Program prog = fig1Program();
    CoreConfig cfg;
    cfg.useValuePrediction = true;
    cfg.model = SpecModel::greatModel();
    cfg.tracePipeline = true;
    OooCore core(prog, cfg);
    core.setPredictionOverride(
        [&](std::uint64_t pc,
            std::uint64_t) -> std::optional<std::uint64_t> {
            if (pc == prog.symbols.at("c1"))
                return 99; // wrong
            return std::nullopt;
        });
    core.run();
    const std::string diagram = core.tracer().render();
    EXPECT_NE(diagram.find("EX"), std::string::npos);
    EXPECT_NE(diagram.find("RT"), std::string::npos);
    EXPECT_NE(diagram.find("I"), std::string::npos); // invalidation
}

// ---- alternative verification / invalidation schemes (§3.1/§3.2) -----

class SchemeCorrectness
    : public ::testing::TestWithParam<std::pair<core::VerifyScheme,
                                                core::InvalScheme>>
{
};

TEST_P(SchemeCorrectness, HeavyMisspeculationStaysExact)
{
    const auto [vs, is] = GetParam();
    const Program prog = assembler::assemble(R"(
        li s0, 1234567
        li s1, 150
        li s2, 0
    loop:
        slli t0, s0, 13
        xor s0, s0, t0
        srli t0, s0, 7
        xor s0, s0, t0
        andi t1, s0, 31
        addi t2, t1, 5
        add t3, t2, t1
        add s2, s2, t3
        addi s1, s1, -1
        bnez s1, loop
        halt s2
    )");
    const SimOutcome base = runPlain(prog);

    CoreConfig cfg;
    cfg.useValuePrediction = true;
    cfg.model = SpecModel::greatModel();
    cfg.model.verifyScheme = vs;
    cfg.model.invalScheme = is;
    cfg.confidence = ConfidenceKind::Always;
    const SimOutcome out = OooCore(prog, cfg).run();
    EXPECT_EQ(out.exitCode, base.exitCode);
    EXPECT_TRUE(out.halted);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, SchemeCorrectness,
    ::testing::Values(
        std::pair{core::VerifyScheme::Flattened,
                  core::InvalScheme::Flattened},
        std::pair{core::VerifyScheme::Hierarchical,
                  core::InvalScheme::Hierarchical},
        std::pair{core::VerifyScheme::RetirementBased,
                  core::InvalScheme::Flattened},
        std::pair{core::VerifyScheme::Hybrid,
                  core::InvalScheme::Flattened},
        std::pair{core::VerifyScheme::Flattened,
                  core::InvalScheme::Complete}));

/**
 * Run chainLoop with every eligible instruction force-predicted
 * correctly — deterministic speculation with no predictor-table noise,
 * so verification-scheme timing is the only difference between runs.
 */
SimOutcome
runChainForcedCorrect(const Program &prog, core::VerifyScheme vs)
{
    CoreConfig cfg;
    cfg.useValuePrediction = true;
    cfg.model = SpecModel::greatModel();
    cfg.model.verifyScheme = vs;
    OooCore core(prog, cfg);
    core.setPredictionOverride(
        [](std::uint64_t, std::uint64_t correct)
            -> std::optional<std::uint64_t> { return correct; });
    return core.run();
}

TEST(Schemes, HierarchicalVerifyNoFasterThanFlattened)
{
    const Program prog = chainLoop(300);
    const SimOutcome flat =
        runChainForcedCorrect(prog, core::VerifyScheme::Flattened);
    const SimOutcome hier =
        runChainForcedCorrect(prog, core::VerifyScheme::Hierarchical);
    EXPECT_EQ(flat.exitCode, hier.exitCode);
    EXPECT_GE(hier.stats.cycles, flat.stats.cycles);
}

TEST(Schemes, RetirementBasedVerifyNoFasterThanFlattened)
{
    const Program prog = chainLoop(300);
    const SimOutcome flat =
        runChainForcedCorrect(prog, core::VerifyScheme::Flattened);
    const SimOutcome retire =
        runChainForcedCorrect(prog, core::VerifyScheme::RetirementBased);
    EXPECT_EQ(flat.exitCode, retire.exitCode);
    EXPECT_GE(retire.stats.cycles, flat.stats.cycles);
}

TEST(Schemes, CompleteInvalidationNoFasterThanSelective)
{
    const Program prog = assembler::assemble(R"(
        li s0, 987654321
        li s1, 200
        li s2, 0
    loop:
        slli t0, s0, 13
        xor s0, s0, t0
        srli t0, s0, 7
        xor s0, s0, t0
        andi t1, s0, 15
        add s2, s2, t1
        addi s1, s1, -1
        bnez s1, loop
        halt s2
    )");
    CoreConfig cfg;
    cfg.useValuePrediction = true;
    cfg.confidence = ConfidenceKind::Always;

    cfg.model = SpecModel::greatModel();
    const SimOutcome sel = OooCore(prog, cfg).run();

    cfg.model.invalScheme = core::InvalScheme::Complete;
    const SimOutcome comp = OooCore(prog, cfg).run();

    EXPECT_EQ(sel.exitCode, comp.exitCode);
    EXPECT_GE(comp.stats.cycles, sel.stats.cycles);
    EXPECT_GT(comp.stats.squashes, sel.stats.squashes);
}

// ---- selection policies (§3.5) ----------------------------------------

class SelectionPolicies
    : public ::testing::TestWithParam<core::SelectPolicy>
{
};

TEST_P(SelectionPolicies, CorrectUnderHeavyMisspeculation)
{
    const Program prog = assembler::assemble(R"(
        li s0, 424242
        li s1, 120
        li s2, 0
    loop:
        slli t0, s0, 13
        xor s0, s0, t0
        srli t0, s0, 7
        xor s0, s0, t0
        andi t1, s0, 31
        addi t2, t1, 3
        add s2, s2, t2
        addi s1, s1, -1
        bnez s1, loop
        halt s2
    )");
    const SimOutcome base = runPlain(prog);

    CoreConfig cfg;
    cfg.useValuePrediction = true;
    cfg.model = SpecModel::greatModel();
    cfg.model.selectPolicy = GetParam();
    cfg.confidence = ConfidenceKind::Always;
    const SimOutcome out = OooCore(prog, cfg).run();
    EXPECT_TRUE(out.halted);
    EXPECT_EQ(out.exitCode, base.exitCode);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, SelectionPolicies,
    ::testing::Values(core::SelectPolicy::TypedSpecLast,
                      core::SelectPolicy::TypedOnly,
                      core::SelectPolicy::OldestFirst,
                      core::SelectPolicy::TypedSpecFirst));

TEST(SelectionPolicies2, PoliciesActuallyChangeSchedule)
{
    // Under issue-bandwidth pressure the policies must produce
    // different cycle counts for at least one pair.
    const Program prog = chainLoop(150);
    CoreConfig cfg;
    cfg.useValuePrediction = true;
    cfg.issueWidth = 2;
    cfg.windowSize = 16;
    cfg.confidence = ConfidenceKind::Oracle;

    std::set<std::uint64_t> cycles;
    for (core::SelectPolicy p :
         {core::SelectPolicy::TypedSpecLast,
          core::SelectPolicy::OldestFirst,
          core::SelectPolicy::TypedSpecFirst}) {
        cfg.model = SpecModel::greatModel();
        cfg.model.selectPolicy = p;
        cycles.insert(OooCore(prog, cfg).run().stats.cycles);
    }
    EXPECT_GT(cycles.size(), 1u);
}

// ---- Fig. 4 style accuracy accounting ---------------------------------

TEST(Accounting, BreakdownSumsToEligible)
{
    const Program prog = chainLoop(200);
    CoreConfig cfg;
    cfg.useValuePrediction = true;
    cfg.model = SpecModel::greatModel();
    cfg.confidence = ConfidenceKind::Real;
    const SimOutcome out = OooCore(prog, cfg).run();
    EXPECT_EQ(out.stats.vpCH + out.stats.vpCL + out.stats.vpIH
                  + out.stats.vpIL,
              out.stats.vpEligible);
    EXPECT_GT(out.stats.vpEligible, 0u);
}

TEST(Accounting, OracleConfidencePutsCorrectnessInCH)
{
    const Program prog = chainLoop(200);
    CoreConfig cfg;
    cfg.useValuePrediction = true;
    cfg.model = SpecModel::greatModel();
    cfg.confidence = ConfidenceKind::Oracle;
    const SimOutcome out = OooCore(prog, cfg).run();
    // With oracle confidence, every confident prediction is correct
    // and every unconfident one incorrect.
    EXPECT_EQ(out.stats.vpCL, 0u);
    EXPECT_EQ(out.stats.vpIH, 0u);
    EXPECT_GT(out.stats.vpCH, 0u);
}

} // namespace
