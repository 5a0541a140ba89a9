/**
 * @file
 * Tests for the experiment-driver layer (vsim/sim): the paper's
 * machine grid, configuration builders, labels, workload runs and
 * speedup computation.
 */

#include <gtest/gtest.h>

#include "vsim/arch/functional_core.hh"
#include "vsim/base/logging.hh"
#include "vsim/sim/report.hh"
#include "vsim/sim/simulator.hh"
#include "vsim/workloads/workloads.hh"

namespace
{

using namespace vsim;
using core::ConfidenceKind;
using core::SpecModel;
using core::UpdateTiming;

TEST(Machines, PaperGrid)
{
    const auto ms = sim::paperMachines();
    ASSERT_EQ(ms.size(), 3u);
    EXPECT_EQ(ms[0].issueWidth, 4);
    EXPECT_EQ(ms[0].windowSize, 24);
    EXPECT_EQ(ms[1].label(), "8/48");
    EXPECT_EQ(ms[2].issueWidth, 16);
    EXPECT_EQ(ms[2].windowSize, 96);
}

TEST(Configs, BaseDisablesPrediction)
{
    const auto cfg = sim::baseConfig({8, 48});
    EXPECT_FALSE(cfg.useValuePrediction);
    EXPECT_EQ(cfg.issueWidth, 8);
    EXPECT_EQ(cfg.windowSize, 48);
    EXPECT_EQ(cfg.effDcachePorts(), 4); // half the issue width
    EXPECT_EQ(cfg.effRetireWidth(), 8);
}

TEST(Configs, VpCarriesModelAndTiming)
{
    const auto cfg =
        sim::vpConfig({4, 24}, SpecModel::goodModel(),
                      ConfidenceKind::Oracle, UpdateTiming::Immediate);
    EXPECT_TRUE(cfg.useValuePrediction);
    EXPECT_EQ(cfg.model.name, "good");
    EXPECT_EQ(cfg.confidence, ConfidenceKind::Oracle);
    EXPECT_EQ(cfg.updateTiming, UpdateTiming::Immediate);
}

TEST(Labels, PaperNotation)
{
    EXPECT_EQ(sim::timingConfLabel(UpdateTiming::Delayed,
                                   ConfidenceKind::Real),
              "D/R");
    EXPECT_EQ(sim::timingConfLabel(UpdateTiming::Immediate,
                                   ConfidenceKind::Oracle),
              "I/O");
    EXPECT_EQ(sim::timingConfLabel(UpdateTiming::Delayed,
                                   ConfidenceKind::Always),
              "D/A");
}

TEST(Runs, WorkloadRunProducesStats)
{
    // Scale 1 of `queens` is small enough for a unit test.
    const auto r =
        sim::runWorkload("queens", 1, sim::baseConfig({4, 24}));
    EXPECT_EQ(r.workload, "queens");
    EXPECT_GT(r.instructions, 100'000u);
    EXPECT_GT(r.ipc, 0.5);
    EXPECT_EQ(r.exitCode, 320u);
}

TEST(Runs, UnknownWorkloadThrows)
{
    EXPECT_THROW(
        sim::runWorkload("nonesuch", 1, sim::baseConfig({4, 24})),
        FatalError);
}

TEST(Runs, SpeedupDefinition)
{
    sim::RunResult base, vp;
    base.workload = vp.workload = "x";
    base.stats.cycles = 1000;
    vp.stats.cycles = 800;
    EXPECT_DOUBLE_EQ(sim::speedup(base, vp), 1.25);
}

TEST(Report, JsonCarriesKeyFields)
{
    sim::RunResult r;
    r.workload = "demo";
    r.ipc = 2.5;
    r.exitCode = 42;
    r.stats.cycles = 1000;
    r.stats.retired = 2500;
    r.stats.vpCH = 7;
    const std::string js = sim::toJson(r);
    EXPECT_NE(js.find("\"workload\": \"demo\""), std::string::npos);
    EXPECT_NE(js.find("\"cycles\": 1000"), std::string::npos);
    EXPECT_NE(js.find("\"vp_ch\": 7"), std::string::npos);
    EXPECT_NE(js.find("\"exit_code\": 42"), std::string::npos);
    EXPECT_EQ(js.front(), '{');
    EXPECT_EQ(js.back(), '}');
}

TEST(Report, JsonArrayOfRuns)
{
    sim::RunResult a, b;
    a.workload = "a";
    b.workload = "b";
    const std::string js = sim::toJson(std::vector<sim::RunResult>{a, b});
    EXPECT_EQ(js.front(), '[');
    EXPECT_EQ(js.back(), ']');
    EXPECT_NE(js.find("\"a\""), std::string::npos);
    EXPECT_NE(js.find("\"b\""), std::string::npos);
}

TEST(Runs, VpRunImprovesOrMatchesPredictableKernel)
{
    const auto base =
        sim::runWorkload("m88k", 1, sim::baseConfig({8, 48}));
    const auto vp = sim::runWorkload(
        "m88k", 1,
        sim::vpConfig({8, 48}, SpecModel::greatModel(),
                      ConfidenceKind::Oracle, UpdateTiming::Immediate));
    EXPECT_EQ(base.exitCode, vp.exitCode);
    EXPECT_GT(sim::speedup(base, vp), 1.0);
}

// Table 1 counts prediction eligibility over the functional trace
// instead of running the core: both must agree on every instruction.
TEST(Runs, VpEligibilityMatchesTraceCount)
{
    for (const char *name : {"compress", "m88k", "queens"}) {
        SCOPED_TRACE(name);
        const arch::ExecTrace trace = arch::preExecute(
            workloads::buildProgram(workloads::byName(name), 1));
        std::uint64_t eligible = 0;
        for (const arch::TraceEntry &e : trace.entries)
            eligible += e.inst.isValuePredictable();
        const auto vp = sim::runWorkload(
            name, 1,
            sim::vpConfig({8, 48}, SpecModel::greatModel(),
                          ConfidenceKind::Real, UpdateTiming::Delayed));
        EXPECT_EQ(vp.stats.vpEligible, eligible);
        EXPECT_EQ(vp.stats.retired, trace.entries.size());
    }
}

} // namespace
