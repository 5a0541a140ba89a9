#include "simulator.hh"

#include "shard.hh"
#include "vsim/base/logging.hh"
#include "vsim/core/ooo_core.hh"
#include "vsim/trace/trace_io.hh"
#include "vsim/workloads/workloads.hh"

namespace vsim::sim
{

std::vector<MachineConfig>
paperMachines()
{
    return {{4, 24}, {8, 48}, {16, 96}};
}

core::CoreConfig
baseConfig(const MachineConfig &m)
{
    core::CoreConfig cfg;
    cfg.issueWidth = m.issueWidth;
    cfg.windowSize = m.windowSize;
    cfg.useValuePrediction = false;
    return cfg;
}

core::CoreConfig
vpConfig(const MachineConfig &m, const core::SpecModel &model,
         core::ConfidenceKind confidence, core::UpdateTiming timing)
{
    core::CoreConfig cfg = baseConfig(m);
    cfg.useValuePrediction = true;
    cfg.model = model;
    cfg.confidence = confidence;
    cfg.updateTiming = timing;
    return cfg;
}

std::string
timingConfLabel(core::UpdateTiming timing, core::ConfidenceKind confidence)
{
    std::string label =
        timing == core::UpdateTiming::Delayed ? "D/" : "I/";
    switch (confidence) {
      case core::ConfidenceKind::Real: label += "R"; break;
      case core::ConfidenceKind::Oracle: label += "O"; break;
      case core::ConfidenceKind::Always: label += "A"; break;
    }
    return label;
}

bool
isTraceWorkload(const std::string &name)
{
    return name.rfind(kTraceWorkloadPrefix, 0) == 0;
}

std::string
traceWorkloadName(const std::string &path)
{
    return kTraceWorkloadPrefix + path;
}

std::string
traceWorkloadPath(const std::string &name)
{
    VSIM_ASSERT(isTraceWorkload(name), "not a trace workload: ", name);
    return name.substr(sizeof(kTraceWorkloadPrefix) - 1);
}

WorkloadInput
loadWorkload(const std::string &name, int scale)
{
    WorkloadInput in;
    if (isTraceWorkload(name)) {
        trace::LoadedTrace loaded =
            trace::loadTrace(traceWorkloadPath(name));
        in.program = std::move(loaded.program);
        in.trace = std::make_shared<const arch::ExecTrace>(
            std::move(loaded.trace));
    } else {
        in.program =
            workloads::buildProgram(workloads::byName(name), scale);
        in.trace = std::make_shared<const arch::ExecTrace>(
            arch::preExecute(in.program));
    }
    return in;
}

RunResult
runWorkload(const std::string &name, const WorkloadInput &in,
            const core::CoreConfig &cfg)
{
    validatePartition(cfg);
    if (shardingRequested(cfg) || samplingRequested(cfg))
        return ShardRunner(cfg).run(name, in);
    core::OooCore core(in.program, in.trace, cfg);
    const core::SimOutcome out = core.run();
    VSIM_ASSERT(out.halted, "workload ", name,
                " did not finish within the cycle limit");

    RunResult r;
    r.workload = name;
    r.stats = out.stats;
    r.instructions = out.stats.retired;
    r.ipc = out.stats.ipc();
    r.exitCode = out.exitCode;
    r.output = out.output;
    r.intervals = out.intervals;
    r.ledger = out.ledger;
    return r;
}

RunResult
runWorkload(const std::string &name, int scale,
            const core::CoreConfig &cfg)
{
    validatePartition(cfg);
    return runWorkload(name, loadWorkload(name, scale), cfg);
}

double
speedup(const RunResult &base, const RunResult &vp)
{
    VSIM_ASSERT(base.workload == vp.workload,
                "speedup across different workloads");
    VSIM_ASSERT(base.stats.cycles > 0, "zero-cycle base run");
    VSIM_ASSERT(vp.stats.cycles > 0, "zero-cycle run");
    return static_cast<double>(base.stats.cycles)
           / static_cast<double>(vp.stats.cycles);
}

} // namespace vsim::sim
