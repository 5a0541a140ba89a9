/**
 * @file
 * High-level experiment driver: builds a workload, runs it through the
 * out-of-order core, and aggregates results the way the paper reports
 * them (harmonic-mean speedups over the benchmark suite, Fig. 3;
 * arithmetic-mean prediction-rate breakdowns, Fig. 4).
 */

#ifndef VSIM_SIM_SIMULATOR_HH
#define VSIM_SIM_SIMULATOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "vsim/arch/functional_core.hh"
#include "vsim/assembler/program.hh"
#include "vsim/core/core_config.hh"
#include "vsim/core/core_stats.hh"
#include "vsim/core/spec_model.hh"
#include "vsim/obs/interval.hh"
#include "vsim/obs/ledger.hh"

namespace vsim::sim
{

/** One of the paper's three machine sizes (issue width / window). */
struct MachineConfig
{
    int issueWidth;
    int windowSize;

    std::string
    label() const
    {
        return std::to_string(issueWidth) + "/"
               + std::to_string(windowSize);
    }
};

/** The paper's §6 configurations: 4/24, 8/48 and 16/96. */
std::vector<MachineConfig> paperMachines();

/** Base-processor configuration (no value prediction). */
core::CoreConfig baseConfig(const MachineConfig &m);

/**
 * Value-speculation configuration for a machine size, speculative
 * execution model, confidence mode and predictor update timing
 * (paper notation: D/R, I/R, D/O, I/O).
 */
core::CoreConfig vpConfig(const MachineConfig &m,
                          const core::SpecModel &model,
                          core::ConfidenceKind confidence,
                          core::UpdateTiming timing);

/** Short label for a confidence/timing pair, e.g. "D/R". */
std::string timingConfLabel(core::UpdateTiming timing,
                            core::ConfidenceKind confidence);

/** Result of one simulation run. */
struct RunResult
{
    std::string workload;
    core::CoreStats stats;
    std::uint64_t instructions = 0; //!< committed instructions
    double ipc = 0.0;
    std::uint64_t exitCode = 0;
    std::string output; //!< anything the program printed
    /** Interval time series (empty unless cfg.metricsInterval). */
    obs::IntervalSeries intervals;
    /** Per-prediction lifecycle records (empty unless cfg.specLedger). */
    obs::SpecLedger ledger;
};

/**
 * Workload names with this prefix are trace replays: the rest of the
 * name is a .vst file path (see vsim/trace). Such runs skip the
 * assembler and the functional pre-execution entirely; scale is
 * ignored (the trace fixes the dynamic instruction stream).
 */
constexpr const char kTraceWorkloadPrefix[] = "trace:";

/** True when @p name names a recorded trace, not a built-in kernel. */
bool isTraceWorkload(const std::string &name);

/** "trace:<path>" for @p path (the workload name of a trace replay). */
std::string traceWorkloadName(const std::string &path);

/** The .vst path behind a trace workload name. */
std::string traceWorkloadPath(const std::string &name);

/**
 * What a run of one workload consumes before any core exists: the
 * program image (wrong-path fetch decodes from it) and the oracle
 * trace of its correct path. Immutable once built, so any number of
 * runs, shards and sample representatives may share one.
 */
struct WorkloadInput
{
    assembler::Program program;
    std::shared_ptr<const arch::ExecTrace> trace;
};

/**
 * Build the input of workload @p name at @p scale (-1 = default):
 * assemble the kernel and pre-execute it, or, for a "trace:<path>"
 * name, load the recorded trace (scale is then ignored). The one
 * place a run's input is made; FatalError on an unknown workload or
 * an unreadable trace.
 */
WorkloadInput loadWorkload(const std::string &name, int scale);

/**
 * Run workload @p name from its prebuilt input @p in under @p cfg.
 * Correctness against the functional model is enforced inside the
 * core. Sharded and sampled configurations go through ShardRunner.
 */
RunResult runWorkload(const std::string &name, const WorkloadInput &in,
                      const core::CoreConfig &cfg);

/** loadWorkload(@p name, @p scale), then run it under @p cfg. */
RunResult runWorkload(const std::string &name, int scale,
                      const core::CoreConfig &cfg);

/**
 * Speedup of @p vp over @p base (cycles ratio); both runs must be of
 * the same workload and scale.
 */
double speedup(const RunResult &base, const RunResult &vp);

} // namespace vsim::sim

#endif // VSIM_SIM_SIMULATOR_HH
