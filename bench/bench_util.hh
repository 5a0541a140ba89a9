/**
 * @file
 * Shared plumbing for the experiment (bench) binaries: command-line
 * options and the declarative sweep front end over the parallel sweep
 * engine (vsim/sim/sweep).
 *
 * Every binary accepts:
 *   --quick        3 workloads, middle machine only (smoke mode)
 *   --scale N      override the per-workload work factor
 *   --jobs N       worker threads (default: one per hardware thread;
 *                  results are bit-identical for every N)
 *   --json PATH    also write all runs as a JSON array
 *   --csv PATH     also write all runs as CSV
 *   --metrics-interval N  sample interval metrics every N cycles
 *   --metrics PATH        write every run's interval series as CSV
 *   --trace-json PATH     write the sweep execution timeline as
 *                         Chrome/Perfetto trace_event JSON
 *   --progress     one stderr line per finished run
 *
 * The usage pattern is two-phase: enqueue every cell of the
 * cross-product with Sweep::add()/addBase(), call Sweep::run() once
 * (this is where the worker pool earns its keep), then assemble the
 * tables from the indexed results.
 */

#ifndef VSPEC_BENCH_BENCH_UTIL_HH
#define VSPEC_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "vsim/base/cli.hh"
#include "vsim/base/logging.hh"
#include "vsim/base/stats.hh"
#include "vsim/sim/report.hh"
#include "vsim/sim/simulator.hh"
#include "vsim/sim/sweep.hh"
#include "vsim/workloads/workloads.hh"

namespace bench
{

struct Options
{
    bool quick = false;
    int scale = -1; //!< -1 = per-workload default
    int jobs = vsim::sim::SweepRunner::defaultJobs();
    std::string jsonPath; //!< write runs as JSON when non-empty
    std::string csvPath;  //!< write runs as CSV when non-empty
    std::uint64_t metricsInterval = 0; //!< per-run sampling period
    std::string metricsPath;   //!< interval series CSV when non-empty
    std::string traceJsonPath; //!< sweep timeline JSON when non-empty
    bool progress = false;     //!< stderr line per finished run
};

[[noreturn]] inline void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--quick] [--scale N] [--jobs N] "
                 "[--json PATH] [--csv PATH]\n"
                 "          [--metrics-interval N] [--metrics PATH] "
                 "[--trace-json PATH] [--progress]\n",
                 argv0);
    std::exit(2);
}

inline Options
parseOptions(int argc, char **argv)
{
    Options opt;
    try {
        for (int i = 1; i < argc; ++i) {
            const char *arg = argv[i];
            auto is = [arg](const char *flag) {
                return std::strcmp(arg, flag) == 0;
            };
            auto value = [&] { return vsim::flagValue(argc, argv, i); };
            if (is("--quick")) {
                opt.quick = true;
            } else if (is("--scale")) {
                opt.scale = vsim::parsePositiveInt(arg, value());
            } else if (is("--jobs")) {
                opt.jobs = vsim::parsePositiveInt(arg, value());
            } else if (is("--json")) {
                opt.jsonPath = value();
            } else if (is("--csv")) {
                opt.csvPath = value();
            } else if (is("--metrics-interval")) {
                opt.metricsInterval = static_cast<std::uint64_t>(
                    vsim::parsePositiveInt(arg, value()));
            } else if (is("--metrics")) {
                opt.metricsPath = value();
            } else if (is("--trace-json")) {
                opt.traceJsonPath = value();
            } else if (is("--progress")) {
                opt.progress = true;
            } else {
                throw vsim::FatalError(std::string("unknown flag ")
                                       + arg);
            }
        }
        if (!opt.metricsPath.empty() && opt.metricsInterval == 0)
            throw vsim::FatalError(
                "--metrics needs --metrics-interval N");
    } catch (const vsim::FatalError &err) {
        std::fprintf(stderr, "%s\n", err.what());
        usage(argv[0]);
    }
    return opt;
}

inline std::vector<std::string>
workloadNames(const Options &opt)
{
    return vsim::sim::sweepWorkloads(opt.quick);
}

inline std::vector<vsim::sim::MachineConfig>
machines(const Options &opt)
{
    return vsim::sim::sweepMachines(opt.quick);
}

/** Percentage @p num/@p denom; NaN (rendered "n/a") on empty runs. */
inline double
pct(std::uint64_t num, std::uint64_t denom)
{
    if (denom == 0)
        return std::numeric_limits<double>::quiet_NaN();
    return 100.0 * static_cast<double>(num)
           / static_cast<double>(denom);
}

/**
 * Declarative sweep for one bench binary: enqueue jobs, run them all
 * at once on the worker pool (memoized through the process-wide
 * RunCache, which replaces the old per-binary BaseRuns cache), then
 * read results by index. Identical jobs (same workload/scale/config)
 * added twice share one index, so base runs can be re-requested
 * freely from every table loop.
 */
class Sweep
{
  public:
    explicit Sweep(const Options &opt) : opt(opt) {}

    /** Enqueue a run; returns its result index. */
    int
    add(const vsim::sim::MachineConfig &m, const std::string &workload,
        const vsim::core::CoreConfig &cfg, std::string label = "")
    {
        VSIM_ASSERT(!ran, "Sweep::add after run");
        vsim::sim::SweepJob job;
        job.label = label.empty()
                        ? m.label() + " " + vsim::sim::configLabel(cfg)
                        : std::move(label);
        job.workload = workload;
        job.scale = opt.scale;
        job.cfg = cfg;
        job.cfg.metricsInterval = opt.metricsInterval;
        const std::string key = vsim::sim::jobKey(job);
        auto it = indexByKey.find(key);
        if (it != indexByKey.end())
            return it->second;
        const int idx = static_cast<int>(jobs.size());
        jobs.push_back(std::move(job));
        indexByKey.emplace(key, idx);
        return idx;
    }

    /** Enqueue the no-value-prediction run of @p m / @p workload. */
    int
    addBase(const vsim::sim::MachineConfig &m,
            const std::string &workload)
    {
        return add(m, workload, vsim::sim::baseConfig(m));
    }

    /** Execute all enqueued jobs and emit the requested files. */
    void
    run()
    {
        VSIM_ASSERT(!ran, "Sweep::run called twice");
        vsim::sim::SweepRunner runner(opt.jobs);
        runner.setProgress(opt.progress);
        std::vector<vsim::sim::JobSpan> spans;
        if (!opt.traceJsonPath.empty())
            runner.setSpanSink(&spans);
        results = runner.run(jobs);
        ran = true;
        if (!opt.jsonPath.empty())
            vsim::sim::writeFile(opt.jsonPath,
                                 vsim::sim::toJson(jobs, results));
        if (!opt.csvPath.empty())
            vsim::sim::writeFile(opt.csvPath,
                                 vsim::sim::toCsv(jobs, results));
        if (!opt.metricsPath.empty())
            vsim::sim::writeFile(
                opt.metricsPath,
                vsim::sim::metricsToCsv(jobs, results));
        if (!opt.traceJsonPath.empty())
            vsim::sim::writeFile(
                opt.traceJsonPath,
                vsim::sim::sweepTraceJson(spans) + "\n");
    }

    const vsim::sim::RunResult &
    at(int idx) const
    {
        VSIM_ASSERT(ran, "Sweep::at before run");
        return results.at(static_cast<std::size_t>(idx));
    }

    /** Speedup of run @p vpIdx over run @p baseIdx. */
    double
    speedup(int baseIdx, int vpIdx) const
    {
        return vsim::sim::speedup(at(baseIdx), at(vpIdx));
    }

  private:
    Options opt;
    std::vector<vsim::sim::SweepJob> jobs;
    std::vector<vsim::sim::RunResult> results;
    std::map<std::string, int> indexByKey;
    bool ran = false;
};

} // namespace bench

#endif // VSPEC_BENCH_BENCH_UTIL_HH
