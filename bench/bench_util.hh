/**
 * @file
 * Shared plumbing for the experiment (bench) binaries: command-line
 * options and the results of one named sweep (vsim/sim/sweep).
 *
 * Every binary accepts:
 *   --quick        3 workloads, middle machine only (smoke mode)
 *   --scale N      override the per-workload work factor
 *   --jobs N       worker threads (default: one per hardware thread;
 *                  results are bit-identical for every N)
 *
 * The grid behind each table is a named sweep, defined once in
 * vsim/sim/sweep.cc; a bench binary runs it and only formats the
 * table. `vspec_sweep NAME --json/--csv` writes the same cells as raw
 * per-run data.
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
#include <utility>
#include <vector>

#include "vsim/base/cli.hh"
#include "vsim/base/logging.hh"
#include "vsim/base/stats.hh"
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
};

[[noreturn]] inline void
usage(const char *argv0)
{
    std::fprintf(stderr, "usage: %s [--quick] [--scale N] [--jobs N]\n",
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
            } else {
                throw vsim::FatalError(std::string("unknown flag ")
                                       + arg);
            }
        }
    } catch (const vsim::FatalError &err) {
        std::fprintf(stderr, "%s\n", err.what());
        usage(argv[0]);
    }
    return opt;
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
 * Every cell of one named sweep, run at construction on the worker
 * pool and looked up by (label, workload).
 */
class SweepResults
{
  public:
    SweepResults(const std::string &name, const Options &opt)
    {
        const auto jobs =
            vsim::sim::sweepByName(name).build({opt.quick, opt.scale, {}});
        auto results = vsim::sim::SweepRunner(opt.jobs).run(jobs);
        for (std::size_t i = 0; i < jobs.size(); ++i)
            cells.emplace(std::make_pair(jobs[i].label, jobs[i].workload),
                          std::move(results[i]));
    }

    /** The run labelled @p label on @p workload; fatal if absent. */
    const vsim::sim::RunResult &
    at(const std::string &label, const std::string &workload) const
    {
        auto it = cells.find({label, workload});
        if (it == cells.end())
            VSIM_FATAL("no sweep cell '", label, "' on ", workload);
        return it->second;
    }

    /** Speedup of the @p label run over the @p base run. */
    double
    speedup(const std::string &base, const std::string &label,
            const std::string &workload) const
    {
        return vsim::sim::speedup(at(base, workload), at(label, workload));
    }

  private:
    std::map<std::pair<std::string, std::string>, vsim::sim::RunResult>
        cells;
};

} // namespace bench

#endif // VSPEC_BENCH_BENCH_UTIL_HH
